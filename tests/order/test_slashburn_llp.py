"""SlashBurn and Layered Label Propagation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, invert_permutation, random_permutation
from repro.graph.generators import (
    barabasi_albert_graph,
    hierarchical_community_graph,
    rmat_graph,
)
from repro.metrics import average_neighbor_gap
from repro.order import llp_order, slashburn_order
from repro.order.slashburn import _spoke_order


class TestSlashBurn:
    def test_hubs_get_lowest_ids(self):
        g = barabasi_albert_graph(300, 3, rng=0)
        res = slashburn_order(g)
        k = res.extra["k"]
        order = invert_permutation(res.permutation)
        first_hubs = order[:k]
        degs = g.degrees()
        # The first k slots hold the k highest-degree vertices.
        assert set(first_hubs.tolist()) == set(
            np.argsort(-degs, kind="stable")[:k].tolist()
        )

    def test_star_one_iteration(self):
        g = CSRGraph.from_edges(np.zeros(20, dtype=int), np.arange(1, 21))
        res = slashburn_order(g)
        # Removing the hub shatters the star into singleton spokes.
        assert res.extra["iterations"] == 1
        assert res.permutation[0] == 0  # the hub goes first

    def test_k_ratio_controls_hub_count(self):
        g = barabasi_albert_graph(200, 3, rng=1)
        res = slashburn_order(g, k_ratio=0.1)
        assert res.extra["k"] == 20

    def test_sequential_profile(self, paper_graph):
        res = slashburn_order(paper_graph)
        assert not res.stats.parallelizable
        assert res.stats.span == pytest.approx(res.stats.work)

    def test_max_iterations_cap(self):
        g = barabasi_albert_graph(200, 3, rng=2)
        res = slashburn_order(g, max_iterations=1)
        assert res.extra["iterations"] <= 1

    def test_spokes_at_back(self):
        # Hub 0 connects to everyone; two triangles become spokes after
        # the hub is slashed.
        g = CSRGraph.from_edges(
            [0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6],
            [1, 2, 3, 4, 5, 6, 2, 3, 1, 5, 6, 4],
        )
        res = slashburn_order(g, k_ratio=0.01)  # k = 1: remove vertex 0
        order = invert_permutation(res.permutation)
        assert order[0] == 0
        # Remaining six vertices are spokes; each triangle contiguous.
        back = order[1:]
        pos = {int(v): i for i, v in enumerate(back)}
        t1 = sorted(pos[v] for v in (1, 2, 3))
        t2 = sorted(pos[v] for v in (4, 5, 6))
        assert t1[-1] - t1[0] == 2
        assert t2[-1] - t2[0] == 2

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_spoke_order_matches_per_spoke_loop(self, labels, seed):
        """One sort places the spokes exactly where the per-spoke loop it
        replaced did: smaller spokes further back, of equal sizes the
        lower label further back, decreasing degree then id within."""
        labels = np.asarray(labels, dtype=np.int64)
        sizes = np.bincount(labels)
        gcc = int(np.argmax(sizes))
        degrees = np.random.default_rng(seed).integers(0, 4, labels.size)
        expected = np.empty(np.count_nonzero(labels != gcc), dtype=np.int64)
        back = expected.size
        spoke_labels = [c for c in range(sizes.size) if c != gcc]
        spoke_labels.sort(key=lambda c: int(sizes[c]))
        for c in spoke_labels:
            members = np.flatnonzero(labels == c)
            members = members[np.argsort(-degrees[members], kind="stable")]
            back -= members.size
            expected[back : back + members.size] = members
        got = _spoke_order(labels, sizes, gcc, degrees)
        assert got.tolist() == expected.tolist()

    #: sha256 prefixes of (permutation, stats.work, iterations, k), from
    #: the per-spoke placement loop that one sort over all spokes
    #: replaced: the sort must reproduce it bit for bit.
    PINNED = {
        "rmat-s8": "e92bbf4a2f3565fd",
        "rmat-s10": "f064c6a66d40a96b",
        "rmat-s12": "15e62c7747ec692e",
        "hier-768": "ba6d77d507bdf41b",
        "ba-300": "c256308ef480cf81",
    }
    GRAPHS = {
        "rmat-s8": lambda: rmat_graph(8, edge_factor=8, rng=7),
        "rmat-s10": lambda: rmat_graph(10, edge_factor=8, rng=7),
        "rmat-s12": lambda: rmat_graph(12, edge_factor=8, rng=7),
        "hier-768": lambda: hierarchical_community_graph(768, rng=11).graph,
        "ba-300": lambda: barabasi_albert_graph(300, 3, rng=0),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_pinned_output(self, name):
        res = slashburn_order(self.GRAPHS[name]())
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(res.permutation, dtype=np.int64).tobytes())
        h.update(repr((res.stats.work, res.extra["iterations"],
                       res.extra["k"])).encode())
        assert h.hexdigest()[:16] == self.PINNED[name]


class TestLLP:
    def test_improves_locality_on_community_graph(self):
        hg = hierarchical_community_graph(400, rng=5)
        base = hg.graph.permute(random_permutation(400, rng=1))
        res = llp_order(base, rng=0)
        assert average_neighbor_gap(
            base.permute(res.permutation)
        ) < 0.7 * average_neighbor_gap(base)

    def test_work_dominates_single_pass_algorithms(self, paper_graph):
        from repro.order import bfs_order

        llp = llp_order(paper_graph, rng=0)
        bfs = bfs_order(paper_graph)
        assert llp.stats.work > 5 * bfs.stats.work  # Fig. 7's gap

    def test_layer_count_recorded(self, paper_graph):
        res = llp_order(paper_graph, gammas=(0.0, 0.5), rng=0)
        assert res.extra["layers"] == 2

    def test_communities_contiguous(self):
        """After LLP, the finest layer's labels should be fairly
        contiguous in the ordering (each label's members clustered)."""
        hg = hierarchical_community_graph(300, rng=6)
        g = hg.graph
        res = llp_order(g, rng=0)
        from repro.community.labelprop import label_propagation

        labels = label_propagation(g, rng=0, max_iterations=15).labels
        # Spread of new ids within a label should be far below n on average.
        spreads = []
        for lab in np.unique(labels):
            ids = res.permutation[labels == lab]
            if ids.size > 1:
                spreads.append(np.ptp(ids) / (ids.size - 1))
        assert np.median(spreads) < g.num_vertices / 4
