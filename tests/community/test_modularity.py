"""Modularity Q and the ΔQ merge gain (Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import (
    community_degrees,
    delta_q,
    modularity,
    newman_degrees,
)
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from tests.conftest import to_networkx


def _nx_modularity(graph, labels):
    import networkx as nx

    communities = {}
    for v, c in enumerate(labels):
        communities.setdefault(int(c), set()).add(v)
    return nx.algorithms.community.modularity(
        to_networkx(graph), communities.values(), weight="weight"
    )


class TestModularity:
    def test_single_community_is_nonpositive(self, paper_graph):
        labels = np.zeros(paper_graph.num_vertices, dtype=np.int64)
        # One community: intra/m = 1 and (deg/2m)^2 = 1 -> Q = 0.
        assert modularity(paper_graph, labels) == pytest.approx(0.0)

    def test_paper_communities_positive(self, paper_graph):
        labels = np.array([0, 1, 0, 1, 0, 0, 1, 0])
        assert modularity(paper_graph, labels) > 0.3

    def test_matches_networkx(self, paper_graph):
        labels = np.array([0, 1, 0, 1, 0, 0, 1, 0])
        assert modularity(paper_graph, labels) == pytest.approx(
            _nx_modularity(paper_graph, labels)
        )

    def test_singletons_match_networkx(self, paper_graph):
        labels = np.arange(paper_graph.num_vertices)
        assert modularity(paper_graph, labels) == pytest.approx(
            _nx_modularity(paper_graph, labels)
        )

    def test_with_self_loops_matches_networkx(self):
        g = CSRGraph.from_edges(
            [0, 0, 1, 2], [0, 1, 2, 2], weights=[2.0, 1.0, 1.0, 3.0]
        )
        labels = np.array([0, 0, 1])
        assert modularity(g, labels) == pytest.approx(_nx_modularity(g, labels))

    def test_empty_graph(self):
        assert modularity(CSRGraph.empty(3), np.zeros(3, dtype=np.int64)) == 0.0

    def test_zero_vertices(self):
        assert modularity(CSRGraph.empty(0), np.zeros(0, dtype=np.int64)) == 0.0

    def test_shape_mismatch(self, paper_graph):
        with pytest.raises(GraphFormatError):
            modularity(paper_graph, np.zeros(3, dtype=np.int64))

    def test_negative_labels_rejected(self, paper_graph):
        labels = np.zeros(paper_graph.num_vertices, dtype=np.int64)
        labels[0] = -1
        with pytest.raises(GraphFormatError):
            modularity(paper_graph, labels)

    def test_invariant_under_relabeling(self, paper_graph):
        from repro.graph import random_permutation

        labels = np.array([0, 1, 0, 1, 0, 0, 1, 0])
        perm = random_permutation(paper_graph.num_vertices, rng=11)
        g2 = paper_graph.permute(perm)
        labels2 = np.empty_like(labels)
        labels2[perm] = labels
        assert modularity(g2, labels2) == pytest.approx(
            modularity(paper_graph, labels)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_graphs_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(30, 0.15, rng=rng)
        if g.num_edges == 0:
            return
        labels = rng.integers(0, 4, size=30)
        assert modularity(g, labels) == pytest.approx(
            _nx_modularity(g, labels), abs=1e-12
        )


class TestDegrees:
    def test_newman_degree_counts_loops_twice(self):
        g = CSRGraph.from_edges([0, 0], [0, 1], weights=[3.0, 1.0])
        deg = newman_degrees(g)
        assert deg[0] == pytest.approx(7.0)  # 2*3 (loop) + 1
        assert deg[1] == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=80),
            )
        )
    )
    def test_unweighted_equals_explicit_unit_weights(self, data):
        """Unweighted graphs count slots and loops instead of summing a
        materialised array of ones; the values are bit-identical, and so
        is ``total_edge_weight``."""
        n, edges = data
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        g = CSRGraph.from_edges(src, dst, num_vertices=n)
        ones = g.with_unit_weights()
        assert newman_degrees(g).tobytes() == newman_degrees(ones).tobytes()
        assert g.total_edge_weight() == ones.total_edge_weight()

    def test_community_degrees_sum(self, paper_graph):
        labels = np.array([0, 1, 0, 1, 0, 0, 1, 0])
        cd = community_degrees(paper_graph, labels)
        assert cd.sum() == pytest.approx(newman_degrees(paper_graph).sum())

    def test_community_degrees_shape_mismatch(self, paper_graph):
        with pytest.raises(GraphFormatError):
            community_degrees(paper_graph, np.zeros(2, dtype=np.int64))


class TestDeltaQ:
    def test_merge_gain_matches_actual_q_change(self, paper_graph):
        """ΔQ (Eq. 1) must equal the actual modularity change of merging
        two singleton communities — the invariant Rabbit's bookkeeping
        relies on."""
        g = paper_graph
        m = g.total_edge_weight()
        deg = newman_degrees(g)
        labels = np.arange(g.num_vertices)
        q_before = modularity(g, labels)
        # Merge vertices 2 and 7 (edge weight 9.2).
        merged = labels.copy()
        merged[7] = merged[2]
        q_after = modularity(g, merged)
        gain = delta_q(g.edge_weight(2, 7), deg[2], deg[7], m)
        assert gain == pytest.approx(q_after - q_before, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_merge_gain_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(20, 0.2, rng=rng)
        if g.num_edges == 0:
            return
        m = g.total_edge_weight()
        deg = newman_degrees(g)
        src, dst, _ = g.edge_array()
        k = int(rng.integers(0, g.num_edges))
        u, v = int(src[k]), int(dst[k])
        if u == v:
            return
        labels = np.arange(g.num_vertices)
        q_before = modularity(g, labels)
        merged = labels.copy()
        merged[v] = merged[u]
        q_after = modularity(g, merged)
        gain = delta_q(g.edge_weight(u, v), deg[u], deg[v], m)
        assert gain == pytest.approx(q_after - q_before, abs=1e-12)

    def test_negative_gain_for_unconnected_pair(self, paper_graph):
        m = paper_graph.total_edge_weight()
        deg = newman_degrees(paper_graph)
        # 0 and 1 are not adjacent: w = 0, gain strictly negative.
        assert delta_q(0.0, deg[0], deg[1], m) < 0.0
