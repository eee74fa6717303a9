"""Compiled sweep ⇔ dict-engine equivalence: ``engine="fast"`` must be
*bit-identical* to the reference implementation — same dendrogram
links, same stats, same permutation — not merely an equivalent
clustering.  These tests are the contract that lets ``engine="fast"``
be the default everywhere.

Every graph runs twice on the compiled sweep: with the default chunking
and with one folded item per chunk and a one-slot entry pool, so the
seams between library calls (chunk boundaries, pool growth, heartbeats)
are crossed at nearly every vertex.  Without a C compiler the
``engine="fast"`` runs fall back to the dict engine, so the equivalence
still holds and only the library's own seams are skipped.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    hierarchical_community_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.obs import trace
from repro.rabbit import native, rabbit_order
from repro.rabbit.native import community_detection_fastseq
from repro.rabbit.seq import community_detection_seq
from repro.resilience.runtime import RunControl
from tests.conftest import GRAPH_ZOO, make_paper_graph

SEEDS = list(range(10))

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


def reweighted(graph: CSRGraph, seed: int, low=0.1, high=5.0, log=False):
    """Copy of *graph* with random edge weights in ``[low, high)``
    (log-uniform when *log*)."""
    rng = np.random.default_rng(seed)
    src, dst, _ = graph.edge_array()
    keep = src <= dst
    size = int(keep.sum())
    if log:
        w = 10.0 ** rng.uniform(np.log10(low), np.log10(high), size=size)
    else:
        w = rng.uniform(low, high, size=size)
    return CSRGraph.from_edges(src[keep], dst[keep], weights=w, symmetrize=True)


def tiny_chunks(monkeypatch):
    """One folded item per library call, a one-slot initial pool."""
    monkeypatch.setattr(native, "_CHUNK_WORK", 1)
    monkeypatch.setattr(native, "_pool_capacity", lambda graph: 1)


def assert_engines_identical(graph: CSRGraph, **kwargs):
    ref_dend, ref_stats = community_detection_seq(
        graph, engine="dict", **kwargs
    )
    for regime in ("default", "tiny"):
        with pytest.MonkeyPatch.context() as mp:
            if regime == "tiny":
                tiny_chunks(mp)
            dend, stats = community_detection_fastseq(graph, **kwargs)
        ctx = f"chunking={regime}"
        assert np.array_equal(ref_dend.child, dend.child), ctx
        assert np.array_equal(ref_dend.sibling, dend.sibling), ctx
        assert np.array_equal(ref_dend.toplevel, dend.toplevel), ctx
        assert ref_stats.merges == stats.merges, ctx
        assert ref_stats.toplevels == stats.toplevels, ctx
        assert ref_stats.edges_scanned == stats.edges_scanned, ctx
        assert np.array_equal(ref_stats.vertex_work, stats.vertex_work), ctx


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rmat(self, seed):
        assert_engines_identical(rmat_graph(7, edge_factor=6, rng=seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_classic(self, seed):
        # Rotate through the classic models so ten seeds cover all three.
        if seed % 3 == 0:
            g = erdos_renyi_graph(120, 0.06, rng=seed)
        elif seed % 3 == 1:
            g = watts_strogatz_graph(120, 6, 0.2, rng=seed)
        else:
            g = barabasi_albert_graph(120, 4, rng=seed)
        assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hierarchical(self, seed):
        g = hierarchical_community_graph(192, levels=2, rng=seed).graph
        assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_weighted_rmat(self, seed):
        g = reweighted(rmat_graph(7, edge_factor=6, rng=seed), 100 + seed)
        assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weights_over_twelve_orders_of_magnitude(self, seed):
        """Sums of weights 1e-6..1e6 lose low bits in any other
        accumulation order, so only the dict engine's order passes."""
        base = hierarchical_community_graph(192, levels=2, rng=seed).graph
        g = reweighted(base, 200 + seed, low=1e-6, high=1e6, log=True)
        assert_engines_identical(g)


class TestEdgeCases:
    def test_zoo(self, zoo_graph):
        """Empty, isolated, self-loop, star, multi-component, … graphs."""
        assert_engines_identical(zoo_graph)

    def test_edgeless_stats(self):
        g = CSRGraph.empty(7)
        dend, stats = community_detection_fastseq(g)
        assert stats.toplevels == 7
        assert stats.merges == 0
        assert np.array_equal(dend.toplevel, np.arange(7))

    def test_heavy_self_loops(self):
        g = CSRGraph.from_edges(
            [0, 0, 1, 1, 2, 3], [0, 1, 1, 2, 3, 3], symmetrize=True
        )
        assert_engines_identical(g)

    def test_weighted_paper_graph(self):
        assert_engines_identical(make_paper_graph(weighted=True))

    def test_merge_threshold_and_visit_orders(self):
        g = rmat_graph(7, edge_factor=6, rng=3)
        assert_engines_identical(g, merge_threshold=0.05)
        assert_engines_identical(g, visit="identity")
        assert_engines_identical(g, visit="random", visit_rng=11)

    def test_rejects_unknown_visit(self):
        g = GRAPH_ZOO["triangle"]
        with pytest.raises(ValueError, match="visit"):
            community_detection_fastseq(g, visit="bogus")


@requires_cc
class TestChunkSeams:
    def test_heartbeats_count_every_decided_vertex(self, monkeypatch):
        tiny_chunks(monkeypatch)
        g = rmat_graph(7, edge_factor=6, rng=1)
        control = RunControl()
        with control.installed():
            community_detection_fastseq(g)
        assert control.progress == g.num_vertices

    def test_one_aggregate_span_counts_the_chunks(self, monkeypatch):
        g = rmat_graph(7, edge_factor=6, rng=1)
        with trace.capture() as cap:
            community_detection_fastseq(g)
        (setup,) = cap.find("rabbit.seq.setup")
        (agg,) = cap.find("rabbit.seq.aggregate")
        assert setup.attrs["engine"] == agg.attrs["engine"] == "native"
        assert agg.attrs["chunks"] == 1
        tiny_chunks(monkeypatch)
        with trace.capture() as cap:
            _, stats = community_detection_fastseq(g)
        (agg,) = cap.find("rabbit.seq.aggregate")
        # a call ends after each vertex that folds anything
        assert agg.attrs["chunks"] >= np.count_nonzero(stats.vertex_work)


@requires_cc
class TestDeltaQKernel:
    def test_bit_equal_to_numpy(self):
        """The sweep's ΔQ expression, built as shipped, matches numpy's
        unfused evaluation bit for bit; a build that contracts it into
        an FMA does not."""
        rng = np.random.default_rng(2016)
        k = 100_000
        w = 10.0 ** rng.uniform(-6, 6, size=k)
        deg = 10.0 ** rng.uniform(-6, 6, size=k)
        inv_2m, penalty = 1.0 / 12345.678, 0.37 / 12345.678**2
        expected = 2.0 * (w * inv_2m - deg * penalty)
        got = native.delta_q(w, deg, inv_2m, penalty)
        assert got.tobytes() == expected.tobytes()


class TestPermutationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_rabbit_order_permutation(self, seed):
        g = rmat_graph(7, edge_factor=6, rng=seed)
        fast = rabbit_order(g, engine="fast")
        ref = rabbit_order(g, engine="dict")
        assert np.array_equal(fast.permutation, ref.permutation)
        assert fast.num_communities == ref.num_communities

    def test_default_engine_is_fast(self, paper_graph):
        default = rabbit_order(paper_graph)
        explicit = rabbit_order(paper_graph, engine="fast")
        assert np.array_equal(default.permutation, explicit.permutation)

    def test_unknown_engine_rejected(self, paper_graph):
        with pytest.raises(ValueError, match="engine"):
            community_detection_seq(paper_graph, engine="turbo")
