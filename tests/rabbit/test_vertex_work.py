"""Every detection run counts its per-vertex work into one n-sized int64
array: ``stats.vertex_work[u]`` is the edges folded when ``u`` was
decided, so the array sums to ``stats.edges_scanned`` on every path —
both sequential engines, the Algorithm 3 model with and without crash
recovery, edgeless graphs and resumed runs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.graph.generators import rmat_graph
from repro.order.rabbit_adapter import rabbit_par_order_result
from repro.parallel.faults import FaultPlan
from repro.rabbit.par import community_detection_par
from repro.rabbit.seq import community_detection_seq
from repro.resilience.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from tests.conftest import GRAPH_ZOO

ENGINES = ["fast", "dict"]


def assert_counts_every_edge(stats, n: int) -> None:
    work = stats.vertex_work
    assert work.dtype == np.int64
    assert work.shape == (n,)
    assert int(work.sum()) == stats.edges_scanned


@st.composite
def graphs(draw, max_n=30, max_m=80):
    """Symmetric graphs with isolated vertices, self-loops, repeated
    edges and, half the time, weights."""
    n = draw(st.integers(1, max_n))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=max_m))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(st.floats(0.125, 8.0), min_size=src.size,
                          max_size=src.size)),
            dtype=np.float64,
        )
    return CSRGraph.from_edges(
        src, dst, weights=weights, num_vertices=n, symmetrize=True
    )


class TestSequentialEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=60, deadline=None)
    @given(g=graphs())
    def test_drawn_graphs(self, engine, g):
        _, stats = community_detection_seq(g, engine=engine)
        assert_counts_every_edge(stats, g.num_vertices)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(GRAPH_ZOO))
    def test_zoo(self, engine, name):
        g = GRAPH_ZOO[name]
        _, stats = community_detection_seq(g, engine=engine)
        assert_counts_every_edge(stats, g.num_vertices)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_edgeless(self, engine):
        _, stats = community_detection_seq(CSRGraph.empty(5), engine=engine)
        assert_counts_every_edge(stats, 5)
        assert not stats.vertex_work.any()

    @pytest.mark.parametrize("first", ENGINES)
    @pytest.mark.parametrize("second", ENGINES)
    def test_resumed_runs(self, tmp_path, first, second):
        g = rmat_graph(7, edge_factor=6, rng=5)
        _, full = community_detection_seq(g, engine=first)
        ck = Checkpointer(CheckpointConfig(directory=tmp_path, every=40, keep=100))
        community_detection_seq(g, engine=first, checkpoint=ck)
        assert len(ck.saved) >= 2
        for path in ck.saved:
            _, stats = community_detection_seq(
                g, engine=second, resume=load_checkpoint(path)
            )
            assert_counts_every_edge(stats, g.num_vertices)
            assert np.array_equal(stats.vertex_work, full.vertex_work)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_without_vertex_work(self, tmp_path, engine):
        """A snapshot that carries no per-vertex work (as every snapshot
        of a run that did not ask for it once did) resumes to the same
        dendrogram; its prefix's work reads 0."""
        g = rmat_graph(7, edge_factor=6, rng=5)
        dend, full = community_detection_seq(g, engine=engine)
        ck = Checkpointer(CheckpointConfig(directory=tmp_path, every=40, keep=1))
        community_detection_seq(g, engine=engine, checkpoint=ck)
        snap = load_checkpoint(ck.saved[-1])
        snap.vertex_work = np.zeros(0, dtype=np.int64)
        path = save_checkpoint(tmp_path / "bare.rbk", snap)
        resumed, stats = community_detection_seq(
            g, engine=engine, resume=load_checkpoint(path)
        )
        assert np.array_equal(resumed.child, dend.child)
        assert np.array_equal(resumed.sibling, dend.sibling)
        assert np.array_equal(resumed.toplevel, dend.toplevel)
        prefix = snap.order[: snap.progress]
        rest = snap.order[snap.progress :]
        assert not stats.vertex_work[prefix].any()
        assert np.array_equal(stats.vertex_work[rest], full.vertex_work[rest])


class TestModel:
    @pytest.mark.parametrize("seed", range(3))
    def test_unfaulted(self, seed):
        g = rmat_graph(7, edge_factor=6, rng=seed)
        res = community_detection_par(g, num_threads=4, scheduler_seed=seed)
        assert_counts_every_edge(res.stats, g.num_vertices)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_crash_recovery_counts_its_fallback_pass(self, seed):
        g = rmat_graph(8, edge_factor=4, rng=3)
        plan = FaultPlan(seed=seed, crash_rate=0.05, max_crashes=4)
        res = community_detection_par(g, fault_plan=plan)
        stats = res.stats
        assert stats.fallback_merges + stats.fallback_toplevels > 0
        assert_counts_every_edge(stats, g.num_vertices)

    def test_edgeless(self):
        res = community_detection_par(CSRGraph.empty(5))
        assert_counts_every_edge(res.stats, 5)

    def test_resumed_run(self, tmp_path):
        g = rmat_graph(7, edge_factor=6, rng=2)
        plan = FaultPlan(seed=1, crash_rate=0.05, max_crashes=2)
        ck = Checkpointer(CheckpointConfig(directory=tmp_path, every=32, keep=100))
        full = community_detection_par(g, fault_plan=plan, checkpoint=ck)
        assert_counts_every_edge(full.stats, g.num_vertices)
        assert len(ck.saved) >= 2
        snap = load_checkpoint(ck.saved[len(ck.saved) // 2])
        res = community_detection_par(g, fault_plan=plan, resume=snap)
        assert_counts_every_edge(res.stats, g.num_vertices)
        assert np.array_equal(res.stats.vertex_work, full.stats.vertex_work)


def test_model_profile_is_linear_in_n():
    """The run's one counter is 8n bytes (64 KiB here); an array per
    32-vertex chunk made the traced peak about 25 MiB."""
    g = rmat_graph(13, edge_factor=8, rng=1)
    tracemalloc.start()
    try:
        rabbit_par_order_result(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
