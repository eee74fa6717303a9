"""Guard: the always-on instrumentation must stay effectively free.

Two independent defences, neither timing-flaky:

1. A micro-bound on the disabled ``span()`` call itself — one attribute
   check returning a shared singleton has to stay orders of magnitude
   under any real work unit; the bound below is deliberately generous
   (sub-microsecond work allowed 10 us) so only a structural mistake
   (allocating a Span, reading the clock while disabled) trips it.
2. A span *census*: running the instrumented pipeline under capture on a
   few-hundred-vertex graph must produce a handful of coarse phase spans,
   never O(n) of them.  This pins the "no spans in per-vertex loops"
   rule, which is what actually keeps the enabled path cheap.
"""

import time

from repro.graph.generators import hierarchical_community_graph
from repro.obs import trace


class TestDisabledPath:
    def test_disabled_span_call_is_cheap(self):
        assert not trace.is_enabled()
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("hot"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 10e-6, f"disabled span cost {per_call * 1e6:.2f}us/call"

    def test_disabled_span_allocates_nothing(self):
        spans = {id(trace.span("a")) for _ in range(100)}
        assert len(spans) == 1  # always the shared _NULL_SPAN


class TestSpanCensus:
    def test_no_per_vertex_spans_in_sequential_pipeline(self):
        from repro.rabbit.order import rabbit_order

        g = hierarchical_community_graph(300, rng=2).graph
        with trace.capture() as cap:
            rabbit_order(g)
        count = sum(1 for _ in cap.walk())
        assert 0 < count < 20, (
            f"{count} spans for a 300-vertex run -- per-vertex "
            "instrumentation has leaked into a hot loop"
        )

    def test_no_per_vertex_spans_in_parallel_pipeline(self):
        from repro.rabbit import community_detection_par, ordering_generation_seq

        g = hierarchical_community_graph(300, rng=2).graph
        with trace.capture() as cap:
            ordering_generation_seq(community_detection_par(g).dendrogram)
        count = sum(1 for _ in cap.walk())
        assert 0 < count < 20

    def test_analysis_kernels_emit_one_span_each(self):
        from repro.analysis.pagerank import pagerank
        from repro.analysis.rwr import random_walk_with_restart
        from repro.analysis.traversal import bfs, bfs_forest

        g = hierarchical_community_graph(300, rng=2).graph
        with trace.capture() as cap:
            pr = pagerank(g)
            rwr = random_walk_with_restart(g, 0)
            bfs(g, 0)
            bfs_forest(g)
        totals = cap.phase_totals()
        assert set(totals) == {
            "analysis.pagerank", "analysis.rwr", "analysis.bfs",
            "analysis.bfs_forest",
        }
        for name in totals:
            assert len(cap.find(name)) == 1
        assert cap.find("analysis.pagerank")[0].attrs["iterations"] == pr.iterations
        assert cap.find("analysis.rwr")[0].attrs["iterations"] == rwr.iterations
        assert {"engine", "levels"} <= set(cap.find("analysis.bfs")[0].attrs)

    def test_forest_spans_do_not_grow_with_components(self):
        """One span per call, not one per component: the components
        span holds the one forest span its labels come from."""
        from repro.analysis.components import connected_components
        from repro.analysis.traversal import bfs_forest
        from repro.graph.csr import CSRGraph

        g = CSRGraph.empty(500)  # 500 components
        with trace.capture() as cap:
            bfs_forest(g)
        assert [s.name for s in cap.walk()] == ["analysis.bfs_forest"]
        with trace.capture() as cap:
            result = connected_components(g)
        (root,) = cap.roots
        assert root.name == "analysis.components"
        assert root.attrs["components"] == result.num_components == 500
        assert [s.name for s in cap.walk()] == [
            "analysis.components", "analysis.bfs_forest",
        ]
