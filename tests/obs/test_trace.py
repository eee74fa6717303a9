"""Hierarchical span tracer."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, format_spans, phase_totals


@pytest.fixture
def tracer():
    """A fresh, isolated tracer swapped in as the global one."""
    t = Tracer()
    prev = trace.set_tracer(t)
    yield t
    trace.set_tracer(prev)


class TestDisabled:
    def test_disabled_span_is_shared_noop(self, tracer):
        a = trace.span("x")
        b = trace.span("y", k=1)
        assert a is b  # the singleton — no allocation per call

    def test_disabled_span_collects_nothing(self, tracer):
        with trace.span("phase"):
            pass
        assert tracer.roots == []

    def test_null_span_set_is_chainable(self, tracer):
        with trace.span("phase") as s:
            assert s.set(k=1) is s


class TestNesting:
    def test_parent_child_forest(self, tracer):
        with tracer.capture() as cap:
            with trace.span("outer", n=8):
                with trace.span("inner.a"):
                    pass
                with trace.span("inner.b"):
                    pass
            with trace.span("second"):
                pass
        assert [r.name for r in cap.roots] == ["outer", "second"]
        outer = cap.roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.attrs == {"n": 8}
        assert outer.duration >= sum(c.duration for c in outer.children)

    def test_find_and_walk(self, tracer):
        with tracer.capture() as cap:
            with trace.span("a"):
                with trace.span("b"):
                    with trace.span("b"):
                        pass
        assert len(cap.find("b")) == 2
        assert [s.name for s in cap.walk()] == ["a", "b", "b"]

    def test_capture_restores_prior_state(self, tracer):
        assert not tracer.enabled
        with tracer.capture():
            assert tracer.enabled
            with tracer.capture():
                pass
            assert tracer.enabled  # inner capture restored enabled=True
        assert not tracer.enabled

    def test_set_attrs_on_live_span(self, tracer):
        with tracer.capture() as cap:
            with trace.span("phase") as s:
                s.set(iterations=17)
        assert cap.roots[0].attrs["iterations"] == 17


class TestThreads:
    def test_worker_spans_keep_their_own_stacks(self, tracer):
        """Spans opened on other threads must not nest under (or corrupt)
        the main thread's open span."""
        barrier = threading.Barrier(3)

        def worker(tag):
            barrier.wait()
            with trace.span(f"worker.{tag}"):
                pass

        with tracer.capture() as cap:
            with trace.span("main"):
                threads = [
                    threading.Thread(target=worker, args=(i,), name=f"w{i}")
                    for i in range(2)
                ]
                for t in threads:
                    t.start()
                barrier.wait()
                for t in threads:
                    t.join()
        names = {r.name for r in cap.roots}
        assert names == {"main", "worker.0", "worker.1"}
        main = next(r for r in cap.roots if r.name == "main")
        assert main.children == []  # worker spans did not leak under main
        workers = [r for r in cap.roots if r.name != "main"]
        assert {w.thread for w in workers} == {"w0", "w1"}


class TestExporters:
    def test_phase_totals_aggregate_by_name(self, tracer):
        with tracer.capture() as cap:
            for _ in range(3):
                with trace.span("phase"):
                    pass
        totals = cap.phase_totals()
        assert set(totals) == {"phase"}
        assert totals["phase"] >= 0.0
        assert totals == phase_totals(cap.roots)

    def test_format_indents_children(self, tracer):
        with tracer.capture() as cap:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        text = format_spans(cap.roots)
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "ms" in lines[0]

    def test_json_round_trip(self, tracer):
        with tracer.capture() as cap:
            with trace.span("outer", n=4):
                with trace.span("inner"):
                    pass
        doc = json.loads(cap.to_json())
        assert doc[0]["name"] == "outer"
        assert doc[0]["attrs"] == {"n": 4}
        assert doc[0]["children"][0]["name"] == "inner"
        assert doc[0]["duration_s"] >= 0.0

