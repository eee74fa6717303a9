"""Race detector: vector-clock checker, tracing hooks, end-to-end runs.

Three layers of evidence:

* unit — hand-built event logs with known verdicts (a seeded synthetic
  race, a release/acquire-ordered pair, the relaxed exemption);
* mutation — through the real driver, the Algorithm 3 worker passes
  clean and a deliberately broken variant patched in for it (the pre-CAS
  ``sibling`` write moved *after* the CAS, outside its release) is
  flagged on every seed;
* integration — ``community_detection_par(detect_races=True)`` and the
  stress harness report zero races across 50 interleaving seeds,
  including under fault injection (FaultyAtomicPairArray).
"""

from collections import deque

import numpy as np
import pytest

import repro.rabbit.par
from repro.check.races import (
    PLAIN,
    RELAXED,
    Event,
    EventLog,
    TracingArray,
    TracingList,
    analyze_log,
    current_worker,
    tag_worker,
    unwrap,
)
from repro.graph.generators import rmat_graph
from repro.parallel.atomics import INVALID_DEGREE
from repro.parallel.faults import FaultPlan
from repro.rabbit.common import aggregate_vertex
from repro.rabbit.par import community_detection_par


def _log(events):
    log = EventLog()
    log.events.extend(events)
    log.close()
    return log


class TestVectorClockChecker:
    def test_seeded_synthetic_race(self):
        # Two workers touch x[7] with no synchronisation at all.
        report = analyze_log(_log([
            Event(0, "write", ("x", 7), PLAIN),
            Event(1, "read", ("x", 7), PLAIN),
        ]))
        assert not report.ok
        assert len(report.races) == 1
        race = report.races[0]
        assert race.loc == ("x", 7)
        assert {race.first_worker, race.second_worker} == {0, 1}
        assert "unordered" in race.describe()

    def test_write_write_race(self):
        report = analyze_log(_log([
            Event(0, "write", ("x", 0), PLAIN),
            Event(1, "write", ("x", 0), PLAIN),
        ]))
        assert len(report.races) == 1

    def test_release_acquire_orders_the_pair(self):
        # Worker 0 publishes via record 3; worker 1 acquires it first.
        report = analyze_log(_log([
            Event(0, "write", ("x", 7), PLAIN),
            Event(0, "release", ("atom", 3), "sync"),
            Event(1, "acquire", ("atom", 3), "sync"),
            Event(1, "read", ("x", 7), PLAIN),
        ]))
        assert report.ok
        assert report.races == []

    def test_acquire_of_wrong_record_does_not_order(self):
        report = analyze_log(_log([
            Event(0, "write", ("x", 7), PLAIN),
            Event(0, "release", ("atom", 3), "sync"),
            Event(1, "acquire", ("atom", 4), "sync"),
            Event(1, "read", ("x", 7), PLAIN),
        ]))
        assert len(report.races) == 1

    def test_access_after_release_is_not_covered_by_it(self):
        # The write happens after worker 0's release: the reader's
        # acquire does not order it.
        report = analyze_log(_log([
            Event(0, "release", ("atom", 3), "sync"),
            Event(0, "write", ("x", 7), PLAIN),
            Event(1, "acquire", ("atom", 3), "sync"),
            Event(1, "read", ("x", 7), PLAIN),
        ]))
        assert len(report.races) == 1

    def test_transitive_ordering_through_two_records(self):
        report = analyze_log(_log([
            Event(0, "write", ("x", 1), PLAIN),
            Event(0, "release", ("atom", 0), "sync"),
            Event(1, "acquire", ("atom", 0), "sync"),
            Event(1, "release", ("atom", 5), "sync"),
            Event(2, "acquire", ("atom", 5), "sync"),
            Event(2, "write", ("x", 1), PLAIN),
        ]))
        assert report.ok

    def test_same_worker_never_races_with_itself(self):
        report = analyze_log(_log([
            Event(0, "write", ("x", 1), PLAIN),
            Event(0, "read", ("x", 1), PLAIN),
            Event(0, "write", ("x", 1), PLAIN),
        ]))
        assert report.ok

    def test_reads_do_not_conflict(self):
        report = analyze_log(_log([
            Event(0, "read", ("x", 1), PLAIN),
            Event(1, "read", ("x", 1), PLAIN),
        ]))
        assert report.ok

    def test_relaxed_accesses_are_exempt(self):
        report = analyze_log(_log([
            Event(0, "write", ("dest", 7), RELAXED),
            Event(1, "write", ("dest", 7), RELAXED),
            Event(2, "read", ("dest", 7), RELAXED),
        ]))
        assert report.ok
        assert report.relaxed_accesses == 3

    def test_sync_vs_plain_conflict_is_checked(self):
        # An unsynchronised plain read racing an atomic write of the
        # same field must be flagged: atomicity of the record does not
        # cover the plain side.
        log = EventLog()
        log.events.extend([
            Event(0, "acquire", ("atom", 2), "sync"),
            Event(0, "write", ("child", 2), "sync"),
            Event(0, "release", ("atom", 2), "sync"),
            Event(1, "read", ("child", 2), PLAIN),
        ])
        log.close()
        assert len(analyze_log(log).races) == 1

    def test_truncated_log_voids_a_clean_verdict(self):
        log = EventLog(capacity=1)
        log.events.append(Event(0, "read", ("x", 0), PLAIN))
        log.dropped = 5
        log.close()
        report = analyze_log(log)
        assert report.races == []
        assert report.truncated
        assert not report.ok
        assert "dropped" in report.summary()

    def test_race_list_is_capped(self):
        events = []
        for i in range(150):
            events.append(Event(0, "write", ("x", i), PLAIN))
            events.append(Event(1, "write", ("x", i), PLAIN))
        report = analyze_log(_log(events))
        assert len(report.races) == report.MAX_RACES
        assert report.races_truncated
        assert "elided" in report.summary()


class TestCollectionMachinery:
    def test_tag_worker_scopes_the_id_to_each_step(self):
        seen = []

        def task():
            seen.append(current_worker())
            yield
            seen.append(current_worker())

        wrapped = tag_worker(task(), 9)
        assert current_worker() is None
        next(wrapped)
        assert current_worker() is None  # cleared at the yield point
        with pytest.raises(StopIteration):
            next(wrapped)
        assert seen == [9, 9]

    def test_emit_without_worker_is_dropped(self):
        log = EventLog()
        log.read("x", 0)
        assert log.events == []

    def test_close_stops_recording(self):
        log = EventLog()

        def task():
            log.write("x", 0)
            yield

        gen = tag_worker(task(), 0)
        log.close()
        next(gen)
        assert log.events == []

    def test_capacity_counts_drops(self):
        log = EventLog(capacity=2)

        def task():
            for _ in range(5):
                log.write("x", 0)
            yield

        next(tag_worker(task(), 0))
        assert len(log.events) == 2
        assert log.dropped == 3

    def test_tracing_array_records_and_delegates(self):
        data = np.arange(4, dtype=np.int64)
        log = EventLog()
        proxy = TracingArray(data, log, "arr")

        def task():
            proxy[2] = 41
            _ = proxy[2]
            yield

        next(tag_worker(task(), 3))
        assert data[2] == 41
        assert len(proxy) == 4
        kinds = [(e.kind, e.loc, e.worker) for e in log.events]
        assert kinds == [("write", ("arr", 2), 3), ("read", ("arr", 2), 3)]

    def test_unwrap_returns_the_raw_array(self):
        data = np.zeros(2)
        proxy = TracingArray(data, EventLog(), "arr")
        assert unwrap(proxy) is data
        assert unwrap(data) is data

    def test_tracing_list_wraps_adj(self):
        log = EventLog()
        proxy = TracingList([None, {1: 2.0}], log, "adj")

        def task():
            _ = proxy[1]
            proxy[0] = {}
            yield

        next(tag_worker(task(), 0))
        assert [e.kind for e in log.events] == ["read", "write"]


def _broken_worker(state, atoms, chunk, sink, stats, *,
                   merge_threshold=0.0, max_attempts=100):
    """Algorithm 3 worker with one mutation: the ``sibling`` link is
    written *after* the CAS, outside the release that publishes it —
    the exact bug class the detector exists to catch."""
    m = state.total_weight
    two_m = 2.0 * m
    dest = state.dest
    sibling = state.sibling
    pending = deque((int(u), 0) for u in chunk)
    while pending:
        u, attempts = pending.popleft()
        yield
        degree_u = atoms.swap_degree(u, INVALID_DEGREE)
        yield
        neighbors = list(aggregate_vertex(state, u, stats).items())
        neighbors.pop()  # the self-loop key u
        best_v = -1
        best_dq = -np.inf
        penalty = degree_u / (two_m * two_m)
        inv_2m = 1.0 / two_m
        for v, w in neighbors:
            yield
            d_v = atoms.load_degree(v)
            if d_v == INVALID_DEGREE:
                continue
            dq = 2.0 * (w * inv_2m - d_v * penalty)
            if dq > best_dq:
                best_dq = dq
                best_v = v
        if not (best_v >= 0 and best_dq > merge_threshold):
            atoms.store_degree(u, degree_u)
            sink.append(u)
            stats.toplevels += 1
            continue
        yield
        d_v, child_v = atoms.load(best_v)
        if d_v == INVALID_DEGREE:
            atoms.store_degree(u, degree_u)
            stats.retries += 1
            if attempts < max_attempts:
                pending.append((u, attempts + 1))
            else:
                sink.append(u)
                stats.toplevels += 1
            continue
        yield
        if atoms.cas(best_v, (d_v, child_v), (d_v + degree_u, u)):
            sibling[u] = child_v  # BUG: post-CAS, unpublished write
            dest[u] = best_v
            stats.merges += 1
            continue
        atoms.store_degree(u, degree_u)
        stats.retries += 1
        if attempts < max_attempts:
            pending.append((u, attempts + 1))
        else:
            sink.append(u)
            stats.toplevels += 1


def _traced_run(graph, seed, *, fault_plan=None):
    """The real driver, race-traced, over chunks of 8 at four threads;
    returns the race report."""
    res = community_detection_par(
        graph, scheduler_seed=seed, chunk_size=8, num_threads=4,
        detect_races=True, fault_plan=fault_plan,
    )
    return res.race_report


class TestMutationFixture:
    """The detector separates the correct protocol from a broken one."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(6, edge_factor=4, rng=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_correct_worker_is_race_free(self, graph, seed):
        report = _traced_run(graph, seed)
        assert report.ok
        assert report.races == []
        assert report.sync_operations > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_broken_worker_is_flagged(self, graph, seed, monkeypatch):
        monkeypatch.setattr(repro.rabbit.par, "_worker", _broken_worker)
        report = _traced_run(graph, seed)
        assert len(report.races) >= 1
        assert any(r.loc[0] == "sibling" for r in report.races)

    def test_faulty_atomics_stay_clean(self, graph):
        # FaultyAtomicPairArray under the interleaving scheduler: forced
        # CAS failures and spurious invalidations exercise the rollback
        # paths but must introduce no unsynchronised access.
        plan = FaultPlan(
            seed=11, cas_failure_rate=0.4,
            spurious_invalid_rate=0.1, spurious_window=4,
        )
        report = _traced_run(graph, 11, fault_plan=plan)
        assert report.ok
        assert report.races == []


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(6, edge_factor=4, rng=3)

    def test_off_by_default(self, graph):
        res = community_detection_par(graph, scheduler_seed=0)
        assert res.race_report is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleave_executor_clean(self, graph, seed):
        res = community_detection_par(
            graph, scheduler_seed=seed, detect_races=True, audit=True
        )
        report = res.race_report
        assert report is not None and report.ok
        assert report.events_processed > 0
        assert report.relaxed_accesses > 0  # dest traffic was logged

    def test_result_identical_with_detection_on(self, graph):
        plain = community_detection_par(graph, scheduler_seed=5)
        traced = community_detection_par(
            graph, scheduler_seed=5, detect_races=True
        )
        np.testing.assert_array_equal(
            plain.dendrogram.ordering(), traced.dendrogram.ordering()
        )

    def test_chaos_fault_plan_clean(self, graph):
        plan = FaultPlan(
            seed=2, cas_failure_rate=0.4, spurious_invalid_rate=0.1,
            spurious_window=4, stall_rate=0.03, stall_steps=40,
            max_stalls=12, crash_rate=0.015, max_crashes=3,
        )
        res = community_detection_par(
            graph, scheduler_seed=2, fault_plan=plan,
            detect_races=True, audit=True,
        )
        assert res.race_report is not None and res.race_report.ok


class TestStressIntegration:
    def test_fifty_seeds_clean(self):
        from repro.experiments.stress import DEFAULT_CASES, run_stress

        report = run_stress(
            scale=5, num_seeds=50, cases=(DEFAULT_CASES[0],),
            detect_races=True,
        )
        assert report.ok, report.table()
        assert len(report.outcomes) == 50
        assert all(o.races == 0 for o in report.outcomes)
        assert "race detection on" in report.graph_desc

    def test_race_failures_fail_the_cell(self, monkeypatch):
        import repro.experiments.stress as stress_mod
        from repro.check.races import Race, RaceReport

        class FakeResult:
            def __init__(self, inner):
                self.__dict__.update(inner.__dict__)
                self.race_report = RaceReport(
                    races=[Race(("sibling", 1), 0, "write", "plain",
                                1, "read", "plain")]
                )

        real = stress_mod.community_detection_par
        monkeypatch.setattr(
            stress_mod,
            "community_detection_par",
            lambda *a, **k: FakeResult(real(*a, **k)),
        )
        report = stress_mod.run_stress(
            scale=4, num_seeds=1,
            cases=(stress_mod.DEFAULT_CASES[0],), detect_races=True,
        )
        assert not report.ok
        assert report.outcomes[0].races == 1
        assert "race" in (report.outcomes[0].error or "")
