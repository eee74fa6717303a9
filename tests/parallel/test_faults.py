"""Fault injection: plans, faulty atomics, stall/crash scheduling."""

import numpy as np
import pytest

from repro.errors import FaultInjectionError, LivelockError, SchedulerError
from repro.parallel.atomics import INVALID_DEGREE, OpCounter
from repro.parallel.faults import (
    CONTINUE,
    CRASH,
    STALL,
    FaultInjector,
    FaultPlan,
    FaultyAtomicPairArray,
)
from repro.parallel.scheduler import InterleavingScheduler


class TestFaultPlan:
    @pytest.mark.parametrize("kwargs", [
        {"cas_failure_rate": -0.1},
        {"cas_failure_rate": 1.5},
        {"spurious_invalid_rate": 2.0},
        {"stall_rate": -1.0},
        {"crash_rate": 1.01},
        {"stall_steps": -1},
        {"max_crashes": -2},
        {"spurious_window": -3},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)

    def test_default_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.injects_anything
        injector = FaultInjector(plan)
        assert not injector.force_cas_failure()
        assert not injector.spurious_invalid(0)
        assert injector.schedule_action() == CONTINUE
        assert injector.counters.snapshot() == {
            "forced_cas_failures": 0,
            "spurious_invalid_reads": 0,
            "stalls": 0,
            "crashes": 0,
        }


class TestFaultyAtomics:
    def test_forced_cas_failure_total(self):
        injector = FaultInjector(FaultPlan(cas_failure_rate=1.0))
        atoms = FaultyAtomicPairArray(
            np.array([2.0, 3.0]), injector, OpCounter()
        )
        assert not atoms.cas(0, (2.0, -1), (5.0, 1))
        # The record must be untouched — the failure is a lie, not a write.
        assert atoms.load(0) == (2.0, -1)
        assert atoms.counter.cas_failure == 1
        assert atoms.counter.cas_success == 0
        assert injector.counters.forced_cas_failures == 1

    def test_cas_succeeds_when_disabled(self):
        injector = FaultInjector(FaultPlan(cas_failure_rate=1.0))
        atoms = FaultyAtomicPairArray(np.array([2.0]), injector)
        injector.disable()
        assert atoms.cas(0, (2.0, -1), (5.0, 1))
        assert atoms.load(0) == (5.0, 1)

    def test_spurious_invalid_window(self):
        injector = FaultInjector(
            FaultPlan(spurious_invalid_rate=1.0, spurious_window=3)
        )
        atoms = FaultyAtomicPairArray(np.array([7.0]), injector)
        # rate 1.0: every read lies, and the stored value never changes.
        for _ in range(5):
            assert atoms.load_degree(0) == INVALID_DEGREE
        injector.disable()
        assert atoms.load_degree(0) == 7.0

    def test_spurious_window_bookkeeping(self):
        injector = FaultInjector(
            FaultPlan(spurious_invalid_rate=1.0, spurious_window=3)
        )
        atoms = FaultyAtomicPairArray(np.array([7.0, 9.0]), injector)
        assert atoms.load_degree(0) == INVALID_DEGREE  # opens a window
        assert injector._windows[0] == 2  # two in-window reads remain
        assert atoms.load_degree(0) == INVALID_DEGREE
        assert injector._windows[0] == 1
        # Windows are per-vertex: vertex 1 opens its own.
        assert atoms.load_degree(1) == INVALID_DEGREE
        assert injector._windows[1] == 2
        assert injector.counters.spurious_invalid_reads == 3

    def test_load_pair_reports_invalid_degree_but_true_child(self):
        injector = FaultInjector(FaultPlan(spurious_invalid_rate=1.0))
        atoms = FaultyAtomicPairArray(np.array([7.0]), injector)
        degree, child = atoms.load(0)
        assert degree == INVALID_DEGREE
        assert child == -1


def counting_task(log, name, steps):
    for i in range(steps):
        log.append((name, i))
        yield


class TestSchedulerFaults:
    def test_crash_abandons_task(self):
        log = []
        injector = FaultInjector(FaultPlan(seed=0, crash_rate=1.0, max_crashes=1))
        sched = InterleavingScheduler(seed=0, faults=injector)
        sched.run([counting_task(log, "a", 5), counting_task(log, "b", 5)])
        assert sched.crashed_tasks == 1
        assert injector.counters.crashes == 1
        names = {n for n, _ in log}
        # Exactly one task ran to completion, the other never stepped.
        assert len(names) == 1
        assert len(log) == 5

    def test_stall_delays_but_everything_finishes(self):
        log = []
        injector = FaultInjector(
            FaultPlan(seed=1, stall_rate=0.3, stall_steps=7, max_stalls=5)
        )
        sched = InterleavingScheduler(seed=1, faults=injector)
        sched.run([counting_task(log, n, 4) for n in "abc"])
        assert sorted(log) == [(n, i) for n in "abc" for i in range(4)]
        assert injector.counters.stalls > 0
        # Stalled steps burn scheduling steps.
        assert sched.steps_taken > 3 * 4

    def test_faulty_loop_replays(self):
        def run():
            log = []
            injector = FaultInjector(
                FaultPlan(seed=5, stall_rate=0.2, stall_steps=3,
                          crash_rate=0.05, max_crashes=2)
            )
            InterleavingScheduler(seed=9, faults=injector).run(
                [counting_task(log, n, 6) for n in "abcd"]
            )
            return log

        assert run() == run()

    def test_livelock_raises_livelock_error(self):
        def forever():
            while True:
                yield

        sched = InterleavingScheduler(seed=0, max_steps=100)
        with pytest.raises(LivelockError):
            sched.run([forever()])

    def test_livelock_error_is_scheduler_error(self):
        """Back-compat: callers catching SchedulerError still catch it."""
        def forever():
            while True:
                yield

        with pytest.raises(SchedulerError):
            InterleavingScheduler(seed=0, max_steps=100).run([forever()])

    def test_faulty_loop_livelock_guard(self):
        def forever():
            while True:
                yield

        injector = FaultInjector(FaultPlan(seed=0, stall_rate=0.1))
        sched = InterleavingScheduler(seed=0, max_steps=100, faults=injector)
        with pytest.raises(LivelockError):
            sched.run([forever()])
