"""Seed-replayable fault injection for the lock-free aggregation pipeline.

The paper's correctness argument for Algorithm 3 is that the CAS + lazy
aggregation protocol tolerates *arbitrary* interleavings.  This module
turns that claim into something machine-checkable: a :class:`FaultPlan`
describes a hostile environment —

* **forced CAS failures** — ``cas`` returns False even when the record
  matched, exercising the rollback/retry path at any rate up to 100%;
* **spurious degree-invalidation windows** — ``load_degree``/``load``
  report ``INVALID_DEGREE`` for a vertex for a bounded window of reads,
  modelling a reader racing a long-running invalidation;
* **worker stalls** — a task is frozen for *k* scheduling steps while the
  rest of the system keeps mutating shared state around it;
* **worker crashes** — a task is abandoned mid-merge and never runs
  again, leaving invalidated vertices and partial ``sibling``/``dest``
  writes for crash recovery (:mod:`repro.rabbit.par`) to repair.

A plan is pure data; the runtime state lives in :class:`FaultInjector`,
whose RNG is seeded from the plan so any schedule is replayable under the
deterministic :class:`~repro.parallel.scheduler.InterleavingScheduler`.
The hooks are opt-in at construction time: without a plan the driver
builds the unfaulted :class:`~repro.parallel.atomics.AtomicPairArray`
and the scheduler skips its per-step fault hook, so an unfaulted run
pays one ``None`` test per scheduling step for this machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultInjectionError
from repro.parallel.atomics import INVALID_DEGREE, AtomicPairArray, OpCounter

__all__ = [
    "CONTINUE",
    "STALL",
    "CRASH",
    "FaultPlan",
    "FaultCounters",
    "FaultInjector",
    "FaultyAtomicPairArray",
]

#: Scheduling actions returned by :meth:`FaultInjector.schedule_action`.
CONTINUE = "continue"
STALL = "stall"
CRASH = "crash"


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seed-replayable description of injected faults.

    All rates are per-opportunity probabilities: ``cas_failure_rate`` per
    CAS attempt, ``spurious_invalid_rate`` per atomic degree read, and
    ``stall_rate``/``crash_rate`` per scheduling step of a live task.
    Caps (``max_crashes``, ``max_stalls``) bound the total disruption so a
    high rate cannot silently kill every worker.
    """

    seed: int = 0
    #: probability a matching CAS is forced to fail anyway
    cas_failure_rate: float = 0.0
    #: probability a degree read opens a spurious-invalidation window
    spurious_invalid_rate: float = 0.0
    #: reads (per vertex) for which an opened window keeps reporting invalid
    spurious_window: int = 4
    #: probability a task is stalled at a scheduling point
    stall_rate: float = 0.0
    #: scheduling steps a stalled task stays frozen
    stall_steps: int = 10
    #: cap on injected stalls
    max_stalls: int = 16
    #: probability a task crashes (is abandoned) at a scheduling point
    crash_rate: float = 0.0
    #: cap on crashed workers
    max_crashes: int = 1

    def __post_init__(self) -> None:
        for name in ("cas_failure_rate", "spurious_invalid_rate",
                     "stall_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        for name in ("spurious_window", "stall_steps", "max_stalls",
                     "max_crashes"):
            value = getattr(self, name)
            if value < 0:
                raise FaultInjectionError(
                    f"{name} must be non-negative, got {value}"
                )

    @property
    def injects_anything(self) -> bool:
        return (
            self.cas_failure_rate > 0.0
            or self.spurious_invalid_rate > 0.0
            or self.stall_rate > 0.0
            or self.crash_rate > 0.0
        )


@dataclass
class FaultCounters:
    """Tally of faults actually injected during a run."""

    forced_cas_failures: int = 0
    spurious_invalid_reads: int = 0
    stalls: int = 0
    crashes: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "forced_cas_failures": self.forced_cas_failures,
            "spurious_invalid_reads": self.spurious_invalid_reads,
            "stalls": self.stalls,
            "crashes": self.crashes,
        }


class FaultInjector:
    """Runtime state of a :class:`FaultPlan`: RNG, windows, counters.

    ``disable()`` turns every hook benign — crash recovery uses it to
    guarantee the sequential fallback pass runs fault-free.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counters = FaultCounters()
        self._rng = np.random.default_rng(plan.seed)
        self._windows: dict[int, int] = {}  # vertex -> remaining invalid reads
        self._enabled = True

    def disable(self) -> None:
        """Stop injecting (recovery/fallback runs with truthful atomics)."""
        self._enabled = False
        self._windows.clear()

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- atomic-layer hooks ---------------------------------------------
    def force_cas_failure(self) -> bool:
        """Decide whether the next CAS must fail regardless of the record."""
        plan = self.plan
        if plan.cas_failure_rate <= 0.0 or not self._enabled:
            return False
        if (plan.cas_failure_rate >= 1.0
                or self._rng.random() < plan.cas_failure_rate):
            self.counters.forced_cas_failures += 1
            return True
        return False

    def spurious_invalid(self, vertex: int) -> bool:
        """Decide whether a degree read of *vertex* reports invalid."""
        plan = self.plan
        if plan.spurious_invalid_rate <= 0.0 or not self._enabled:
            return False
        remaining = self._windows.get(vertex, 0)
        if remaining > 0:
            if remaining == 1:
                del self._windows[vertex]
            else:
                self._windows[vertex] = remaining - 1
            self.counters.spurious_invalid_reads += 1
            return True
        if self._rng.random() < plan.spurious_invalid_rate:
            if plan.spurious_window > 1:
                self._windows[vertex] = plan.spurious_window - 1
            self.counters.spurious_invalid_reads += 1
            return True
        return False

    # -- scheduler hooks ------------------------------------------------
    def schedule_action(self) -> str:
        """Decide the fate of a live task at a scheduling point."""
        plan = self.plan
        if not self._enabled or (
            plan.crash_rate <= 0.0 and plan.stall_rate <= 0.0
        ):
            return CONTINUE
        if (plan.crash_rate > 0.0
                and self.counters.crashes < plan.max_crashes
                and self._rng.random() < plan.crash_rate):
            self.counters.crashes += 1
            return CRASH
        if (plan.stall_rate > 0.0
                and self.counters.stalls < plan.max_stalls
                and self._rng.random() < plan.stall_rate):
            self.counters.stalls += 1
            return STALL
        return CONTINUE


class FaultyAtomicPairArray(AtomicPairArray):
    """An :class:`AtomicPairArray` whose reads and CAS can misbehave.

    Forced CAS failures are indistinguishable from genuine contention to
    the caller (and are counted as ``cas_failure`` in the
    :class:`OpCounter`, so the scalability cost model sees them as
    contention).  Spurious invalidations only affect *reads* — the stored
    record is never corrupted, exactly like a reader racing a transient
    invalidation window.
    """

    def __init__(
        self,
        degrees: np.ndarray,
        injector: FaultInjector,
        counter: OpCounter | None = None,
    ):
        super().__init__(degrees, counter)
        self.injector = injector

    def load(self, i: int) -> tuple[float, int]:
        degree, child = super().load(i)
        if self.injector.spurious_invalid(i):
            return INVALID_DEGREE, child
        return degree, child

    def load_degree(self, i: int) -> float:
        degree = super().load_degree(i)
        if self.injector.spurious_invalid(i):
            return INVALID_DEGREE
        return degree

    def cas(
        self,
        i: int,
        expected: tuple[float, int],
        desired: tuple[float, int],
    ) -> bool:
        if self.injector.force_cas_failure():
            self.counter.cas_failure += 1
            return False
        return super().cas(i, expected, desired)
