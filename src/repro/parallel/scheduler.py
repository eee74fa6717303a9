"""Seeded interleaving model for the lock-free algorithms.

Algorithm 3's worker logic is written once, as a *generator* that yields
control at every atomic-operation boundary.  :class:`InterleavingScheduler`
drives such generators on a single OS thread with seeded pseudo-random
scheduling: at every step one runnable task is chosen and advanced to its
next yield point.  Because yields bracket the atomic operations, this
explores exactly the interleavings that matter for the CAS protocol, and
any schedule can be replayed from its seed.  Performance at a given
thread count is *projected* by :mod:`repro.parallel.costmodel` from the
work/contention counters the model records, not from wall time.

A task generator may yield either ``None`` (a pure scheduling point) or a
new generator (a "spawned" subtask, appended to the runnable set).
:func:`drive` runs one generator to completion (the crash-recovery
fallback pass).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Iterable

import numpy as np

from repro.errors import LivelockError
from repro.obs.metrics import get_registry
from repro.parallel.faults import CRASH, STALL

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.parallel.faults import FaultInjector

__all__ = ["InterleavingScheduler", "drive"]

TaskGen = Generator


def drive(gen: TaskGen) -> None:
    """Run a task generator to completion on the current thread."""
    for spawned in gen:
        if spawned is not None:
            drive(spawned)


class InterleavingScheduler:
    """Deterministic pseudo-random interleaving of cooperative tasks.

    Parameters
    ----------
    seed:
        seed for the schedule; the same seed replays the same interleaving
        for the same task set.
    max_steps:
        safety valve: raise :class:`LivelockError` if the task set does
        not quiesce within this many scheduling steps (catches livelock in
        retry loops).
    faults:
        optional :class:`~repro.parallel.faults.FaultInjector`, consulted
        once per scheduling step: the drawn task may be stalled for
        ``plan.stall_steps`` steps or crashed (abandoned mid-flight,
        never resumed).  ``None`` skips the hook, and the schedule draws
        are the same either way.
    """

    def __init__(
        self,
        seed: int | None = 0,
        max_steps: int = 50_000_000,
        faults: "FaultInjector | None" = None,
    ):
        self._rng = np.random.default_rng(seed)
        self._max_steps = max_steps
        self._faults = faults
        self.steps_taken = 0
        #: number of tasks abandoned by injected crashes in the last run
        self.crashed_tasks = 0

    def run(self, tasks: Iterable[TaskGen], *, window: int | None = None) -> None:
        """Interleave *tasks* until all complete.

        ``window`` bounds how many tasks are live at once (the rest are
        admitted in order as slots free up) — modelling a machine with
        that many hardware threads.  ``None`` makes every task live
        immediately (maximal adversarial interleaving).

        Each step draws one task; with a fault injector, the draw is
        followed by the injector's decision for that task, so a given
        ``(seed, plan)`` pair replays exactly.  A stalled task keeps its
        hardware-thread slot but burns steps; a crashed task is dropped
        without cleanup, exactly like a worker dying mid-critical-section.
        """
        faults = self._faults
        pending: deque[TaskGen] = deque(tasks)
        runnable: list[TaskGen] = []
        stalled: list[int] = []  # per-task remaining frozen steps
        limit = len(pending) if window is None else max(1, window)
        steps = 0
        self.crashed_tasks = 0
        while runnable or pending:
            while pending and len(runnable) < limit:
                runnable.append(pending.popleft())
                stalled.append(0)
            idx = int(self._rng.integers(0, len(runnable)))
            steps += 1
            if steps > self._max_steps:
                raise LivelockError(
                    f"tasks did not quiesce within {self._max_steps} steps; "
                    "likely a livelock in a retry loop"
                )
            done = False
            if faults is not None:
                if stalled[idx] > 0:
                    stalled[idx] -= 1
                    continue
                action = faults.schedule_action()
                if action == STALL:
                    stalled[idx] = faults.plan.stall_steps
                    continue
                if action == CRASH:
                    # Abandon without close(): a crash runs no cleanup.
                    self.crashed_tasks += 1
                    done = True
            if not done:
                try:
                    spawned = next(runnable[idx])
                except StopIteration:
                    done = True
                else:
                    if spawned is not None:
                        pending.append(spawned)
            if done:
                # Swap-remove keeps the step O(1).
                runnable[idx] = runnable[-1]
                stalled[idx] = stalled[-1]
                runnable.pop()
                stalled.pop()
        self.steps_taken = steps
        registry = get_registry()
        registry.counter("scheduler.interleave.runs").inc()
        registry.counter("scheduler.interleave.steps").inc(steps)
        if faults is not None:
            registry.counter("scheduler.interleave.crashed_tasks").inc(
                self.crashed_tasks
            )
