"""Cooperative cancellation and progress heartbeats.

The supervisor cannot preempt an engine loop; instead the sequential
engines *cooperate*: the dict engine calls :func:`heartbeat` once per
decided vertex, the compiled sweep once per library call with the
number of vertices that call decided.  When no :class:`RunControl` is
installed (the normal, unsupervised case) a heartbeat is a single
module-global read and a ``None`` test — the hot paths pay essentially
nothing.  Under a supervisor, each beat

1. increments the ``resilience.progress`` counter in the process-wide
   :mod:`repro.obs.metrics` registry (the progress the run report
   prints), and
2. checks the control's cancel flag, raising the stored
   :class:`~repro.errors.AttemptAbortedError` subclass if the watchdog
   (or a budget) has cancelled the attempt.

Cancellation is delivered at the next heartbeat on *every* thread that
beats, so any number of beating threads unwind promptly once the
watchdog cancels.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import AttemptAbortedError
from repro.obs.metrics import Counter, get_registry

__all__ = ["RunControl", "current_control", "heartbeat", "PROGRESS_COUNTER"]

#: Metrics counter fed by heartbeats; the run report prints its progress.
PROGRESS_COUNTER = "resilience.progress"


class RunControl:
    """Shared cancel/progress channel between a supervisor and the
    engine threads of one attempt."""

    def __init__(self, counter: Counter | None = None):
        self._cancelled = False
        self._reason: AttemptAbortedError | None = None
        self._counter = (
            counter if counter is not None else get_registry().counter(PROGRESS_COUNTER)
        )
        # The registry counter is process-wide and survives across
        # attempts; progress is measured relative to this control's birth.
        self._baseline = self._counter.value
        # Supervisor plumbing, not algorithm state: guards the cancel
        # reason against a racing watchdog; never held across an
        # algorithmic atomic operation.
        self._lock = threading.Lock()

    # -- supervisor side ------------------------------------------------
    def cancel(self, reason: AttemptAbortedError) -> None:
        """Request cooperative abort; the first reason wins."""
        with self._lock:
            if not self._cancelled:
                self._reason = reason
                self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def progress(self) -> float:
        """Units beaten since this control was created."""
        return self._counter.value - self._baseline

    # -- engine side ----------------------------------------------------
    def beat(self, units: int = 1) -> None:
        if units:
            self._counter.inc(units)
        if self._cancelled:
            with self._lock:
                reason = self._reason
            raise reason if reason is not None else AttemptAbortedError(
                "attempt cancelled"
            )

    @contextmanager
    def installed(self) -> Iterator["RunControl"]:
        """Make this control the process-wide heartbeat target for the
        duration of the block (restoring the previous one after)."""
        global _CONTROL
        prev = _CONTROL
        _CONTROL = self
        try:
            yield self
        finally:
            _CONTROL = prev


_CONTROL: RunControl | None = None


def current_control() -> RunControl | None:
    """The installed :class:`RunControl`, or ``None`` outside a
    supervised attempt."""
    return _CONTROL


def heartbeat(units: int = 1) -> None:
    """Engine progress beat: report *units* decided vertices and honour
    a pending cancellation.  Near-free when unsupervised."""
    control = _CONTROL
    if control is not None:
        control.beat(units)
