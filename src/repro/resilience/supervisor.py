"""Run supervision: budgets, a budget watchdog, degradation ladder.

A :class:`RunSupervisor` executes one logical computation through the
rungs of a :class:`~repro.resilience.policy.SupervisorPolicy` ladder of
sequential engines.  Each attempt runs under an installed
:class:`~repro.resilience.runtime.RunControl` while a daemon *watchdog*
thread polls two signals every ``poll_interval_s``:

* **wall clock** — elapsed attempt time against ``Budgets.time_s``;
* **RSS** — resident set size (``/proc/self/status`` ``VmRSS``, falling
  back to ``ru_maxrss``) against ``Budgets.rss_bytes``.

A tripped budget cancels the attempt *cooperatively*: the watchdog can
only deliver the abort at the engine's next heartbeat (once per vertex
on the dict engine, once per library call on the compiled sweep).  The
heartbeats also feed the ``resilience.progress`` counter the run report
prints.

Each rung runs once; a failed attempt degrades at once to the next rung
of the ladder (default ``fastseq → dict``).  When the policy carries a
checkpoint directory, every attempt resumes from the newest loadable
checkpoint — work done by an aborted rung is *kept*, because the
snapshot schema is engine-agnostic.  With ``final_rung_unbudgeted`` (the
default) the last rung runs without budgets, so the ladder guarantees a
valid result even under an exhausted time budget.

The outcome is a structured :class:`RunReport`, also exported through
:mod:`repro.obs.trace` as a ``resilience.run`` span with one
``resilience.attempt`` child per attempt.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import AttemptAbortedError, BudgetExceededError, ReproError
from repro.obs.trace import span
from repro.resilience.checkpoint import latest_checkpoint
from repro.resilience.policy import Budgets, LadderRung, SupervisorPolicy
from repro.resilience.runtime import RunControl

__all__ = [
    "RunAttempt",
    "RunReport",
    "RunSupervisor",
    "current_rss_bytes",
    "supervised_rabbit_order",
]


def current_rss_bytes() -> int | None:
    """Current resident set size of this process, in bytes.

    Reads ``VmRSS`` from ``/proc/self/status`` (Linux); falls back to
    ``ru_maxrss`` (the *peak*, still a valid ceiling signal) where /proc
    is unavailable; returns ``None`` if neither source works.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):
        return None


class _Watchdog:
    """Daemon thread enforcing one attempt's budgets via cooperative
    cancellation (see module docstring)."""

    def __init__(self, control: RunControl, budgets: Budgets):
        self.control = control
        self.budgets = budgets
        #: highest RSS sampled during the attempt (bytes; 0 = never read)
        self.rss_peak = 0
        #: which budget tripped: "time" | "rss" | None
        self.trigger: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._poll, name="repro-watchdog", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _poll(self) -> None:
        budgets = self.budgets
        control = self.control
        start = time.monotonic()
        while not self._stop.wait(budgets.poll_interval_s):
            now = time.monotonic()
            rss = current_rss_bytes()
            if rss is not None and rss > self.rss_peak:
                self.rss_peak = rss
            if budgets.time_s is not None and now - start > budgets.time_s:
                self.trigger = "time"
                control.cancel(
                    BudgetExceededError(
                        f"wall-clock budget exhausted: {now - start:.2f}s "
                        f"elapsed, budget {budgets.time_s}s"
                    )
                )
                return
            if (
                budgets.rss_bytes is not None
                and rss is not None
                and rss > budgets.rss_bytes
            ):
                self.trigger = "rss"
                control.cancel(
                    BudgetExceededError(
                        f"memory budget exhausted: RSS {rss} bytes, "
                        f"budget {budgets.rss_bytes} bytes"
                    )
                )
                return


@dataclass
class RunAttempt:
    """The attempt of one ladder rung, as recorded by the supervisor."""

    index: int
    rung: str
    outcome: str  # "ok" | "aborted" | "error"
    duration_s: float
    progress_units: float
    error: str | None = None
    #: watchdog budget that tripped ("time" | "rss"), if any
    trigger: str | None = None
    rss_peak_bytes: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "rung": self.rung,
            "outcome": self.outcome,
            "duration_s": self.duration_s,
            "progress_units": self.progress_units,
            "error": self.error,
            "trigger": self.trigger,
            "rss_peak_bytes": self.rss_peak_bytes,
        }


@dataclass
class RunReport:
    """Structured outcome of a supervised run."""

    attempts: tuple[RunAttempt, ...]
    success: bool
    final_rung: str | None
    duration_s: float
    #: whatever the successful attempt returned (None on failure)
    result: Any = field(default=None, repr=False)

    @property
    def degradations(self) -> int:
        """Distinct rungs tried beyond the first."""
        return len({a.rung for a in self.attempts}) - 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "success": self.success,
            "final_rung": self.final_rung,
            "duration_s": self.duration_s,
            "degradations": self.degradations,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    def summary(self) -> str:
        lines = [
            f"supervised run: {'ok' if self.success else 'FAILED'} "
            f"on rung {self.final_rung!r} after {len(self.attempts)} "
            f"attempt(s), {self.duration_s:.2f}s"
        ]
        for a in self.attempts:
            detail = a.error or ""
            if a.trigger:
                detail = f"[{a.trigger}] {detail}"
            lines.append(
                f"  #{a.index} {a.rung:<15} {a.outcome:<8} "
                f"{a.duration_s:7.2f}s  {a.progress_units:10.0f} units  "
                f"{detail}".rstrip()
            )
        return "\n".join(lines)


class RunSupervisor:
    """Execute ``attempt_fn`` through the policy's ladder (see module
    docstring).

    ``attempt_fn(rung)`` is called once per rung with the active
    :class:`~repro.resilience.policy.LadderRung`, under an installed
    :class:`~repro.resilience.runtime.RunControl` and (when budgeted) a
    live watchdog.  It should raise
    :class:`~repro.errors.AttemptAbortedError` subclasses for budget
    aborts (the heartbeat does this automatically) — any
    :class:`~repro.errors.ReproError` also degrades the ladder; other
    exceptions (genuine bugs) propagate immediately.
    """

    def __init__(self, policy: SupervisorPolicy | None = None):
        self.policy = policy if policy is not None else SupervisorPolicy()

    def run(self, attempt_fn: Callable[[LadderRung], Any]) -> RunReport:
        """Run through the ladder; return a :class:`RunReport` whose
        ``result`` is the first successful attempt's return value.

        If every attempt fails, the last failure is re-raised with the
        report attached as ``exc.run_report``.
        """
        policy = self.policy
        attempts: list[RunAttempt] = []
        last_error: Exception | None = None
        run_start = time.monotonic()
        ladder = policy.ladder
        with span("resilience.run", rungs=len(ladder)) as run_span:
            for index, rung in enumerate(ladder):
                final = index == len(ladder) - 1
                budgets = (
                    Budgets()
                    if final and policy.final_rung_unbudgeted
                    else policy.budgets
                )
                control = RunControl()
                watchdog = (
                    None if budgets.unlimited else _Watchdog(control, budgets)
                )
                attempt_start = time.monotonic()
                outcome, error, result = "ok", None, None
                try:
                    with control.installed():
                        if watchdog is not None:
                            watchdog.start()
                        with span(
                            "resilience.attempt",
                            rung=rung.name,
                            index=index,
                            budgeted=not budgets.unlimited,
                        ):
                            result = attempt_fn(rung)
                except AttemptAbortedError as exc:
                    outcome, error, last_error = "aborted", exc, exc
                except ReproError as exc:
                    outcome, error, last_error = "error", exc, exc
                finally:
                    if watchdog is not None:
                        watchdog.stop()
                attempts.append(RunAttempt(
                    index=index,
                    rung=rung.name,
                    outcome=outcome,
                    duration_s=time.monotonic() - attempt_start,
                    progress_units=float(control.progress),
                    error=None if error is None else str(error),
                    trigger=None if watchdog is None else watchdog.trigger,
                    rss_peak_bytes=(
                        None
                        if watchdog is None or not watchdog.rss_peak
                        else watchdog.rss_peak
                    ),
                ))
                if outcome == "ok":
                    report = RunReport(
                        attempts=tuple(attempts),
                        success=True,
                        final_rung=rung.name,
                        duration_s=time.monotonic() - run_start,
                        result=result,
                    )
                    run_span.set(
                        success=True,
                        final_rung=rung.name,
                        attempts=len(attempts),
                        degradations=report.degradations,
                    )
                    return report
            report = RunReport(
                attempts=tuple(attempts),
                success=False,
                final_rung=ladder[-1].name,
                duration_s=time.monotonic() - run_start,
            )
            run_span.set(
                success=False,
                final_rung=ladder[-1].name,
                attempts=len(attempts),
                degradations=report.degradations,
            )
        assert last_error is not None  # every recorded failure stored one
        last_error.run_report = report  # type: ignore[attr-defined]
        raise last_error


def supervised_rabbit_order(
    graph,
    *,
    policy: SupervisorPolicy | None = None,
    merge_threshold: float = 0.0,
):
    """Supervised :func:`~repro.rabbit.order.rabbit_order`.

    Maps each ladder rung onto the entry point's ``engine`` and, when the
    policy carries a checkpoint directory, threads
    ``checkpoint=``/``resume=`` through every attempt so a degraded rung
    continues from the aborted rung's last snapshot instead of starting
    over.  Every rung computes the same permutation.

    Returns ``(RabbitResult, RunReport)``.
    """
    # Lazy import: this module is re-exported by repro.resilience, which
    # the engines themselves import for checkpoint support.
    from repro.rabbit.order import rabbit_order

    policy = policy if policy is not None else SupervisorPolicy()
    checkpoint = policy.checkpoint

    def attempt(rung: LadderRung):
        resume = None
        if checkpoint is not None:
            directory = Path(checkpoint.directory)
            found = latest_checkpoint(directory) if directory.is_dir() else None
            if found is not None:
                resume = found[1]
        return rabbit_order(
            graph,
            engine=rung.engine,
            merge_threshold=merge_threshold,
            checkpoint=checkpoint,
            resume=resume,
        )

    report = RunSupervisor(policy).run(attempt)
    return report.result, report
