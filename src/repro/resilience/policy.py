"""Declarative supervision policy: budgets, ladder, backoff, seeds.

A :class:`SupervisorPolicy` is pure data — everything the
:class:`~repro.resilience.supervisor.RunSupervisor` does is derived from
it deterministically, so two supervisors given the same policy (and the
same engine outcomes) make the same decisions in the same order:

* :class:`Budgets` — per-attempt wall-clock / RSS ceilings and the stall
  window the progress watchdog enforces;
* the **ladder** — an ordered tuple of :class:`LadderRung`\\ s, each one
  sequential engine, tried in order (default ``fastseq → dict``: the
  production engine, then the reference oracle);
* :func:`backoff_delays` — capped exponential backoff between attempts
  with *seeded* jitter, so retry timing is replayable instead of
  thundering or flaky;
* :func:`derive_seed` — the one way any resilience component derives a
  sub-seed (per-round scheduler seeds, per-attempt jitter) from a base
  seed plus integer context, via :class:`numpy.random.SeedSequence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.resilience.checkpoint import CheckpointConfig

__all__ = [
    "Budgets",
    "LadderRung",
    "SupervisorPolicy",
    "backoff_delays",
    "default_ladder",
    "derive_seed",
    "parse_ladder",
    "RUNG_NAMES",
]


def derive_seed(base: int, *context: int) -> int:
    """Deterministically derive a sub-seed from *base* and integer
    *context* (round index, attempt number, ...).

    Uses :class:`numpy.random.SeedSequence` spawning semantics so derived
    streams are statistically independent — reusing ``base`` directly for
    every round would replay the same schedule each round.
    """
    entropy = [int(base) & 0xFFFFFFFF] + [int(c) & 0xFFFFFFFF for c in context]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class Budgets:
    """Per-attempt resource ceilings (``None`` = unlimited).

    ``stall_s`` is the progress-watchdog window: if the
    ``resilience.progress`` metrics counter does not move for this many
    seconds the attempt is aborted with
    :class:`~repro.errors.StallError`.  ``poll_interval_s`` is how often
    the watchdog thread samples clocks, RSS, and counters.
    """

    time_s: float | None = None
    rss_bytes: int | None = None
    stall_s: float | None = None
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("time_s", "rss_bytes", "stall_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ReproError(f"budget {name} must be positive, got {value}")
        if self.poll_interval_s <= 0:
            raise ReproError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )

    @property
    def unlimited(self) -> bool:
        return self.time_s is None and self.rss_bytes is None and self.stall_s is None


@dataclass(frozen=True)
class LadderRung:
    """One engine configuration on the degradation ladder."""

    name: str
    #: detection engine: "fast" (the compiled sweep) | "dict"
    #: (the reference per-vertex dicts); both give the same permutation
    engine: str = "fast"
    #: attempts on this rung before degrading to the next
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "dict"):
            raise ReproError(
                f"rung engine must be 'fast' or 'dict', got {self.engine!r}"
            )
        if self.max_attempts < 1:
            raise ReproError(
                f"rung max_attempts must be >= 1, got {self.max_attempts}"
            )


def default_ladder() -> tuple[LadderRung, ...]:
    """The canonical degradation ladder: ``fastseq → dict``.

    The production engine first, then the reference oracle — a
    different implementation of the same computation, so a bug or
    resource blow-up in one does not take the other down with it.  Both
    produce the same permutation, so the result never depends on which
    rung finished the run.
    """
    return (
        LadderRung("fastseq", engine="fast"),
        LadderRung("dict", engine="dict"),
    )


#: Canonical rung names accepted by :func:`parse_ladder` (CLI ``--ladder``).
RUNG_NAMES: tuple[str, ...] = tuple(r.name for r in default_ladder())


def parse_ladder(spec: str) -> tuple[LadderRung, ...]:
    """Parse a comma-separated ``--ladder`` spec into rungs.

    Example: ``"fastseq,dict"``.  Unknown names raise
    :class:`~repro.errors.ReproError` listing the canonical rungs;
    duplicate names are rejected (retrying a rung is ``max_attempts``'s
    job, and a repeated rung would silently skew the backoff schedule).
    """
    by_name = {r.name: r for r in default_ladder()}
    rungs = []
    seen: set[str] = set()
    for token in spec.split(","):
        name = token.strip()
        if not name:
            continue
        if name not in by_name:
            raise ReproError(
                f"unknown ladder rung {name!r}; choose from "
                f"{', '.join(RUNG_NAMES)}"
            )
        if name in seen:
            raise ReproError(
                f"duplicate ladder rung {name!r} in spec {spec!r}; each "
                "rung may appear once (use max_attempts to retry a rung)"
            )
        seen.add(name)
        rungs.append(by_name[name])
    if not rungs:
        raise ReproError(f"ladder spec {spec!r} selects no rungs")
    return tuple(rungs)


def backoff_delays(
    count: int,
    *,
    base_s: float = 0.05,
    cap_s: float = 2.0,
    seed: int = 0,
) -> list[float]:
    """Capped exponential backoff with deterministic seeded jitter.

    Delay *i* is ``min(cap_s, base_s * 2**i)`` scaled by a jitter factor
    in ``[0.5, 1.0)`` drawn from a generator seeded by
    ``derive_seed(seed, i)`` — replayable, and decorrelated across
    attempts so concurrent supervised runs sharing a seed base do not
    retry in lockstep.
    """
    delays = []
    for i in range(count):
        raw = min(cap_s, base_s * (2.0**i))
        jitter = np.random.default_rng(derive_seed(seed, i)).random()
        delays.append(raw * (0.5 + 0.5 * jitter))
    return delays


@dataclass(frozen=True)
class SupervisorPolicy:
    """Everything a :class:`~repro.resilience.supervisor.RunSupervisor`
    needs, as pure data.

    ``final_rung_unbudgeted`` (default True) makes the very last attempt
    of the last rung run with no budgets and no watchdog: the ladder then
    *guarantees* a valid result — a run whose budget is exhausted
    degrades all the way down and still completes (the acceptance
    property of this subsystem).  Set it False to let the ladder fail
    with the final attempt's abort error instead.
    """

    budgets: Budgets = field(default_factory=Budgets)
    ladder: tuple[LadderRung, ...] = field(default_factory=default_ladder)
    checkpoint: CheckpointConfig | None = None
    seed: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    final_rung_unbudgeted: bool = True

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ReproError("supervisor ladder must have at least one rung")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ReproError("backoff base/cap must be non-negative")

    @property
    def total_attempts(self) -> int:
        return sum(r.max_attempts for r in self.ladder)
