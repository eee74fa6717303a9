"""Declarative supervision policy: budgets and ladder.

A :class:`SupervisorPolicy` is pure data — everything the
:class:`~repro.resilience.supervisor.RunSupervisor` does is derived from
it deterministically, so two supervisors given the same policy (and the
same engine outcomes) make the same decisions in the same order:

* :class:`Budgets` — per-attempt wall-clock / RSS ceilings the
  watchdog enforces;
* the **ladder** — an ordered tuple of :class:`LadderRung`\\ s, each one
  sequential engine, tried once in order (default ``fastseq → dict``:
  the production engine, then the reference oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.resilience.checkpoint import CheckpointConfig

__all__ = [
    "Budgets",
    "LadderRung",
    "SupervisorPolicy",
    "default_ladder",
    "parse_ladder",
    "RUNG_NAMES",
]


@dataclass(frozen=True)
class Budgets:
    """Per-attempt resource ceilings (``None`` = unlimited).

    ``poll_interval_s`` is how often the watchdog thread samples the
    clock and RSS.
    """

    time_s: float | None = None
    rss_bytes: int | None = None
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is refused with the rest.
        for name in ("time_s", "rss_bytes"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ReproError(
                    f"budget {name} must be positive and finite, got {value}"
                )
        if not 0 < self.poll_interval_s < math.inf:
            raise ReproError(
                "poll_interval_s must be positive and finite, got "
                f"{self.poll_interval_s}"
            )

    @property
    def unlimited(self) -> bool:
        return self.time_s is None and self.rss_bytes is None


@dataclass(frozen=True)
class LadderRung:
    """One engine configuration on the degradation ladder."""

    name: str
    #: detection engine: "fast" (the compiled sweep) | "dict"
    #: (the reference per-vertex dicts); both give the same permutation
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "dict"):
            raise ReproError(
                f"rung engine must be 'fast' or 'dict', got {self.engine!r}"
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


#: Canonical rung names accepted by :func:`parse_ladder`.
RUNG_NAMES: tuple[str, ...] = tuple(r.name for r in default_ladder())


def parse_ladder(spec: str) -> tuple[LadderRung, ...]:
    """Parse a comma-separated ladder spec (``ServerConfig.ladder_spec``)
    into rungs.

    Example: ``"fastseq,dict"``.  Unknown names raise
    :class:`~repro.errors.ReproError` listing the canonical rungs;
    duplicate names are rejected: each rung runs once, and a rung that
    failed would fail again on the same input.
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
                "rung may appear once"
            )
        seen.add(name)
        rungs.append(by_name[name])
    if not rungs:
        raise ReproError(f"ladder spec {spec!r} selects no rungs")
    return tuple(rungs)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Everything a :class:`~repro.resilience.supervisor.RunSupervisor`
    needs, as pure data.

    ``final_rung_unbudgeted`` (default True) makes the last rung run with
    no budgets and no watchdog: the ladder then *guarantees* a valid
    result — a run whose budget is exhausted degrades all the way down
    and still completes (the acceptance property of this subsystem).
    Set it False to let the ladder fail with the last rung's abort error
    instead.
    """

    budgets: Budgets = field(default_factory=Budgets)
    ladder: tuple[LadderRung, ...] = field(default_factory=default_ladder)
    checkpoint: CheckpointConfig | None = None
    final_rung_unbudgeted: bool = True

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ReproError("supervisor ladder must have at least one rung")
