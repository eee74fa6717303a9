"""Randomized stress harness: seeds × fault plans over the parallel pipeline.

Each cell of the sweep runs Algorithm 3 on a small R-MAT graph under the
deterministic interleaving scheduler with one (scheduler seed, fault
plan) pair, with ``audit=True`` so every dendrogram invariant is
machine-checked, then cross-checks the counters and the emitted ordering.
Because both the schedule and the injected faults are seeded, any failing
cell is replayable in isolation::

    community_detection_par(g, scheduler_seed=SEED,
                            fault_plan=FaultPlan(seed=SEED, ...), audit=True)

Run from the command line as ``python -m repro stress`` (``--quick`` for
the CI smoke variant).  ``--chaos`` runs :func:`run_chaos` instead: a
SIGKILL-and-resume campaign over the checkpointing sequential engines.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.errors import PermutationError, ReproError
from repro.graph.generators import rmat_graph
from repro.graph.perm import validate_permutation
from repro.obs.metrics import counter_delta, get_registry
from repro.parallel.faults import FaultPlan
from repro.rabbit.par import community_detection_par

__all__ = [
    "StressCase",
    "StressOutcome",
    "StressReport",
    "DEFAULT_CASES",
    "run_stress",
    "ChaosOutcome",
    "ChaosReport",
    "run_chaos",
]


@dataclass(frozen=True)
class StressCase:
    """A named fault-plan template; the plan's RNG seed is re-derived from
    each run's scheduler seed so every cell is an independent scenario."""

    name: str
    plan: FaultPlan | None  # None = fault injection off (baseline)


#: The standard hostile-environment suite, from benign to chaos.
DEFAULT_CASES: tuple[StressCase, ...] = (
    StressCase("baseline", None),
    StressCase("cas-storm", FaultPlan(cas_failure_rate=0.5)),
    StressCase("cas-total", FaultPlan(cas_failure_rate=1.0)),
    StressCase(
        "spurious-invalid",
        FaultPlan(spurious_invalid_rate=0.15, spurious_window=6),
    ),
    StressCase(
        "stalls", FaultPlan(stall_rate=0.05, stall_steps=50, max_stalls=16)
    ),
    StressCase("crashes", FaultPlan(crash_rate=0.02, max_crashes=4)),
    StressCase(
        "chaos",
        FaultPlan(
            cas_failure_rate=0.4,
            spurious_invalid_rate=0.1,
            spurious_window=4,
            stall_rate=0.03,
            stall_steps=40,
            max_stalls=12,
            crash_rate=0.015,
            max_crashes=3,
        ),
    ),
)


@dataclass
class StressOutcome:
    """One (case, seed) cell of the sweep."""

    case: str
    seed: int
    ok: bool
    error: str | None = None
    merges: int = 0
    toplevels: int = 0
    retries: int = 0
    orphans_recovered: int = 0
    partial_repairs: int = 0
    fallback_merges: int = 0
    forced_cas_failures: int = 0
    spurious_invalid_reads: int = 0
    stalls: int = 0
    crashes: int = 0
    races: int = 0


@dataclass
class StressReport:
    """All outcomes of a sweep plus a per-case summary table."""

    graph_desc: str
    outcomes: list[StressOutcome] = field(default_factory=list)
    #: Metrics-registry counter increases attributable to this sweep
    #: (``rabbit.*`` fault/recovery tallies, scheduler totals) — the
    #: registry view of the same story the per-case table tells.
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> list[StressOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def table(self) -> str:
        header = (
            f"{'case':<18} {'runs':>5} {'fail':>5} {'merges':>8} "
            f"{'toplvl':>7} {'retries':>8} {'orphan':>7} {'repair':>7} "
            f"{'fbmerge':>8} {'casfail':>8} {'spur':>6} {'stall':>6} "
            f"{'crash':>6} {'races':>6}"
        )
        lines = [f"stress sweep on {self.graph_desc}", header,
                 "-" * len(header)]
        cases: dict[str, list[StressOutcome]] = {}
        for o in self.outcomes:
            cases.setdefault(o.case, []).append(o)
        for name, rows in cases.items():
            lines.append(
                f"{name:<18} {len(rows):>5} "
                f"{sum(not r.ok for r in rows):>5} "
                f"{sum(r.merges for r in rows):>8} "
                f"{sum(r.toplevels for r in rows):>7} "
                f"{sum(r.retries for r in rows):>8} "
                f"{sum(r.orphans_recovered for r in rows):>7} "
                f"{sum(r.partial_repairs for r in rows):>7} "
                f"{sum(r.fallback_merges for r in rows):>8} "
                f"{sum(r.forced_cas_failures for r in rows):>8} "
                f"{sum(r.spurious_invalid_reads for r in rows):>6} "
                f"{sum(r.stalls for r in rows):>6} "
                f"{sum(r.crashes for r in rows):>6} "
                f"{sum(r.races for r in rows):>6}"
            )
        for o in self.failures:
            lines.append(f"FAILED {o.case} seed={o.seed}: {o.error}")
        if self.metrics:
            lines.append("")
            lines.append("metrics registry (this sweep):")
            for name, value in sorted(self.metrics.items()):
                lines.append(f"  {name:<40} {value:>14.0f}")
        verdict = "all runs passed the audit" if self.ok else (
            f"{len(self.failures)} of {len(self.outcomes)} runs FAILED"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.table()


def _run_cell(
    graph,
    case: StressCase,
    seed: int,
    num_threads: int,
    *,
    detect_races: bool = False,
) -> StressOutcome:
    plan = None if case.plan is None else replace(case.plan, seed=seed)
    outcome = StressOutcome(case=case.name, seed=seed, ok=False)
    try:
        res = community_detection_par(
            graph,
            num_threads=num_threads,
            scheduler_seed=seed,
            fault_plan=plan,
            audit=True,
            detect_races=detect_races,
        )
        if res.race_report is not None:
            outcome.races = len(res.race_report.races)
            if not res.race_report.ok:
                raise ReproError(res.race_report.summary())
        s = res.stats
        outcome.merges = s.merges
        outcome.toplevels = s.toplevels
        outcome.retries = s.retries
        outcome.orphans_recovered = s.orphans_recovered
        outcome.partial_repairs = s.partial_repairs
        outcome.fallback_merges = s.fallback_merges
        if res.fault_counters is not None:
            c = res.fault_counters
            outcome.forced_cas_failures = c.forced_cas_failures
            outcome.spurious_invalid_reads = c.spurious_invalid_reads
            outcome.stalls = c.stalls
            outcome.crashes = c.crashes
        # Cross-checks beyond the auditor: the pipeline's end products.
        res.dendrogram.validate()
        if s.merges + s.toplevels != graph.num_vertices:
            raise ReproError(
                f"counter mismatch: {s.merges} merges + {s.toplevels} "
                f"toplevels != {graph.num_vertices} vertices"
            )
        outcome.ok = True
    except (ReproError, PermutationError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_stress(
    *,
    scale: int = 6,
    edge_factor: int = 4,
    graph_seed: int = 3,
    num_seeds: int = 20,
    num_threads: int = 4,
    cases: tuple[StressCase, ...] | None = None,
    quick: bool = False,
    detect_races: bool = False,
) -> StressReport:
    """Sweep ``cases`` × ``num_seeds`` scheduler seeds on one R-MAT graph.

    ``quick`` shrinks the sweep (3 seeds) for a CI smoke job; a full run
    uses every seed for every case.  ``detect_races=True`` runs the
    happens-before race detector (:mod:`repro.check.races`) on every
    cell and fails any cell whose report is not clean.
    """
    if quick:
        num_seeds = min(num_seeds, 3)
    graph = rmat_graph(scale, edge_factor=edge_factor, rng=graph_seed)
    report = StressReport(
        graph_desc=(
            f"R-MAT scale={scale} ({graph.num_vertices} vertices, "
            f"{graph.num_undirected_edges} edges), {num_seeds} seeds/case"
            + (", race detection on" if detect_races else "")
        )
    )
    registry = get_registry()
    counters_before = registry.counter_values()
    for case in cases if cases is not None else DEFAULT_CASES:
        for seed in range(num_seeds):
            report.outcomes.append(
                _run_cell(
                    graph,
                    case,
                    seed,
                    num_threads,
                    detect_races=detect_races,
                )
            )
    report.metrics = counter_delta(counters_before, registry.counter_values())
    return report


# ---------------------------------------------------------------------------
# Chaos campaign: real SIGKILL of a checkpointing subprocess + resume.


#: Exit code the chaos child returns when detection finished before the
#: kill hook ever fired (a campaign bug, not a detection bug).
_CHILD_NOT_KILLED = 3


def _checkpointed_permutation(
    graph, *, engine: str, directory, every: int, resume=None
):
    """One checkpointed detection run on *engine*; returns the
    permutation π.  Baseline and resumed runs both go through it."""
    from repro.rabbit.seq import community_detection_seq
    from repro.resilience.checkpoint import CheckpointConfig

    checkpoint = CheckpointConfig(directory=directory, every=every)
    dendrogram, _ = community_detection_seq(
        graph, engine=engine, checkpoint=checkpoint, resume=resume
    )
    return dendrogram.ordering()


def _chaos_child_main(spec_path: str) -> int:
    """Entry point of the chaos *child* process.

    Runs a checkpointed detection with an ``on_save`` hook that SIGKILLs
    the process the first time a snapshot at or past ``kill_at`` decided
    vertices lands — a real, uncatchable death mid-detection, at a
    replayable point.  Returns ``_CHILD_NOT_KILLED`` if detection
    finishes first (the parent treats that as a campaign failure).
    """
    from repro.graph.npz import load_npz
    from repro.rabbit.seq import community_detection_seq
    from repro.resilience.checkpoint import CheckpointConfig, Checkpointer

    spec = json.loads(Path(spec_path).read_text())
    graph = load_npz(spec["graph"])
    kill_at = int(spec["kill_at"])

    def kill_on_save(progress: int, path) -> None:
        if progress >= kill_at:
            os.kill(os.getpid(), signal.SIGKILL)

    checkpointer = Checkpointer(
        CheckpointConfig(directory=spec["dir"], every=int(spec["every"])),
        on_save=kill_on_save,
    )
    community_detection_seq(graph, engine=spec["engine"], checkpoint=checkpointer)
    return _CHILD_NOT_KILLED


_CHILD_CODE = (
    "import sys; from repro.experiments.stress import _chaos_child_main; "
    "sys.exit(_chaos_child_main(sys.argv[1]))"
)


@dataclass
class ChaosOutcome:
    """One (engine, seed) cell of the chaos campaign."""

    engine: str
    seed: int
    ok: bool
    #: progress of the newest checkpoint the killed child left behind
    resumed_from: int = 0
    error: str | None = None


@dataclass
class ChaosReport:
    """All outcomes of a chaos campaign."""

    graph_desc: str
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def table(self) -> str:
        header = f"{'engine':<8} {'seed':>5} {'resumed@':>9} {'ok':>4}"
        lines = [f"chaos campaign on {self.graph_desc}", header,
                 "-" * len(header)]
        for o in self.outcomes:
            lines.append(
                f"{o.engine:<8} {o.seed:>5} {o.resumed_from:>9} "
                f"{'ok' if o.ok else 'FAIL':>4}"
            )
        for o in self.failures:
            lines.append(f"FAILED {o.engine} seed={o.seed}: {o.error}")
        verdict = (
            "every killed run resumed to a verified permutation"
            if self.ok
            else f"{len(self.failures)} of {len(self.outcomes)} cells FAILED"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.table()


def _run_chaos_cell(
    graph,
    graph_path,
    workdir,
    *,
    engine: str,
    seed: int,
    every: int,
) -> ChaosOutcome:
    """One chaos cell: uninterrupted baseline, SIGKILLed child, resume,
    bit-compare.  The seed picks the kill point."""
    import repro
    from repro.resilience.checkpoint import latest_checkpoint

    outcome = ChaosOutcome(engine=engine, seed=seed, ok=False)
    cell_dir = Path(workdir) / f"{engine}-{seed}"
    baseline_dir = cell_dir / "baseline"
    kill_dir = cell_dir / "kill"
    try:
        baseline = _checkpointed_permutation(
            graph, engine=engine, directory=baseline_dir, every=every
        )
        spec = {
            "graph": str(graph_path),
            "engine": engine,
            "dir": str(kill_dir),
            "every": every,
            # vary the kill point across seeds (always a reachable
            # snapshot: one lands every ``every`` decided vertices)
            "kill_at": every * (1 + seed % 2),
        }
        spec_path = cell_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_CODE, str(spec_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != -signal.SIGKILL:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise ReproError(
                f"child was not SIGKILLed (exit {proc.returncode}): "
                + " | ".join(tail)
            )
        found = latest_checkpoint(kill_dir)
        if found is None:
            raise ReproError("killed child left no loadable checkpoint")
        outcome.resumed_from = found[1].progress
        resumed = _checkpointed_permutation(
            graph, engine=engine, directory=kill_dir, every=every,
            resume=found[1],
        )
        validate_permutation(resumed, graph.num_vertices)
        if not np.array_equal(resumed, baseline):
            raise ReproError(
                "resumed permutation differs from the uninterrupted run"
            )
        outcome.ok = True
    except (
        ReproError,
        PermutationError,
        OSError,
        subprocess.SubprocessError,
    ) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_chaos(
    *,
    scale: int = 6,
    edge_factor: int = 4,
    graph_seed: int = 3,
    num_seeds: int = 5,
    quick: bool = False,
    engines: tuple[str, ...] = ("fast", "dict"),
) -> ChaosReport:
    """SIGKILL-and-resume campaign over engines × seeds.

    Each cell: (1) run a checkpointed detection uninterrupted (the
    baseline); (2) run the identical configuration in a *subprocess*
    whose checkpointer SIGKILLs it mid-detection; (3) resume in-process
    from the newest snapshot the corpse left behind and require the
    finished permutation to be valid and bit-identical to the baseline.
    Engines are the checkpointing sequential ones, ``fast`` (the
    compiled sweep) and ``dict``; ``quick`` keeps 2 seeds each.
    """
    from repro.graph.npz import save_npz

    if quick:
        num_seeds = min(num_seeds, 2)
    graph = rmat_graph(scale, edge_factor=edge_factor, rng=graph_seed)
    every = max(1, graph.num_vertices // 6)
    report = ChaosReport(
        graph_desc=(
            f"R-MAT scale={scale} ({graph.num_vertices} vertices, "
            f"{graph.num_undirected_edges} edges), {num_seeds} seeds, "
            f"engines={'/'.join(engines)}"
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        graph_path = Path(workdir) / "graph.npz"
        save_npz(graph, graph_path)
        for engine in engines:
            for seed in range(num_seeds):
                report.outcomes.append(
                    _run_chaos_cell(
                        graph, graph_path, workdir,
                        engine=engine, seed=seed, every=every,
                    )
                )
    return report
