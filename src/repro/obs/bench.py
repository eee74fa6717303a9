"""Benchmark runner + suite registry emitting ``BENCH_*.json`` baselines.

This is the measurement substrate the ROADMAP's perf trajectory reports
against: every suite cell runs *reorder then analyse* under the span
tracer, so the emitted baseline separates exactly the two costs the
paper trades off (PAPER.md Figs. 6–8) — time to produce an ordering vs.
the analysis time it buys back — per ordering, per graph, alongside the
static locality metrics and the metrics-registry counter deltas.

Suites are declarative (:class:`BenchSuite`) and registered by name;
``repro bench --suite core`` runs one and writes a schema-versioned
document (:mod:`repro.obs.schema`), and :func:`compare` judges a fresh
run against a committed baseline with tolerance-based verdicts — the
regression gate future perf PRs must pass.

Wall-clock caveat: absolute numbers are machine-dependent; the compare
tolerances (generous relative band plus an absolute floor for
microsecond-scale cells) are tuned so only real regressions trip, not
scheduler noise.  Locality metrics are deterministic for a fixed seed
and carry a much tighter band.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import BenchFormatError, DatasetError
from repro.graph.csr import CSRGraph
from repro.ioutil import atomic_write_text
from repro.graph.generators.hierarchical import hierarchical_community_graph
from repro.graph.generators.rmat import rmat_graph
from repro.metrics.locality import (
    average_neighbor_gap,
    bandwidth,
    diagonal_block_density,
)
from repro.obs import trace
from repro.obs.metrics import counter_delta, get_registry, nearest_rank
from repro.obs.schema import (
    PERCENTILE_LABELS,
    SCHEMA_ID,
    SCHEMA_VERSION,
    require_valid_bench,
)
from repro.order.registry import get_algorithm

__all__ = [
    "BenchGraph",
    "BenchSuite",
    "register_suite",
    "get_suite",
    "list_suites",
    "run_suite",
    "save_bench",
    "load_bench",
    "compare",
    "percentile_summary",
    "CompareRow",
    "CompareReport",
    "ANALYSES",
]

GraphFactory = Callable[[int], CSRGraph]


# ---------------------------------------------------------------------------
# Workloads: name -> runner(graph).  Each runner is one analysis pass of
# the kind reordering accelerates.


def _run_pagerank(graph: CSRGraph) -> None:
    from repro.analysis.pagerank import pagerank

    pagerank(graph, max_iterations=200, raise_on_no_convergence=False)


def _run_bfs(graph: CSRGraph) -> None:
    from repro.analysis.traversal import bfs

    if graph.num_vertices:
        bfs(graph, 0)


def _run_spmv(graph: CSRGraph) -> None:
    from repro.analysis.spmv import spmv

    n = graph.num_vertices
    if n:
        spmv(graph, np.full(n, 1.0 / n))


def _run_components(graph: CSRGraph) -> None:
    from repro.analysis.components import connected_components

    connected_components(graph)


ANALYSES: dict[str, Callable[[CSRGraph], None]] = {
    "pagerank": _run_pagerank,
    "bfs": _run_bfs,
    "spmv": _run_spmv,
    "components": _run_components,
}


# ---------------------------------------------------------------------------
# Suite registry.


@dataclass(frozen=True)
class BenchGraph:
    """A named, seeded graph factory (regenerated fresh per run, so the
    baseline is reproducible from the suite definition alone)."""

    name: str
    factory: GraphFactory
    seed: int = 0

    def build(self) -> CSRGraph:
        return self.factory(self.seed)


@dataclass(frozen=True)
class BenchSuite:
    """A declarative benchmark suite: graphs x orderings x analyses.

    Suites whose workload is not a graphs×orderings grid (the serve
    load generator drives a live daemon) set ``runner`` instead: a
    callable receiving the suite and returning the schema-valid
    ``results`` list directly.  ``graphs``/``orderings``/``analyses``
    are then purely descriptive and may be empty.
    """

    name: str
    graphs: tuple[BenchGraph, ...]
    orderings: tuple[str, ...]
    analyses: tuple[str, ...]
    repeats: int = 1
    description: str = ""
    runner: Callable[["BenchSuite"], list[dict[str, Any]]] | None = None

    def __post_init__(self) -> None:
        unknown = [a for a in self.analyses if a not in ANALYSES]
        if unknown:
            raise DatasetError(
                f"suite {self.name!r} references unknown analyses {unknown}; "
                f"available: {', '.join(ANALYSES)}"
            )


_SUITES: dict[str, BenchSuite] = {}


def register_suite(suite: BenchSuite) -> BenchSuite:
    _SUITES[suite.name] = suite
    return suite


def get_suite(name: str) -> BenchSuite:
    if name not in _SUITES:
        raise DatasetError(
            f"unknown bench suite {name!r}; available: {', '.join(_SUITES)}"
        )
    return _SUITES[name]


def list_suites() -> list[str]:
    return sorted(_SUITES)


register_suite(
    BenchSuite(
        name="core",
        description=(
            "The standing perf-trajectory suite: small R-MAT (social-like "
            "skew) and hierarchical (web-like modular) graphs, the main "
            "ordering roster, PageRank + BFS as the paying workloads."
        ),
        graphs=(
            BenchGraph(
                "rmat-s8",
                lambda seed: rmat_graph(8, edge_factor=8, rng=seed),
                seed=7,
            ),
            BenchGraph(
                "hier-768",
                lambda seed: hierarchical_community_graph(768, rng=seed).graph,
                seed=11,
            ),
        ),
        # "Rabbit" is the compiled sweep; "RabbitDict" is the
        # reference per-edge engine; "RabbitPar" is Algorithm 3 on the
        # reference state under the deterministic interleaving scheduler
        # — all three stay on the roster so every run measures the paths
        # side by side and the regression gate covers each.
        orderings=("Rabbit", "RabbitDict", "RabbitPar", "RCM", "Degree",
                   "Random"),
        analyses=("pagerank", "bfs"),
    )
)

register_suite(
    BenchSuite(
        name="smoke",
        description="Tiny CI smoke suite: fast, schema-complete.",
        graphs=(
            BenchGraph(
                "rmat-s6",
                lambda seed: rmat_graph(6, edge_factor=4, rng=seed),
                seed=3,
            ),
            BenchGraph(
                "hier-256",
                lambda seed: hierarchical_community_graph(256, rng=seed).graph,
                seed=5,
            ),
        ),
        orderings=("Rabbit", "RabbitDict", "Degree", "Random"),
        analyses=("pagerank",),
    )
)


register_suite(
    BenchSuite(
        name="serve",
        description=(
            "Reorder-as-a-service latency suite: boots the asyncio "
            "daemon on a unix socket and drives cold-miss, warm-hit, "
            "and coalesced request storms through the client, emitting "
            "p50/p95/p99 per path (docs/SERVING.md)."
        ),
        graphs=(),
        orderings=(),
        analyses=(),
        runner=lambda suite: _serve_suite_runner(suite),
    )
)


def _serve_suite_runner(suite: BenchSuite) -> list[dict[str, Any]]:
    # Lazy import: repro.serve sits above repro.obs in the layering, so
    # the suite registration must not pull it in at module level.
    from repro.serve.loadgen import run_serve_suite

    return run_serve_suite(repeats=suite.repeats)


# ---------------------------------------------------------------------------
# Runner.


def _min_duration(spans: list[trace.Span]) -> float:
    return min((s.duration for s in spans), default=0.0)


def percentile_summary(samples: "Iterable[float]") -> dict[str, float]:
    """Exact nearest-rank p50/p95/p99 of *samples* (the ``percentiles``
    entry format of the v2 bench schema)."""
    ordered = sorted(float(s) for s in samples)
    return {
        label: nearest_rank(ordered, float(label[1:]))
        for label in PERCENTILE_LABELS
    }


def _run_cell(
    suite: BenchSuite, bg: BenchGraph, graph: CSRGraph, ordering: str
) -> dict[str, Any]:
    registry = get_registry()
    counters_before = registry.counter_values()
    algorithm = get_algorithm(ordering)
    tracer = trace.get_tracer()
    t0 = time.perf_counter()
    result = None
    with tracer.capture() as cap:
        for _ in range(suite.repeats):
            with trace.span("bench.reorder", ordering=ordering, graph=bg.name):
                result = algorithm(graph, rng=bg.seed)
        assert result is not None
        permuted = graph.permute(result.permutation)
        for analysis in suite.analyses:
            runner = ANALYSES[analysis]
            for _ in range(suite.repeats):
                with trace.span(f"bench.analysis.{analysis}", graph=bg.name):
                    runner(permuted)
    total_s = time.perf_counter() - t0
    analysis_s = {
        analysis: _min_duration(cap.find(f"bench.analysis.{analysis}"))
        for analysis in suite.analyses
    }
    percentiles = {
        "reorder_s": percentile_summary(
            s.duration for s in cap.find("bench.reorder")
        ),
    }
    for analysis in suite.analyses:
        percentiles[f"analysis.{analysis}_s"] = percentile_summary(
            s.duration for s in cap.find(f"bench.analysis.{analysis}")
        )
    return {
        "graph": bg.name,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_undirected_edges),
        "ordering": ordering,
        "repeats": int(suite.repeats),
        "phases": {
            "reorder_s": _min_duration(cap.find("bench.reorder")),
            "analysis_s": analysis_s,
            "analysis_total_s": float(sum(analysis_s.values())),
        },
        "total_s": total_s,
        "spans": {k: round(v, 6) for k, v in cap.phase_totals().items()},
        "locality": {
            "average_neighbor_gap": float(average_neighbor_gap(permuted)),
            "bandwidth": float(bandwidth(permuted)),
            "block_density_64": float(diagonal_block_density(permuted, 64)),
        },
        "counters": counter_delta(counters_before, registry.counter_values()),
        "percentiles": percentiles,
    }


def run_suite(
    suite: BenchSuite | str, *, repeats: int | None = None
) -> dict[str, Any]:
    """Run every (graph, ordering) cell of *suite*; returns the
    schema-valid baseline document."""
    if isinstance(suite, str):
        suite = get_suite(suite)
    if repeats is not None:
        suite = BenchSuite(
            name=suite.name,
            graphs=suite.graphs,
            orderings=suite.orderings,
            analyses=suite.analyses,
            repeats=max(1, repeats),
            description=suite.description,
            runner=suite.runner,
        )
    if suite.runner is not None:
        results = list(suite.runner(suite))
    else:
        # One untimed pass of each analysis on a tiny graph first: the
        # SpMV family imports scipy on first use, a one-time cost of the
        # process that would otherwise land on whichever cell runs first.
        warm = rmat_graph(4, rng=0)
        for analysis in suite.analyses:
            ANALYSES[analysis](warm)
        results = []
        for bg in suite.graphs:
            graph = bg.build()
            for ordering in suite.orderings:
                results.append(_run_cell(suite, bg, graph, ordering))
    doc = {
        "schema": SCHEMA_ID,
        "schema_version": SCHEMA_VERSION,
        "suite": suite.name,
        "created_unix": time.time(),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }
    require_valid_bench(doc, source=f"suite {suite.name!r} output")
    return doc


def save_bench(doc: dict[str, Any], path: str | Path) -> None:
    require_valid_bench(doc, source=str(path))
    # Atomic install: a baseline file is a long-lived artifact that later
    # regression gates trust; a torn write must never replace a good one.
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_bench(path: str | Path) -> dict[str, Any]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchFormatError(f"cannot read bench file {path}: {exc}") from exc
    require_valid_bench(doc, source=str(path))
    return doc


# ---------------------------------------------------------------------------
# Comparison: tolerance-based regression verdicts.

#: Verdict labels (REGRESSION and MISSING are the failing ones).
OK, IMPROVED, REGRESSION, MISSING = "ok", "improved", "REGRESSION", "MISSING"


@dataclass(frozen=True)
class CompareRow:
    graph: str
    ordering: str
    metric: str
    baseline: float | None
    current: float | None
    verdict: str

    @property
    def ratio(self) -> float | None:
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline


@dataclass
class CompareReport:
    """Cell-by-cell verdicts of current results against a baseline."""

    suite: str
    rel_tolerance: float
    abs_floor_s: float
    rows: list[CompareRow] = field(default_factory=list)

    @property
    def regressions(self) -> list[CompareRow]:
        return [r for r in self.rows if r.verdict in (REGRESSION, MISSING)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def table(self) -> str:
        header = (
            f"{'graph':<12} {'ordering':<10} {'metric':<22} "
            f"{'baseline':>12} {'current':>12} {'ratio':>7}  verdict"
        )
        lines = [
            f"bench compare: suite={self.suite} "
            f"rel_tol={self.rel_tolerance:.0%} abs_floor={self.abs_floor_s * 1e3:.1f}ms",
            header,
            "-" * len(header),
        ]
        for r in self.rows:
            base = f"{r.baseline:.6f}" if r.baseline is not None else "-"
            cur = f"{r.current:.6f}" if r.current is not None else "-"
            ratio = f"{r.ratio:.2f}x" if r.ratio is not None else "-"
            lines.append(
                f"{r.graph:<12} {r.ordering:<10} {r.metric:<22} "
                f"{base:>12} {cur:>12} {ratio:>7}  {r.verdict}"
            )
        verdict = (
            "no regressions"
            if self.ok
            else f"{len(self.regressions)} REGRESSION/MISSING row(s)"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.table()


def _cell_key(result: dict[str, Any]) -> tuple[str, str]:
    return (result["graph"], result["ordering"])


#: Counters that name the engine a run took, not the work it did.
_PROVENANCE = ("rabbit.engine.", "rabbit.native.")


def _work_counters(result: dict[str, Any]) -> dict[str, float]:
    """The cell's ``rabbit.*`` detection work counters."""
    return {
        name: float(value)
        for name, value in (result.get("counters") or {}).items()
        if name.startswith("rabbit.") and not name.startswith(_PROVENANCE)
    }


def _time_verdict(
    baseline: float, current: float, rel_tol: float, abs_floor: float
) -> str:
    if current > baseline * (1.0 + rel_tol) + abs_floor:
        return REGRESSION
    if current < baseline * (1.0 - rel_tol) - abs_floor:
        return IMPROVED
    return OK


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    rel_tolerance: float = 0.5,
    abs_floor_s: float = 0.005,
    locality_tolerance: float = 0.1,
) -> CompareReport:
    """Judge *current* against *baseline*, cell by cell.

    Wall-clock metrics (``reorder_s``, ``analysis_total_s``) regress when
    ``current > baseline * (1 + rel_tolerance) + abs_floor_s`` — the
    absolute floor keeps microsecond-scale cells from flapping.  The
    deterministic locality metric (``average_neighbor_gap``, larger is
    worse) uses ``locality_tolerance`` with no floor.  Detection work is
    deterministic too: every ``rabbit.*`` work counter both cells carry
    must match exactly (any difference is a ``REGRESSION``), and one the
    baseline carries and the current cell lacks is ``MISSING``; the
    provenance counters (``rabbit.engine.*``, ``rabbit.native.*``) say
    which engine ran, not how much work it did, and are not judged.
    Cells present in the baseline but missing from the current run are
    failures (``MISSING``); new cells are reported as ``ok``.
    """
    require_valid_bench(baseline, source="baseline document")
    require_valid_bench(current, source="current document")
    report = CompareReport(
        suite=current.get("suite", "?"),
        rel_tolerance=rel_tolerance,
        abs_floor_s=abs_floor_s,
    )
    base_cells = {_cell_key(r): r for r in baseline["results"]}
    cur_cells = {_cell_key(r): r for r in current["results"]}
    for key, base in base_cells.items():
        graph, ordering = key
        cur = cur_cells.get(key)
        if cur is None:
            report.rows.append(
                CompareRow(graph, ordering, "cell", None, None, MISSING)
            )
            continue
        for metric in ("reorder_s", "analysis_total_s"):
            b = float(base["phases"][metric])
            c = float(cur["phases"][metric])
            report.rows.append(
                CompareRow(
                    graph,
                    ordering,
                    metric,
                    b,
                    c,
                    _time_verdict(b, c, rel_tolerance, abs_floor_s),
                )
            )
        # Percentile rows exist only when both documents carry them (v2
        # runners): a v1 baseline never gates percentiles, so the
        # schema bump cannot fail old committed files.
        base_pct = base.get("percentiles") or {}
        cur_pct = cur.get("percentiles") or {}
        for metric in sorted(base_pct.keys() & cur_pct.keys()):
            for label in PERCENTILE_LABELS:
                b = base_pct[metric].get(label)
                c = cur_pct[metric].get(label)
                if b is None or c is None:
                    continue
                report.rows.append(
                    CompareRow(
                        graph,
                        ordering,
                        f"{metric}.{label}",
                        float(b),
                        float(c),
                        _time_verdict(
                            float(b), float(c), rel_tolerance, abs_floor_s
                        ),
                    )
                )
        b_gap = base["locality"].get("average_neighbor_gap")
        c_gap = cur["locality"].get("average_neighbor_gap")
        if b_gap is not None and c_gap is not None:
            report.rows.append(
                CompareRow(
                    graph,
                    ordering,
                    "average_neighbor_gap",
                    float(b_gap),
                    float(c_gap),
                    _time_verdict(float(b_gap), float(c_gap), locality_tolerance, 0.0),
                )
            )
        base_work, cur_work = _work_counters(base), _work_counters(cur)
        for name, b in sorted(base_work.items()):
            c = cur_work.get(name)
            verdict = MISSING if c is None else OK if c == b else REGRESSION
            report.rows.append(CompareRow(graph, ordering, name, b, c, verdict))
    for key in sorted(cur_cells.keys() - base_cells.keys()):
        report.rows.append(CompareRow(key[0], key[1], "cell", None, None, OK))
    report.rows.sort(key=lambda r: (r.graph, r.ordering, r.metric))
    return report
