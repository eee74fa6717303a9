"""Figure 10: reordering speedup vs thread count.

The paper plots each parallel algorithm's average self-relative speedup
at 12, 24 and 48 threads (24 physical cores + HT), SlashBurn omitted as
sequential.  Rabbit tops out at 17.4x, BFS and LLP around 12x.

Here the speedups are projected by the work–span model
(:mod:`repro.parallel.costmodel`) from *measured* profiles.  For Rabbit
the profile is re-measured at each probed thread count under the seeded
interleaving model of Algorithm 3 (window ``min(p, 16)``, averaged over
two scheduler seeds), so CAS-retry work from conflicting merges shows up
in the p-thread work term; the other algorithms have
concurrency-independent work and reuse their single measured profile.
Every number is deterministic: the same config gives the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig, prepared, run_ordering
from repro.experiments.report import format_table
from repro.order.rabbit_adapter import rabbit_par_order_result
from repro.parallel.costmodel import projected_speedup

__all__ = ["FIG10_ALGORITHMS", "FIG10_THREADS", "ScalabilityRow", "figure10", "figure10_table"]

FIG10_ALGORITHMS: tuple[str, ...] = (
    "Rabbit",
    "BFS",
    "RCM",
    "ND",
    "LLP",
    "Shingle",
    "Degree",
)
FIG10_THREADS: tuple[int, ...] = (12, 24, 48)

#: Scheduler seeds averaged per Rabbit probe.
PROBE_SEEDS: tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class ScalabilityRow:
    algorithm: str
    speedups: dict[int, float]  # threads -> average speedup vs 1 thread


def figure10(
    config: ExperimentConfig | None = None,
    algorithms: tuple[str, ...] = FIG10_ALGORITHMS,
    threads: tuple[int, ...] = FIG10_THREADS,
) -> list[ScalabilityRow]:
    """Compute Figure 10: projected speedups per algorithm and thread count."""
    config = config or ExperimentConfig()
    datasets = config.dataset_names()
    per_alg: dict[str, dict[int, list[float]]] = {
        alg: {p: [] for p in threads} for alg in algorithms
    }
    for ds in datasets:
        g = prepared(ds, config).graph
        for alg in algorithms:
            if alg == "Rabbit":
                base = rabbit_par_order_result(g, num_threads=1)
                for p in threads:
                    # The span of the dendrogram depends on the schedule,
                    # so average the projection over two seeded schedules
                    # at the (capped) modelled concurrency.
                    speedups = []
                    for seed in PROBE_SEEDS:
                        probe = rabbit_par_order_result(
                            g,
                            num_threads=min(p, 16),
                            scheduler_seed=seed,
                        )
                        speedups.append(
                            projected_speedup(
                                probe.stats, base.stats, p, config.parallel_machine
                            )
                        )
                    per_alg[alg][p].append(float(np.mean(speedups)))
            else:
                res = run_ordering(g, alg, seed=config.seed)
                for p in threads:
                    per_alg[alg][p].append(
                        projected_speedup(
                            res.stats, res.stats, p, config.parallel_machine
                        )
                    )
    return [
        ScalabilityRow(
            algorithm=alg,
            speedups={p: float(np.mean(per_alg[alg][p])) for p in threads},
        )
        for alg in algorithms
    ]


def figure10_table(
    config: ExperimentConfig | None = None,
    algorithms: tuple[str, ...] = FIG10_ALGORITHMS,
    threads: tuple[int, ...] = FIG10_THREADS,
) -> str:
    """Render Figure 10 as an aligned text table."""
    rows = figure10(config, algorithms, threads)
    headers = ["algorithm", *(f"{p} threads" for p in threads)]
    body = [[r.algorithm, *(r.speedups[p] for p in threads)] for r in rows]
    return format_table(
        headers,
        body,
        title="Figure 10: projected reordering speedup vs 1 thread (avg over graphs)",
        precision=1,
    )
