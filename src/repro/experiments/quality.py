"""Table IV: modularity and PageRank runtime, sequential vs parallel
Rabbit Order.

The paper's point: the asynchronous parallel execution changes the
extracted communities, but neither the modularity nor the downstream
PageRank time meaningfully degrades (48-thread quality matches or exceeds
sequential).  We compare the sequential run against Algorithm 3 under the
seeded interleaving model (``num_threads`` modelled threads, seed 0, so
the table is deterministic) and report the same three columns plus the
percentage runtime change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.costmodel import spmv_iteration_cycles
from repro.community.modularity import modularity
from repro.experiments.config import ExperimentConfig, prepared
from repro.experiments.report import format_table
from repro.rabbit import (
    community_detection_par,
    ordering_generation_seq,
    rabbit_order,
)

__all__ = ["QualityRow", "table4", "table4_table"]


@dataclass(frozen=True)
class QualityRow:
    dataset: str
    modularity_seq: float
    modularity_par: float
    pagerank_cycles_seq: float
    pagerank_cycles_par: float

    @property
    def runtime_change_pct(self) -> float:
        if self.pagerank_cycles_seq == 0:
            return 0.0
        return 100.0 * (
            self.pagerank_cycles_par / self.pagerank_cycles_seq - 1.0
        )


def table4(
    config: ExperimentConfig | None = None, *, num_threads: int = 8
) -> list[QualityRow]:
    """Compute Table IV rows (sequential vs parallel Rabbit quality)."""
    config = config or ExperimentConfig()
    rows: list[QualityRow] = []
    for ds in config.dataset_names():
        prep = prepared(ds, config)
        g = prep.graph
        seq = rabbit_order(g)
        par = community_detection_par(g, num_threads=num_threads)
        par_perm = ordering_generation_seq(par.dendrogram)
        q_seq = modularity(g, seq.dendrogram.community_labels())
        q_par = modularity(g, par.dendrogram.community_labels())
        cyc_seq = spmv_iteration_cycles(
            g.permute(seq.permutation),
            config.machine,
            iterations=prep.pagerank_iterations,
        ).total_cycles
        cyc_par = spmv_iteration_cycles(
            g.permute(par_perm),
            config.machine,
            iterations=prep.pagerank_iterations,
        ).total_cycles
        rows.append(
            QualityRow(
                dataset=ds,
                modularity_seq=q_seq,
                modularity_par=q_par,
                pagerank_cycles_seq=cyc_seq,
                pagerank_cycles_par=cyc_par,
            )
        )
    return rows


def table4_table(
    config: ExperimentConfig | None = None, *, num_threads: int = 8
) -> str:
    """Render Table IV as an aligned text table."""
    rows = table4(config, num_threads=num_threads)
    headers = [
        "graph",
        "Q (seq)",
        "Q (par)",
        "PR Mcycles (seq)",
        "PR Mcycles (par)",
        "change %",
    ]
    body = [
        [
            r.dataset,
            r.modularity_seq,
            r.modularity_par,
            r.pagerank_cycles_seq / 1e6,
            r.pagerank_cycles_par / 1e6,
            r.runtime_change_pct,
        ]
        for r in rows
    ]
    return format_table(
        headers,
        body,
        title="Table IV: modularity and PageRank runtime, sequential vs parallel Rabbit Order",
        precision=3,
    )
