"""Work–span scalability model (the paper's Figure 10 substitute).

CPython's GIL makes wall-clock thread scaling meaningless, so p-thread
runtimes are *projected* from measured quantities (DESIGN.md §3):

* ``work`` — total memory touches of the run (measured per algorithm by
  its own instrumentation, including any work *redone* due to CAS
  rollbacks at the probed thread count);
* ``span`` — critical-path work (dependent merges along dendrogram paths,
  BFS level chains, sort depth, ...), also measured;
* machine effects — hyper-threading yields only a fraction of a physical
  core's throughput, and the memory-bound phases saturate bandwidth.

The projected runtime follows Brent's bound with machine corrections:

    T(p) = span + (work − span) / eff_mem(p) + barriers · L_b · log2(p)
    eff(p) = min(p, C) + smt · max(0, min(p, T) − C)
    eff_mem(p) = min(eff(p), B)

with C physical cores, T hardware threads, smt ∈ [0, 1], B the
memory-parallelism ceiling (graph reordering is memory-bound; a
two-socket Ivy Bridge's bandwidth saturates well before 48 threads keep
scaling — the reason the paper's best speedup is 17.4x, not 30x+), and
L_b the per-barrier latency in work units.  A sequential algorithm
(``parallelizable=False``) projects to T(p) = work for all p.

All algorithm-specific inputs (work, span, barrier counts) are measured
from our implementations; the three machine parameters encode only the
testbed (topology, bandwidth ceiling, synchronisation latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.order.base import OrderingStats

__all__ = ["ParallelMachine", "projected_time", "projected_speedup"]


@dataclass(frozen=True)
class ParallelMachine:
    """Thread-level topology of the target machine."""

    physical_cores: int = 24
    hardware_threads: int = 48
    smt_efficiency: float = 0.35  # marginal throughput of an HT sibling
    #: Memory-bound throughput ceiling (core equivalents): STREAM-style
    #: scaling on the paper's two-socket node saturates around here.
    memory_parallelism_cap: float = 20.0
    #: Latency of one global barrier, in work units (1 unit = one memory
    #: touch ~ 30 cycles): 50 units ~ 1500 cycles ~ an optimised pthread
    #: barrier on a two-socket node.
    barrier_latency_units: float = 50.0

    def __post_init__(self) -> None:
        if self.physical_cores < 1:
            raise ReproError("physical_cores must be >= 1")
        if self.hardware_threads < self.physical_cores:
            raise ReproError("hardware_threads must be >= physical_cores")
        if not (0.0 <= self.smt_efficiency <= 1.0):
            raise ReproError("smt_efficiency must be in [0, 1]")
        if self.memory_parallelism_cap < 1.0:
            raise ReproError("memory_parallelism_cap must be >= 1")
        if self.barrier_latency_units < 0.0:
            raise ReproError("barrier_latency_units must be >= 0")

    def effective_parallelism(self, threads: int) -> float:
        """Throughput (in physical-core equivalents) of *threads* threads."""
        if threads < 1:
            raise ReproError(f"threads must be >= 1, got {threads}")
        t = min(threads, self.hardware_threads)
        base = min(t, self.physical_cores)
        extra = max(0, t - self.physical_cores)
        return base + self.smt_efficiency * extra

    def memory_parallelism(self, threads: int) -> float:
        """Effective parallelism of memory-bound work."""
        return min(self.effective_parallelism(threads), self.memory_parallelism_cap)


def projected_time(
    stats: OrderingStats, threads: int, machine: ParallelMachine | None = None
) -> float:
    """Brent-bound projected runtime (work units) at *threads* threads."""
    machine = machine or ParallelMachine()
    if not stats.parallelizable:
        return stats.work
    span = min(stats.span, stats.work)
    eff = machine.memory_parallelism(threads)
    barrier_cost = 0.0
    if threads > 1 and stats.barriers > 0:
        barrier_cost = (
            stats.barriers
            * machine.barrier_latency_units
            * float(np.log2(threads))
        )
    return span + (stats.work - span) / eff + barrier_cost


def projected_speedup(
    stats_at_p: OrderingStats,
    stats_at_1: OrderingStats,
    threads: int,
    machine: ParallelMachine | None = None,
) -> float:
    """Speedup of a p-thread run over the 1-thread run.

    ``stats_at_p`` should come from an actual run probed at concurrency
    *p* (so rollback/retry work appears in its ``work``); for algorithms
    without concurrency-dependent work the two stats coincide.
    """
    t1 = projected_time(stats_at_1, 1, machine)
    tp = projected_time(stats_at_p, threads, machine)
    if tp <= 0.0:
        return 1.0
    return t1 / tp
