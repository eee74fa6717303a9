"""Rabbit Order public entry point (Algorithm 2).

:func:`rabbit_order` runs hierarchical community detection (sequential or
parallel) followed by ordering generation (the post-order DFS over the
dendrogram, §III-C), returning the permutation π with ``π[old] = new``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathlib import Path

from repro.community.dendrogram import Dendrogram, require_partition
from repro.errors import CheckpointError
from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order
from repro.obs.trace import span
from repro.rabbit import native
from repro.rabbit.common import RabbitStats
from repro.rabbit.par import ParallelDetectionResult, community_detection_par
from repro.rabbit.seq import community_detection_seq
from repro.resilience.checkpoint import (
    Snapshot,
    latest_checkpoint,
    load_checkpoint,
)

__all__ = [
    "RabbitResult",
    "rabbit_order",
    "ordering_generation_seq",
    "resolve_resume",
]


def resolve_resume(
    resume: "Snapshot | str | Path | None",
) -> Snapshot | None:
    """Normalise the ``resume=`` argument: an in-memory
    :class:`~repro.resilience.checkpoint.Snapshot` passes through, a
    checkpoint *file* path is loaded, and a *directory* resolves to its
    newest loadable checkpoint."""
    if resume is None or isinstance(resume, Snapshot):
        return resume
    path = Path(resume)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            raise CheckpointError(f"no checkpoints found in {path}")
        return found[1]
    return load_checkpoint(path)


@dataclass(frozen=True)
class RabbitResult:
    """Output bundle of :func:`rabbit_order`."""

    permutation: np.ndarray  # pi[old] = new
    dendrogram: Dendrogram
    stats: RabbitStats
    parallel: ParallelDetectionResult | None = None

    @property
    def num_communities(self) -> int:
        return int(self.dendrogram.toplevel.size)


def ordering_generation_seq(dendrogram: Dendrogram) -> np.ndarray:
    """Sequential ordering generation (Algorithm 2, ORDERINGGENERATION):
    one DFS over the whole forest, returning π.  The DFS is compiled
    when the library loaded (:func:`~repro.rabbit.native.dfs_visit_order`);
    without it, :meth:`Dendrogram.dfs_visit_order` gives the same order.
    A forest whose roots do not reach every vertex exactly once raises
    :func:`~repro.community.dendrogram.require_partition`'s
    ``GraphFormatError``: π would not cover the graph."""
    order = native.dfs_visit_order(dendrogram)
    require_partition(order, dendrogram.num_vertices)
    return permutation_from_order(order)


def _ordering_span(parallel: bool):
    """The ``rabbit.ordering`` span, naming the DFS that runs in it."""
    engine = "python" if native.library() is None else "native"
    return span("rabbit.ordering", parallel=parallel, engine=engine)


def rabbit_order(
    graph: CSRGraph,
    *,
    parallel: bool = False,
    num_threads: int = 4,
    scheduler_seed: int = 0,
    merge_threshold: float = 0.0,
    collect_vertex_work: bool = False,
    fault_plan=None,
    audit: bool = False,
    engine: str = "fast",
    checkpoint=None,
    resume: "Snapshot | str | Path | None" = None,
) -> RabbitResult:
    """Compute the Rabbit Order permutation of *graph*.

    Parameters
    ----------
    parallel:
        run Algorithm 3 (lock-free CAS merges with lazy aggregation) under
        the seeded interleaving model instead of the sequential engine.
        The model exists for paper fidelity, fault injection and race
        certification; the sequential engine is the fast path.
    num_threads:
        when *parallel*, the modelled hardware threads (the interleaving
        scheduler's window).
    engine:
        sequential detection engine: ``"fast"`` (the compiled sweep,
        the default) or ``"dict"`` (the reference per-edge
        oracle).  Both are bit-identical.  The parallel model always runs
        on the dict oracle's aggregation state.
    scheduler_seed:
        when *parallel*, the seed of the interleaving schedule (the same
        seed replays the same run).
    merge_threshold:
        minimum ΔQ required to merge (paper: 0).
    fault_plan:
        when *parallel*, a :class:`~repro.parallel.faults.FaultPlan` to
        inject (with crash recovery) during detection.
    audit:
        when *parallel*, run the post-run dendrogram auditor and raise
        :class:`~repro.errors.AuditError` on any violated invariant.
    checkpoint:
        a :class:`~repro.resilience.checkpoint.CheckpointConfig` (or
        live ``Checkpointer``): snapshot detection state periodically so
        a killed run can resume.
    resume:
        continue detection from a
        :class:`~repro.resilience.checkpoint.Snapshot`, a checkpoint
        file path, or a checkpoint directory (newest loadable snapshot
        wins); see :func:`resolve_resume`.

    Returns
    -------
    RabbitResult
        with ``permutation[old_id] = new_id``.
    """
    resume = resolve_resume(resume)
    if parallel:
        with span("rabbit.detect", parallel=True, n=graph.num_vertices):
            result = community_detection_par(
                graph,
                num_threads=num_threads,
                scheduler_seed=scheduler_seed,
                merge_threshold=merge_threshold,
                collect_vertex_work=collect_vertex_work,
                fault_plan=fault_plan,
                audit=audit,
                checkpoint=checkpoint,
                resume=resume,
            )
        with _ordering_span(parallel=True):
            perm = ordering_generation_seq(result.dendrogram)
        return RabbitResult(
            permutation=perm,
            dendrogram=result.dendrogram,
            stats=result.stats,
            parallel=result,
        )
    with span("rabbit.detect", parallel=False, n=graph.num_vertices, engine=engine):
        dendrogram, stats = community_detection_seq(
            graph,
            merge_threshold=merge_threshold,
            collect_vertex_work=collect_vertex_work,
            engine=engine,
            checkpoint=checkpoint,
            resume=resume,
        )
    with _ordering_span(parallel=False):
        perm = ordering_generation_seq(dendrogram)
    return RabbitResult(permutation=perm, dendrogram=dendrogram, stats=stats)
