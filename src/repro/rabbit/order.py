"""Rabbit Order public entry point (Algorithm 2).

:func:`rabbit_order` runs sequential hierarchical community detection
followed by ordering generation (the post-order DFS over the dendrogram,
§III-C), returning the permutation π with ``π[old] = new``.  Algorithm 3,
the parallel model, has its own entry point,
:func:`~repro.rabbit.par.community_detection_par`; its dendrogram orders
through :func:`ordering_generation_seq` like any other.
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

    @property
    def num_communities(self) -> int:
        return int(self.dendrogram.toplevel.size)


def ordering_generation_seq(dendrogram: Dendrogram) -> np.ndarray:
    """Sequential ordering generation (Algorithm 2, ORDERINGGENERATION):
    one DFS over the whole forest, returning π, in the
    ``rabbit.ordering`` span.  The DFS is compiled when the library
    loaded (:func:`~repro.rabbit.native.dfs_visit_order`); without it,
    :meth:`Dendrogram.dfs_visit_order` gives the same order, and the
    span's ``engine`` says which walk ran.  A forest whose roots do not
    reach every vertex exactly once raises
    :func:`~repro.community.dendrogram.require_partition`'s
    ``GraphFormatError``: π would not cover the graph."""
    walk = "python" if native.library() is None else "native"
    with span("rabbit.ordering", parallel=False, engine=walk):
        order = native.dfs_visit_order(dendrogram)
        require_partition(order, dendrogram.num_vertices)
        return permutation_from_order(order)


def rabbit_order(
    graph: CSRGraph,
    *,
    engine: str = "fast",
    merge_threshold: float = 0.0,
    collect_vertex_work: bool = False,
    checkpoint=None,
    resume: "Snapshot | str | Path | None" = None,
) -> RabbitResult:
    """Compute the Rabbit Order permutation of *graph*.

    Parameters
    ----------
    engine:
        detection engine: ``"fast"`` (the compiled sweep, the default)
        or ``"dict"`` (the reference per-edge oracle).  Both are
        bit-identical.
    merge_threshold:
        minimum ΔQ required to merge (paper: 0).
    collect_vertex_work:
        record the edges each vertex's aggregation scanned in
        ``stats.vertex_work`` (the cost model's span input).
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
    with span("rabbit.detect", parallel=False, n=graph.num_vertices, engine=engine):
        dendrogram, stats = community_detection_seq(
            graph,
            merge_threshold=merge_threshold,
            collect_vertex_work=collect_vertex_work,
            engine=engine,
            checkpoint=checkpoint,
            resume=resume,
        )
    perm = ordering_generation_seq(dendrogram)
    return RabbitResult(permutation=perm, dendrogram=dendrogram, stats=stats)
