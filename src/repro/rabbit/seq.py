"""Sequential Rabbit Order community detection (Algorithm 2, lines 3–8).

Vertices are processed in increasing order of (initial) degree — the
paper's cost-reducing heuristic — and each is merged into the neighbour
maximising the modularity gain ΔQ (Equation 1) when that gain is positive;
otherwise it becomes a top-level vertex (a dendrogram root).

Checkpoint/resume: with ``checkpoint=``, the sweep snapshots its full
aggregation state every ``every`` decided vertices through
:mod:`repro.resilience.checkpoint`; with ``resume=``, it restores a
snapshot and continues — completing to a dendrogram (and permutation)
bit-identical to the uninterrupted run, because the snapshot preserves
the visit order, every folded adjacency in first-encounter order, and
the exact community degrees (see docs/RESILIENCE.md).
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import Dendrogram
from repro.community.modularity import newman_degrees
from repro.graph.csr import CSRGraph
from repro.graph.validate import require_symmetric
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.rabbit.common import AggregationState, RabbitStats, aggregate_vertex
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.runtime import heartbeat

__all__ = ["community_detection_seq", "visit_order", "restore_stats"]


def visit_order(
    graph: CSRGraph, visit: str, visit_rng: int | None
) -> np.ndarray:
    """The sweep's vertex visit order (shared by both sequential engines)."""
    n = graph.num_vertices
    if visit == "degree":
        return np.argsort(graph.degrees(), kind="stable")
    if visit == "identity":
        return np.arange(n, dtype=np.int64)
    if visit == "random":
        return np.random.default_rng(visit_rng).permutation(n).astype(np.int64)
    raise ValueError(
        f"visit must be 'degree', 'identity' or 'random', got {visit!r}"
    )


def restore_stats(stats: RabbitStats, snapshot: Snapshot) -> None:
    """Carry a snapshot's counters and per-vertex work into a fresh
    :class:`RabbitStats` (:meth:`Snapshot.validate` admits only the
    ``STAT_FIELDS`` counters).  A snapshot without per-vertex work leaves
    its prefix's work at 0."""
    for name, value in snapshot.stats_dict().items():
        setattr(stats, name, value)
    if snapshot.vertex_work.size:
        stats.vertex_work[:] = snapshot.vertex_work


def community_detection_seq(
    graph: CSRGraph,
    *,
    merge_threshold: float = 0.0,
    visit: str = "degree",
    visit_rng: int | None = 0,
    engine: str = "fast",
    checkpoint=None,
    resume: Snapshot | None = None,
) -> tuple[Dendrogram, RabbitStats]:
    """Extract hierarchical communities by incremental aggregation.

    Parameters
    ----------
    merge_threshold:
        merge only when ``dQ > merge_threshold``.  The paper uses 0; the
        ablation bench sweeps it to probe community resolution.
    visit:
        vertex visiting order: ``"degree"`` (the paper's heuristic,
        increasing initial degree), ``"identity"`` (by vertex id) or
        ``"random"`` — the ablation axis for the degree-order heuristic.
    visit_rng:
        seed for ``visit="random"``.
    engine:
        ``"fast"`` (default) runs the compiled sweep
        (:mod:`repro.rabbit.native`); ``"dict"`` runs the reference
        per-edge dict implementation below.  Both produce bit-identical
        dendrograms and stats — the dict engine is kept as the readable
        oracle the equivalence suite checks the compiled sweep against,
        and is what ``"fast"`` falls back to without a C compiler.
    checkpoint:
        a :class:`~repro.resilience.checkpoint.CheckpointConfig` or
        :class:`~repro.resilience.checkpoint.Checkpointer`: snapshot the
        aggregation state every ``every`` decided vertices.
    resume:
        a :class:`~repro.resilience.checkpoint.Snapshot` to restore and
        continue from (its fingerprint must match this graph and
        parameterisation; checkpoints from *any* engine are accepted).

    Returns
    -------
    (dendrogram, stats)
        ``stats.vertex_work[u]`` is the edges folded when ``u`` was
        decided, so it sums to ``stats.edges_scanned`` (the span
        estimator of the scalability model reads it).
    """
    if engine == "fast":
        from repro.rabbit.native import community_detection_fastseq

        return community_detection_fastseq(
            graph,
            merge_threshold=merge_threshold,
            visit=visit,
            visit_rng=visit_rng,
            checkpoint=checkpoint,
            resume=resume,
        )
    if engine != "dict":
        raise ValueError(f"engine must be 'fast' or 'dict', got {engine!r}")
    get_registry().counter("rabbit.engine.dict").inc()
    n = graph.num_vertices
    # Setup covers everything before the sweep: the symmetry check, the
    # state build, the fingerprint (checkpointed runs only) and the visit
    # order.
    with span("rabbit.seq.setup", n=n, engine="dict"):
        require_symmetric(graph, "Rabbit Order")
        ckpt = as_checkpointer(checkpoint)
        state = AggregationState.initialize(graph)
        stats = RabbitStats(vertex_work=np.zeros(n, dtype=np.int64))
        comm_deg = newman_degrees(graph)
        m = state.total_weight
        toplevel: list[int] = []
        if m <= 0.0:
            # Edgeless graph: every vertex is trivially top-level.
            stats.toplevels = n
            return (
                Dendrogram(
                    child=state.child,
                    sibling=state.sibling,
                    toplevel=np.arange(n, dtype=np.int64),
                ),
                stats,
            )

        two_m = 2.0 * m
        if ckpt is not None or resume is not None:
            fingerprint = graph_fingerprint(
                graph, merge_threshold=merge_threshold, visit=visit,
                visit_rng=visit_rng,
            )
        start = 0
        if resume is None:
            order = visit_order(graph, visit, visit_rng)
        else:
            require_fingerprint_match(resume, fingerprint)
            start = resume.progress
            order = resume.order.copy()
            state.restore(resume)
            # Merged vertices carry INVALID_DEGREE (never read again); roots
            # carry their exact accumulated community degree.
            comm_deg = resume.degrees.copy()
            toplevel = resume.toplevel.tolist()
            restore_stats(stats, resume)
        config = {
            "engine": "dict",
            "visit": visit,
            "visit_rng": visit_rng,
            "parallel": False,
        }
        dest = state.dest
        child = state.child
        sibling = state.sibling
    # One span brackets the whole aggregation sweep (never per vertex:
    # the disabled-tracer hot path must stay free).
    with span("rabbit.seq.aggregate", n=n, engine="dict"):
        for i in range(start, n):
            u = int(order[i])
            heartbeat()
            neighbors = aggregate_vertex(state, u, stats)
            best_v = -1
            best_dq = -np.inf
            d_u = comm_deg[u]
            # dQ = 2*(w/(2m) - d_u*d_v/(2m)^2); constants factored out of the loop.
            inv_2m = 1.0 / two_m
            penalty = d_u / (two_m * two_m)
            for v, w in neighbors.items():
                if v == u:  # self-loop entry (always inserted last)
                    continue
                dq = 2.0 * (w * inv_2m - comm_deg[v] * penalty)
                if dq > best_dq:
                    best_dq = dq
                    best_v = v
            if best_v < 0 or best_dq <= merge_threshold:
                toplevel.append(u)
                stats.toplevels += 1
            else:
                # Merge u into best_v: register u as a community member (lazy
                # aggregation defers the edge rewrite to when best_v is
                # processed).
                dest[u] = best_v
                sibling[u] = child[best_v]
                child[best_v] = u
                comm_deg[best_v] += d_u
                stats.merges += 1
            if ckpt is not None and ckpt.due(i + 1):
                ckpt.save(
                    state.capture(
                        engine="dict",
                        progress=i + 1,
                        order=order,
                        comm_deg=comm_deg,
                        toplevel=toplevel,
                        stats=stats,
                        fingerprint=fingerprint,
                        config=config,
                    )
                )
    get_registry().absorb_rabbit_stats(stats)
    return (
        Dendrogram(
            child=child,
            sibling=sibling,
            toplevel=np.array(toplevel, dtype=np.int64),
        ),
        stats,
    )
