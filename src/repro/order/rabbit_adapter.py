"""Adapter exposing Rabbit Order through the common ordering interface,
including the work/span profile the cost model needs.

The span of parallel incremental aggregation is the heaviest
work-weighted root-to-leaf path of the dendrogram: a vertex cannot be
aggregated before its children have merged into it, so dependent merges
chain along dendrogram paths, while independent subtrees proceed in
parallel.  We compute that path from the measured per-vertex work.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.graph.csr import CSRGraph
from repro.graph.perm import invert_permutation
from repro.order.base import OrderingResult, OrderingStats
from repro.rabbit import rabbit_order

__all__ = [
    "rabbit_order_result",
    "rabbit_dict_order_result",
    "rabbit_par_order_result",
    "dendrogram_critical_path",
]


def dendrogram_critical_path(
    dendrogram: Dendrogram, vertex_work: np.ndarray
) -> float:
    """Maximum root-to-leaf sum of *vertex_work* over the merge forest."""
    return _critical_path(dendrogram, dendrogram.dfs_visit_order(), vertex_work)


def _critical_path(
    dendrogram: Dendrogram, order: np.ndarray, vertex_work: np.ndarray
) -> float:
    """:func:`dendrogram_critical_path`, given the forest's post-order
    visit *order*."""
    if dendrogram.num_vertices == 0:
        return 0.0
    parent = dendrogram.parents().tolist()
    path = vertex_work.astype(np.float64).tolist()
    # Children appear before parents in the post-order visit, so a single
    # forward pass over it propagates the heaviest child path upward.
    best_child = [0.0] * len(parent)
    for v in order.tolist():
        path[v] += best_child[v]
        p = parent[v]
        if p != NO_VERTEX and path[v] > best_child[p]:
            best_child[p] = path[v]
    return float(np.asarray(path)[dendrogram.toplevel].max(initial=0.0))


def rabbit_order_result(
    graph: CSRGraph,
    *,
    parallel: bool = False,
    num_threads: int = 4,
    scheduler_seed: int | None = None,
    engine: str = "fast",
    rng: np.random.Generator | int | None = None,  # accepted for interface parity
) -> OrderingResult:
    """Run Rabbit Order and package it as an :class:`OrderingResult`.

    The default is the sequential compiled sweep (``parallel=False,
    engine="fast"``) — the fastest way to actually produce a permutation
    in this process, which is what the wall-clock benches measure.  Pass
    ``engine="dict"`` for the reference per-edge engine (bit-identical
    output) or ``parallel=True`` for the lock-free Algorithm 3 model
    under the seeded interleaving scheduler (seed ``scheduler_seed``,
    else an integer ``rng``, else 0), so the measured work/span profile —
    and hence every recorded experiment table — is replayable.
    """
    if scheduler_seed is None:
        scheduler_seed = rng if isinstance(rng, int) else 0
    res = rabbit_order(
        graph,
        parallel=parallel,
        num_threads=num_threads,
        scheduler_seed=scheduler_seed,
        collect_vertex_work=True,
        engine=engine,
    )
    stats = OrderingStats()
    work = float(res.stats.edges_scanned)
    vertex_work = res.stats.vertex_work
    if vertex_work is None:  # edgeless graphs skip aggregation entirely
        vertex_work = np.zeros(graph.num_vertices, dtype=np.int64)
    # The permutation inverts to the forest's post-order visit.
    order = invert_permutation(res.permutation)
    span = _critical_path(res.dendrogram, order, vertex_work)
    stats.add("aggregate", work=work, span=span, barriers=1.0)
    n = graph.num_vertices
    # Ordering generation: parallel DFS per top-level; span is the largest
    # single community's DFS.  Each community is one block of the visit,
    # ending at its root, so its size is the gap between root positions.
    sizes = np.diff(res.permutation[res.dendrogram.toplevel], prepend=-1)
    biggest = float(sizes.max(initial=1.0))
    stats.add("ordering", work=float(n), span=biggest, barriers=1.0)
    extra = {
        "dendrogram": res.dendrogram,
        "merges": res.stats.merges,
        "retries": res.stats.retries,
        "num_communities": res.num_communities,
    }
    if res.parallel is not None:
        extra["op_counter"] = res.parallel.op_counter.snapshot()
    return OrderingResult(
        name="Rabbit", permutation=res.permutation, stats=stats, extra=extra
    )


def rabbit_par_order_result(graph: CSRGraph, **kwargs) -> OrderingResult:
    """Registry entry ``"RabbitPar"``: Algorithm 3 on the dict oracle's
    aggregation state under the seeded interleaving scheduler.

    The bench rows it produces are replayable rather than
    schedule-noisy; they measure the paper-fidelity model, not a
    production engine (``"Rabbit"`` is the production engine).
    """
    kwargs.setdefault("parallel", True)
    res = rabbit_order_result(graph, **kwargs)
    return OrderingResult(
        name="RabbitPar",
        permutation=res.permutation,
        stats=res.stats,
        extra=res.extra,
    )


def rabbit_dict_order_result(graph: CSRGraph, **kwargs) -> OrderingResult:
    """Registry entry ``"RabbitDict"``: the reference per-edge dict engine.

    Bit-identical permutation to ``"Rabbit"`` (the fast engine); kept on
    the roster so the bench suites measure both engines side by side and
    the regression gate covers the oracle too.
    """
    kwargs.setdefault("engine", "dict")
    res = rabbit_order_result(graph, **kwargs)
    return OrderingResult(
        name="RabbitDict",
        permutation=res.permutation,
        stats=res.stats,
        extra=res.extra,
    )
