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

from repro.community.dendrogram import NO_VERTEX, Dendrogram, require_partition
from repro.graph.csr import CSRGraph
from repro.graph.perm import invert_permutation
from repro.order.base import OrderingResult, OrderingStats
from repro.rabbit.common import RabbitStats
from repro.rabbit.order import ordering_generation_seq, rabbit_order
from repro.rabbit.par import community_detection_par

__all__ = [
    "RABBIT_ENGINES",
    "rabbit_order_result",
    "rabbit_dict_order_result",
    "rabbit_par_order_result",
    "dendrogram_critical_path",
]

#: The detection engine each sequential registry entry runs: the name
#: picks the engine, for the registry and the CLI alike.
RABBIT_ENGINES = {"Rabbit": "fast", "RabbitDict": "dict"}


def dendrogram_critical_path(
    dendrogram: Dendrogram, vertex_work: np.ndarray
) -> float:
    """Maximum root-to-leaf sum of *vertex_work* over the merge forest.
    Links whose walk from the roots does not reach every vertex exactly
    once raise ``GraphFormatError``."""
    order = dendrogram.dfs_visit_order()
    require_partition(order, dendrogram.num_vertices)
    return _critical_path(dendrogram, order, vertex_work)


def _critical_path(
    dendrogram: Dendrogram, order: np.ndarray, vertex_work: np.ndarray
) -> float:
    """:func:`dendrogram_critical_path`, given the forest's post-order
    visit *order*.

    One top-down fold: the reversed visit puts every parent before its
    children, so each vertex adds its root path's work to the children
    on its child→sibling chain, and the heaviest path ends at the
    largest sum.  The sums are exact integers.
    """
    down = order[::-1]
    heads = down[dendrogram.child[down] != NO_VERTEX]  # leaves pass nothing
    child = dendrogram.child.tolist()
    sibling = dendrogram.sibling.tolist()
    depth = vertex_work.tolist()
    for v in heads.tolist():
        d = depth[v]
        c = child[v]
        while c != NO_VERTEX:
            depth[c] += d
            c = sibling[c]
    return float(max(depth, default=0))


def _profiled(
    name: str,
    graph: CSRGraph,
    permutation: np.ndarray,
    dendrogram: Dendrogram,
    stats: RabbitStats,
) -> OrderingResult:
    """Package one Rabbit run as an :class:`OrderingResult` carrying the
    cost model's work/span profile."""
    profile = OrderingStats()
    work = float(stats.edges_scanned)
    # The permutation inverts to the forest's post-order visit.
    order = invert_permutation(permutation)
    span = _critical_path(dendrogram, order, stats.vertex_work)
    profile.add("aggregate", work=work, span=span, barriers=1.0)
    n = graph.num_vertices
    # Ordering generation: parallel DFS per top-level; span is the largest
    # single community's DFS.  Each community is one block of the visit,
    # ending at its root, so its size is the gap between root positions.
    sizes = np.diff(permutation[dendrogram.toplevel], prepend=-1)
    biggest = float(sizes.max(initial=1.0))
    profile.add("ordering", work=float(n), span=biggest, barriers=1.0)
    extra = {
        "dendrogram": dendrogram,
        "merges": stats.merges,
        "retries": stats.retries,
        "num_communities": int(dendrogram.toplevel.size),
    }
    return OrderingResult(
        name=name, permutation=permutation, stats=profile, extra=extra
    )


def _sequential(name: str, graph: CSRGraph) -> OrderingResult:
    res = rabbit_order(graph, engine=RABBIT_ENGINES[name])
    return _profiled(name, graph, res.permutation, res.dendrogram, res.stats)


def rabbit_order_result(
    graph: CSRGraph,
    *,
    rng: np.random.Generator | int | None = None,  # accepted for interface parity
) -> OrderingResult:
    """Registry entry ``"Rabbit"``: the compiled sweep — the fastest way
    to actually produce a permutation in this process, which is what the
    wall-clock benches measure."""
    return _sequential("Rabbit", graph)


def rabbit_dict_order_result(
    graph: CSRGraph,
    *,
    rng: np.random.Generator | int | None = None,  # accepted for interface parity
) -> OrderingResult:
    """Registry entry ``"RabbitDict"``: the reference per-edge dict engine.

    Bit-identical permutation to ``"Rabbit"`` (the fast engine); kept on
    the roster so the bench suites measure both engines side by side and
    the regression gate covers the oracle too.
    """
    return _sequential("RabbitDict", graph)


def rabbit_par_order_result(
    graph: CSRGraph,
    *,
    num_threads: int = 4,
    scheduler_seed: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> OrderingResult:
    """Registry entry ``"RabbitPar"``: Algorithm 3 on the dict oracle's
    aggregation state under the seeded interleaving scheduler (seed
    *scheduler_seed*, else an integer *rng*, else 0).

    The bench rows it produces, and the work/span profile the
    experiment tables project from, are replayable rather than
    schedule-noisy; they measure the paper-fidelity model, not a
    production engine (``"Rabbit"`` is the production engine).
    """
    if scheduler_seed is None:
        scheduler_seed = rng if isinstance(rng, int) else 0
    res = community_detection_par(
        graph, num_threads=num_threads, scheduler_seed=scheduler_seed
    )
    permutation = ordering_generation_seq(res.dendrogram)
    result = _profiled("RabbitPar", graph, permutation, res.dendrogram, res.stats)
    result.extra["op_counter"] = res.op_counter.snapshot()
    return result
