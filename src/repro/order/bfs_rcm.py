"""BFS ordering and (Reverse) Cuthill–McKee (paper references [23], [33], [7]).

* **BFS ordering** — the visit order of a level-synchronous BFS forest;
  within a level the vertices come in ascending id (the contract of
  :func:`~repro.analysis.traversal.bfs`).
* **Cuthill–McKee** — BFS from a pseudo-peripheral vertex with each
  level's vertices taken in increasing-degree order; **RCM** reverses the
  visit order, the variant known to produce better results (paper §V).

Level-wise degree sorting (rather than the classic per-parent-group sort)
matches the *unordered* parallel RCM of Karantasis et al., which is the
implementation the paper benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diameter import _double_sweep
from repro.analysis.traversal import UNREACHED, _unreached, _walk, bfs_forest
from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order
from repro.order.base import OrderingResult, OrderingStats

__all__ = ["bfs_order", "cuthill_mckee_order", "rcm_order"]


def bfs_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = None
) -> OrderingResult:
    """Visit order of a BFS forest (restarting at the smallest unreached
    id per component)."""
    res = bfs_forest(graph)
    stats = OrderingStats()
    num_levels = int(res.level.max(initial=0)) + 1
    stats.add(
        "bfs",
        work=float(graph.num_edges + graph.num_vertices),
        span=float(num_levels),
        barriers=float(num_levels),
    )
    return OrderingResult(
        name="BFS",
        permutation=permutation_from_order(res.order),
        stats=stats,
        extra={"levels": num_levels},
    )


def _cm_visit_order(graph: CSRGraph, stats: OrderingStats) -> np.ndarray:
    """Cuthill–McKee visit order over all components.

    Every walk (the double sweep's and the degree-sorted one) runs on one
    ``level``/``parent`` pair and resets what it reached, so each
    component costs O(its size), not O(n)."""
    n = graph.num_vertices
    degrees = graph.degrees()
    seeds = np.argsort(degrees, kind="stable")
    # A vertex without slots is its own component: both sweeps and the
    # walk reach only it.  These come first in degree order.
    isolated = int(np.count_nonzero(degrees == 0))
    chunks: list[np.ndarray] = [seeds[:isolated]]
    if isolated:
        stats.add("peripheral", work=2.0 * isolated, span=2.0 * isolated,
                  barriers=2.0 * isolated)
        stats.add("bfs", work=float(isolated), span=float(isolated),
                  barriers=float(isolated))
    visited = np.zeros(n, dtype=bool)
    level, parent = _unreached(n)
    # Seed components from their minimum-degree vertex, then refine the
    # seed to a pseudo-peripheral vertex by double sweep.
    for s in seeds[isolated:].tolist():
        if visited[s]:
            continue
        pd = _double_sweep(graph, s, level, parent)
        order, levels, _ = _walk(
            graph, np.array([pd.endpoints[1]], dtype=np.int64), level, parent,
            sorted_neighbors=True,
        )
        level[order] = UNREACHED
        parent[order] = UNREACHED
        visited[order] = True
        chunks.append(order)
        comp_work = float(degrees[order].sum() + order.size)
        stats.add(
            "peripheral",
            work=float(pd.num_sweeps) * comp_work,
            span=float(pd.num_sweeps) * levels,
            barriers=float(pd.num_sweeps) * levels,
        )
        stats.add("bfs", work=comp_work, span=float(levels), barriers=float(levels))
    return np.concatenate(chunks)


def cuthill_mckee_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = None
) -> OrderingResult:
    """Cuthill-McKee visit order (unreversed; RCM is usually better)."""
    stats = OrderingStats()
    order = _cm_visit_order(graph, stats)
    return OrderingResult(
        name="CM", permutation=permutation_from_order(order), stats=stats
    )


def rcm_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = None
) -> OrderingResult:
    """Reverse Cuthill–McKee (Table III's 'RCM')."""
    stats = OrderingStats()
    order = _cm_visit_order(graph, stats)[::-1].copy()
    return OrderingResult(
        name="RCM", permutation=permutation_from_order(order), stats=stats
    )
