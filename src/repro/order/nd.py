"""Nested Dissection ordering (George 1973; mt-metis in the paper).

Recursively bisect the graph (:mod:`repro.order.partition`), extract a
vertex separator from the edge cut, order part A first, then part B, then
the separator last — so separator rows land between the two diagonal
blocks they border.  Leaves below ``leaf_size`` are ordered by BFS visit
order (a cheap bandwidth-friendly local ordering).

The separator is the smaller boundary side of the refined cut (a standard
edge-cut → vertex-separator conversion; METIS uses the same idea with a
matching-based minimum cover).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.traversal import bfs_forest
from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order
from repro.order.base import OrderingResult, OrderingStats
from repro.order.partition import bisect_graph

__all__ = ["nd_order"]


def _leaf_order(graph: CSRGraph) -> np.ndarray:
    return bfs_forest(graph).order


def _separator_from_cut(graph: CSRGraph, side: np.ndarray) -> np.ndarray:
    """Boundary vertices of the side with the smaller boundary."""
    src, dst, _ = graph.edge_array()
    crossing = side[src] != side[dst]
    boundary = np.unique(src[crossing])
    if boundary.size == 0:
        return boundary
    a_side = boundary[~side[boundary]]
    b_side = boundary[side[boundary]]
    return a_side if a_side.size <= b_side.size else b_side


def nd_order(
    graph: CSRGraph,
    *,
    leaf_size: int = 64,
    max_depth: int | None = None,
    multilevel: bool = True,
    rng: np.random.Generator | int | None = 0,
) -> OrderingResult:
    """Nested Dissection permutation of *graph*.

    ``multilevel=True`` (default) bisects with METIS-style coarsening +
    projection (:func:`repro.order.coarsen.multilevel_bisect`), which
    finds far smaller separators than flat BFS-grow+FM on everything but
    trivial graphs; ``False`` keeps the flat bisection (used by tests and
    the coarsening ablation).
    """
    from repro.order.coarsen import multilevel_bisect

    n = graph.num_vertices
    stats = OrderingStats()
    visit = np.empty(n, dtype=np.int64)
    cursor = 0
    depth_limit = max_depth if max_depth is not None else 64
    max_span_depth = 0

    # Children of a node are emitted in A-B-separator order by processing
    # A first.  Each call returns (ordering, span): siblings recurse in
    # parallel in mt-metis, so a node's span is its own serial FM
    # refinement plus the heavier child's span — not the sibling sum.
    def recurse(
        sub: CSRGraph, old_ids: np.ndarray, depth: int
    ) -> tuple[np.ndarray, float]:
        nonlocal max_span_depth
        max_span_depth = max(max_span_depth, depth)
        if sub.num_vertices <= leaf_size or depth >= depth_limit:
            stats.add("leaf", work=float(sub.num_edges + sub.num_vertices), span=0.0)
            return old_ids[_leaf_order(sub)], 1.0
        if multilevel:
            bi = multilevel_bisect(sub, rng=rng)
        else:
            bi = bisect_graph(sub, rng=rng)
        # The FM move sequence is inherently serial (each move depends on
        # the previous one's gain updates) — it contributes span; two
        # barriers bracket each bisection's grow/refine phases.
        stats.add("bisect", work=bi.work, span=0.0, barriers=2.0)
        own_span = bi.fm_work + float(np.log2(max(sub.num_vertices, 2)))
        sep_local = _separator_from_cut(sub, bi.side)
        in_sep = np.zeros(sub.num_vertices, dtype=bool)
        in_sep[sep_local] = True
        a_local = np.flatnonzero(~bi.side & ~in_sep)
        b_local = np.flatnonzero(bi.side & ~in_sep)
        if a_local.size == 0 or b_local.size == 0:
            # Degenerate cut (e.g. a clique): stop dissecting this region.
            stats.add("leaf", work=float(sub.num_edges), span=0.0)
            return old_ids[_leaf_order(sub)], own_span
        sub_a, ids_a = sub.subgraph(a_local)
        sub_b, ids_b = sub.subgraph(b_local)
        part_a, span_a = recurse(sub_a, old_ids[ids_a], depth + 1)
        part_b, span_b = recurse(sub_b, old_ids[ids_b], depth + 1)
        # Separator last, ordered by degree (hubs at the very end).
        sep_sorted = sep_local[np.argsort(sub.degrees()[sep_local], kind="stable")]
        ordering = np.concatenate([part_a, part_b, old_ids[sep_sorted]])
        return ordering, own_span + max(span_a, span_b)

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        order, path_span = recurse(graph, np.arange(n, dtype=np.int64), 0)
    finally:
        sys.setrecursionlimit(old_limit)
    visit[:] = order
    cursor = n
    assert cursor == n
    stats.span += path_span
    return OrderingResult(
        name="ND",
        permutation=permutation_from_order(visit),
        stats=stats,
        extra={"depth": max_span_depth},
    )
