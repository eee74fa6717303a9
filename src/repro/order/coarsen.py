"""Multilevel graph coarsening: heavy-edge matching + contraction.

mt-metis (the paper's Nested Dissection) is a *multilevel* partitioner:
it contracts the graph level by level via heavy-edge matching, bisects
the small coarse graph, then projects the cut back up with refinement at
each level.  This module supplies the coarsening substrate and a
:func:`multilevel_bisect` that upgrades :func:`repro.order.partition.
bisect_graph` to the same recipe — giving the ND baseline the cut
quality METIS owes to multilevel projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.order.partition import BisectionResult, _fm_pass, bisect_graph, cut_size

__all__ = ["CoarseLevel", "heavy_edge_matching", "coarsen", "multilevel_bisect"]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the coarse graph and the fine→coarse map."""

    graph: CSRGraph
    coarse_of: np.ndarray  # fine vertex -> coarse vertex


def heavy_edge_matching(
    graph: CSRGraph, rng: np.random.Generator | int | None = 0
) -> np.ndarray:
    """Greedy heavy-edge matching.

    Visits vertices in random order; each unmatched vertex pairs with its
    unmatched neighbour of maximum edge weight.  Returns ``match`` with
    ``match[v]`` = partner (or ``v`` itself if unmatched).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    indptr, indices = graph.indptr, graph.indices
    weights = graph.edge_weights()
    for v in rng.permutation(n):
        v = int(v)
        if matched[v]:
            continue
        best = -1
        best_w = -1.0
        for k in range(indptr[v], indptr[v + 1]):
            t = int(indices[k])
            if t == v or matched[t]:
                continue
            w = float(weights[k])
            if w > best_w:
                best_w = w
                best = t
        if best >= 0:
            match[v] = best
            match[best] = v
            matched[v] = True
            matched[best] = True
    return match


def coarsen(
    graph: CSRGraph, rng: np.random.Generator | int | None = 0
) -> CoarseLevel:
    """Contract a heavy-edge matching into a coarse graph.

    Matched pairs become one coarse vertex; parallel edges merge with
    summed weights; intra-pair edges become (dropped) self-loops — the
    cut structure of the fine graph is preserved exactly for any coarse
    partition.
    """
    match = heavy_edge_matching(graph, rng)
    n = graph.num_vertices
    # Assign coarse ids: pair representative = min(v, match[v]).
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    uniq, coarse_of = np.unique(rep, return_inverse=True)
    coarse_of = coarse_of.astype(np.int64)
    src, dst, w = graph.edge_array()
    csrc, cdst = coarse_of[src], coarse_of[dst]
    keep = csrc != cdst  # drop contracted (now-loop) edges
    coarse = CSRGraph.from_edges(
        csrc[keep],
        cdst[keep],
        num_vertices=uniq.size,
        weights=w[keep],
        symmetrize=False,
        coalesce=True,
    )
    return CoarseLevel(graph=coarse, coarse_of=coarse_of)


def multilevel_bisect(
    graph: CSRGraph,
    *,
    coarsest_size: int = 96,
    max_levels: int = 12,
    refine_passes: int = 2,
    imbalance: float = 0.05,
    rng: np.random.Generator | int | None = 0,
) -> BisectionResult:
    """METIS-style multilevel bisection.

    Coarsen with heavy-edge matching until the graph is small (or
    matching stalls), bisect the coarsest graph directly, then project
    the side assignment back up level by level with FM refinement.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    levels: list[CoarseLevel] = []
    current = graph
    work = 0.0
    fm_work = 0.0
    for _ in range(max_levels):
        if current.num_vertices <= coarsest_size:
            break
        level = coarsen(current, rng)
        work += float(current.num_edges + current.num_vertices)
        if level.graph.num_vertices >= current.num_vertices * 0.95:
            break  # matching stalled (e.g. star graphs): stop coarsening
        levels.append(level)
        current = level.graph
    base = bisect_graph(current, imbalance=imbalance, rng=rng)
    work += base.work
    fm_work += base.fm_work
    side = base.side
    # Project up and refine.  levels[i] was coarsened from
    # levels[i-1].graph (levels[0] from the original graph).
    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        side = side[level.coarse_of]
        fine = graph if idx == 0 else levels[idx - 1].graph
        max_imbalance = max(2, int(imbalance * fine.num_vertices))
        for _ in range(refine_passes):
            side, gained, pass_work = _fm_pass(fine, side, max_imbalance)
            work += pass_work
            fm_work += pass_work
            if gained <= 0:
                break
    return BisectionResult(
        side=side,
        cut_edges=cut_size(graph, side),
        work=work,
        fm_work=fm_work,
    )
