"""Modularity Q and the paper's merge gain ΔQ (Equation 1).

Conventions follow Newman & Girvan as implemented by networkx (our test
oracle): with adjacency matrix ``A``, total undirected edge weight ``m``
(self-loops counted once), community intra-weight ``L_c`` (loops intra by
definition) and community degree ``deg_c`` (a self-loop adds twice its
weight to its vertex's degree),

    Q = sum_c [ L_c / m  -  (deg_c / (2m))^2 ].

The incremental gain of merging communities ``u`` and ``v`` (paper Eq. 1):

    dQ(u, v) = 2 * ( w_uv / (2m)  -  d(u) d(v) / (2m)^2 )

where ``w_uv`` is the total weight between the two communities and ``d``
is the community degree.  Degrees are additive under merges
(``d(u+v) = d(u) + d(v)``), which is what makes the paper's lazy
aggregation bookkeeping O(1) per merge.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["modularity", "delta_q", "community_degrees", "newman_degrees"]


def newman_degrees(graph: CSRGraph) -> np.ndarray:
    """Weighted degree per vertex with self-loops counted twice."""
    row = graph.row_of_slot()
    loops = row == graph.indices
    if graph.weights is None:
        # Slot count plus loop count: exact integers in float64, the
        # values the weighted sums below give for unit weights.
        deg = graph.degrees().astype(np.float64)
        deg += np.bincount(row[loops], minlength=graph.num_vertices)
        return deg
    w = graph.weights
    deg = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(deg, row, w)
    np.add.at(deg, row[loops], w[loops])
    return deg


def community_degrees(graph: CSRGraph, communities: np.ndarray) -> np.ndarray:
    """Sum of Newman degrees per community label."""
    communities = np.asarray(communities, dtype=np.int64)
    if communities.shape != (graph.num_vertices,):
        raise GraphFormatError(
            f"communities must have shape ({graph.num_vertices},), got {communities.shape}"
        )
    deg = newman_degrees(graph)
    num = int(communities.max()) + 1 if communities.size else 0
    out = np.zeros(num, dtype=np.float64)
    np.add.at(out, communities, deg)
    return out


def modularity(graph: CSRGraph, communities: np.ndarray) -> float:
    """Modularity of the labelling *communities* (``communities[v]`` is
    vertex v's community id).  The graph must be symmetric."""
    communities = np.asarray(communities, dtype=np.int64)
    if communities.shape != (graph.num_vertices,):
        raise GraphFormatError(
            f"communities must have shape ({graph.num_vertices},), got {communities.shape}"
        )
    if communities.size == 0:
        return 0.0
    if communities.min() < 0:
        raise GraphFormatError("community labels must be non-negative")
    m = graph.total_edge_weight()
    if m <= 0:
        return 0.0
    src, dst, w = graph.edge_array()
    same = communities[src] == communities[dst]
    loops = src == dst
    # Non-loop intra slots appear twice (u->v and v->u): halve them.
    intra = float(w[same & ~loops].sum()) / 2.0 + float(w[loops].sum())
    deg_c = community_degrees(graph, communities)
    return intra / m - float(np.sum((deg_c / (2.0 * m)) ** 2))


def delta_q(w_uv: float, d_u: float, d_v: float, m: float) -> float:
    """Paper Equation 1: modularity gain of merging communities u and v.

    Parameters
    ----------
    w_uv:
        total edge weight between the two communities.
    d_u, d_v:
        community (Newman) degrees.
    m:
        total edge weight of the *initial* graph.
    """
    two_m = 2.0 * m
    return 2.0 * (w_uv / two_m - (d_u * d_v) / (two_m * two_m))
