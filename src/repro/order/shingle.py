"""Shingle ordering (Chierichetti et al., KDD'09 — paper reference [10]).

Vertices sharing many neighbours get close ids: each vertex's *shingle* is
the minimum of a random hash over its neighbour set (a MinHash signature;
two vertices' shingles collide with probability equal to the Jaccard
similarity of their neighbourhoods).  Sorting by (first shingle, second
shingle) — "double shingle" in the original — clusters similar vertices.

Fully vectorised: hashes for all slots in one array, per-row minima via
``np.minimum.reduceat``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order
from repro.order.base import SORT_SPAN, OrderingResult, OrderingStats

__all__ = ["shingle_order"]

_MERSENNE = (1 << 61) - 1


def _min_hash(graph: CSRGraph, a: int, b: int) -> np.ndarray:
    """Per-vertex minimum of ``h(nbr) = (a*nbr + b) mod p`` over the CSR
    row; isolated vertices hash their own id (keeps the sort total)."""
    n = graph.num_vertices
    hashed = (a * graph.indices + b) % _MERSENNE
    degrees = np.diff(graph.indptr)
    out = (a * np.arange(n, dtype=np.int64) + b) % _MERSENNE
    nonempty = degrees > 0
    if hashed.size:
        starts = graph.indptr[:-1][nonempty]
        mins = np.minimum.reduceat(hashed, starts)
        out[nonempty] = mins
    return out


def shingle_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = 0
) -> OrderingResult:
    """Double-shingle ordering: sort by (shingle₁, shingle₂, degree)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = graph.num_vertices
    a1, b1 = int(rng.integers(1, _MERSENNE)), int(rng.integers(0, _MERSENNE))
    a2, b2 = int(rng.integers(1, _MERSENNE)), int(rng.integers(0, _MERSENNE))
    s1 = _min_hash(graph, a1, b1)
    s2 = _min_hash(graph, a2, b2)
    order = np.lexsort((graph.degrees(), s2, s1))
    stats = OrderingStats()
    # Two MinHash passes touch every slot; the sort costs n log n.
    stats.add("minhash", work=2.0 * graph.num_edges, span=2.0 * max(
        float(np.log2(max(int(graph.degrees().max(initial=1)), 2))), 1.0
    ), barriers=2.0)
    stats.add(
        "sort",
        work=float(n) * float(np.log2(max(n, 2))),
        span=SORT_SPAN(n),
        barriers=2.0 * float(np.log2(max(n, 2))),
    )
    return OrderingResult(
        name="Shingle",
        permutation=permutation_from_order(order.astype(np.int64)),
        stats=stats,
    )
