"""Classic random-graph generators: Erdős–Rényi, Barabási–Albert,
Watts–Strogatz, and a perturbed-lattice "road network".

These fill out the dataset registry: ER graphs are the community-free
control (reordering should barely help), BA supplies pure power-law
degree skew, WS supplies high clustering with low skew, and the lattice
stands in for the paper's ``road-usa`` graph (near-planar, uniform low
degree, huge diameter — the regime where BFS/RCM-style orderings shine).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = [
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "road_lattice_graph",
]


def _rng_of(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def erdos_renyi_graph(
    num_vertices: int,
    p: float,
    *,
    rng: np.random.Generator | int | None = 0,
) -> CSRGraph:
    """G(n, p) via binomial edge-count + uniform pair sampling (duplicates
    coalesced, so the realised density is marginally below *p* for dense
    settings; negligible for the sparse graphs used here)."""
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise GraphFormatError(f"p must be in [0, 1], got {p}")
    rng = _rng_of(rng)
    n = int(num_vertices)
    total = n * (n - 1) // 2
    count = rng.binomial(total, p) if total else 0
    if count == 0:
        return CSRGraph.empty(n)
    u = rng.integers(0, n, size=count, dtype=np.int64)
    v = rng.integers(0, n, size=count, dtype=np.int64)
    keep = u != v
    return CSRGraph.from_edges(u[keep], v[keep], num_vertices=n, symmetrize=True)


def barabasi_albert_graph(
    num_vertices: int,
    attach: int,
    *,
    rng: np.random.Generator | int | None = 0,
) -> CSRGraph:
    """Preferential attachment: each new vertex attaches to *attach*
    existing vertices chosen proportionally to degree.

    Implemented with the repeated-endpoint trick: sampling uniformly from
    the accumulated endpoint list is exactly degree-proportional, giving an
    O(n·attach) construction without per-step degree recomputation.
    """
    if attach < 1:
        raise GraphFormatError("attach must be >= 1")
    n = int(num_vertices)
    if n < attach + 1:
        raise GraphFormatError(
            f"need at least attach+1={attach + 1} vertices, got {n}"
        )
    rng = _rng_of(rng)
    # Seed: a star on the first attach+1 vertices.
    endpoints = np.empty(2 * attach + 2 * attach * (n - attach - 1), dtype=np.int64)
    srcs = np.empty(attach + attach * (n - attach - 1), dtype=np.int64)
    dsts = np.empty_like(srcs)
    k = 0
    e = 0
    for v in range(1, attach + 1):
        srcs[k], dsts[k] = 0, v
        endpoints[e], endpoints[e + 1] = 0, v
        k += 1
        e += 2
    for v in range(attach + 1, n):
        # Sample distinct degree-proportional targets by rejection.
        targets: set[int] = set()
        while len(targets) < attach:
            t = int(endpoints[rng.integers(0, e)])
            targets.add(t)
        for t in targets:
            srcs[k], dsts[k] = v, t
            endpoints[e], endpoints[e + 1] = v, t
            k += 1
            e += 2
    return CSRGraph.from_edges(srcs[:k], dsts[:k], num_vertices=n, symmetrize=True)


def watts_strogatz_graph(
    num_vertices: int,
    k: int,
    rewire_p: float,
    *,
    rng: np.random.Generator | int | None = 0,
) -> CSRGraph:
    """Ring lattice with *k* nearest neighbours (k even), each edge rewired
    with probability *rewire_p*."""
    n = int(num_vertices)
    if k % 2 != 0 or k < 2:
        raise GraphFormatError("k must be a positive even integer")
    if k >= n:
        raise GraphFormatError(f"k={k} must be < num_vertices={n}")
    if not (0.0 <= rewire_p <= 1.0):
        raise GraphFormatError("rewire_p must be in [0, 1]")
    rng = _rng_of(rng)
    base = np.arange(n, dtype=np.int64)
    srcs = np.repeat(base, k // 2)
    offsets = np.tile(np.arange(1, k // 2 + 1, dtype=np.int64), n)
    dsts = (srcs + offsets) % n
    rewire = rng.random(srcs.size) < rewire_p
    dsts = dsts.copy()
    dsts[rewire] = rng.integers(0, n, size=int(rewire.sum()), dtype=np.int64)
    keep = srcs != dsts
    return CSRGraph.from_edges(srcs[keep], dsts[keep], num_vertices=n, symmetrize=True)


def road_lattice_graph(
    rows: int,
    cols: int,
    *,
    diagonal_p: float = 0.05,
    drop_p: float = 0.05,
    rng: np.random.Generator | int | None = 0,
    shuffle: bool = True,
) -> CSRGraph:
    """Perturbed 2-D lattice standing in for a road network.

    A ``rows x cols`` grid with each horizontal/vertical edge dropped with
    probability *drop_p* and a sparse sprinkling of diagonal "shortcut"
    edges with probability *diagonal_p*.  ``shuffle`` randomises vertex ids
    so the row-major locality of the raw grid does not leak into the
    baseline ordering.
    """
    if rows < 1 or cols < 1:
        raise GraphFormatError("rows and cols must be positive")
    rng = _rng_of(rng)
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    srcs = [idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    dsts = [idx[:, 1:].ravel(), idx[1:, :].ravel()]
    if diagonal_p > 0 and rows > 1 and cols > 1:
        diag_mask = rng.random((rows - 1) * (cols - 1)) < diagonal_p
        srcs.append(idx[:-1, :-1].ravel()[diag_mask])
        dsts.append(idx[1:, 1:].ravel()[diag_mask])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if drop_p > 0:
        keep = rng.random(src.size) >= drop_p
        src, dst = src[keep], dst[keep]
    if shuffle:
        relabel = rng.permutation(n).astype(np.int64)
        src, dst = relabel[src], relabel[dst]
    return CSRGraph.from_edges(src, dst, num_vertices=n, symmetrize=True)
