"""Sparse matrix–vector multiplication over CSR (paper Algorithm 1).

Three kernels:

* :func:`spmv` — the production kernel, fully vectorised
  (``bincount``-based row reduction; O(m), no Python-level loop).
* :func:`spmv_naive` — a line-for-line transcription of Algorithm 1, used
  as the test oracle and as the definition of the memory-access stream the
  cache simulator replays (:mod:`repro.cache.trace` generates addresses in
  exactly this loop order).
* :func:`spmv_blocked` — the thread-blocking decomposition of Williams et
  al. (the paper's §IV-A parallelisation [26]): rows are split into
  near-equal-nnz blocks, each computed independently — the unit of work
  the paper's outermost-loop parallel SpMV hands to each thread.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["spmv", "spmv_naive", "spmv_blocked", "row_blocks"]


def _check_vector(graph: CSRGraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.num_vertices,):
        raise GraphFormatError(
            f"x must have shape ({graph.num_vertices},), got {x.shape}"
        )
    return x


def spmv(graph: CSRGraph, x) -> np.ndarray:
    """Compute ``y = A x`` where ``A`` is *graph*'s (weighted) adjacency
    matrix in CSR form."""
    x = _check_vector(graph, x)
    if graph.num_edges == 0:
        return np.zeros(graph.num_vertices, dtype=np.float64)
    contrib = graph.edge_weights() * x[graph.indices]
    return np.bincount(
        graph.row_of_slot(), weights=contrib, minlength=graph.num_vertices
    )


def spmv_naive(graph: CSRGraph, x) -> np.ndarray:
    """Algorithm 1, verbatim: the scalar CSR SpMV loop.

    The irregular indirect access is ``x[A_C[k]]`` (line 4) — the access
    whose locality vertex reordering optimises.
    """
    x = _check_vector(graph, x)
    n = graph.num_vertices
    a_i, a_c = graph.indptr, graph.indices
    a_v = graph.edge_weights()
    y = np.zeros(n, dtype=np.float64)
    for v in range(n):
        acc = 0.0
        for k in range(a_i[v], a_i[v + 1]):
            acc += a_v[k] * x[a_c[k]]
        y[v] = acc
    return y


def row_blocks(graph: CSRGraph, num_blocks: int) -> list[tuple[int, int]]:
    """Split rows into *num_blocks* contiguous ranges of near-equal slot
    count (the load-balancing step of thread-blocked SpMV).

    Returns ``[(row_start, row_end), ...]`` half-open ranges covering all
    rows; fewer than *num_blocks* ranges are returned when the graph has
    fewer rows.
    """
    if num_blocks < 1:
        raise GraphFormatError(f"num_blocks must be >= 1, got {num_blocks}")
    n = graph.num_vertices
    if n == 0:
        return []
    num_blocks = min(num_blocks, n)
    m = graph.num_edges
    # Cut at the rows whose cumulative slot count crosses each k*m/B mark.
    # Exact ceil-division keeps the targets in the integer index domain
    # (identical cuts: searchsorted-left of an int array at k*m/B and at
    # ceil(k*m/B) select the same position).
    targets = -((np.arange(1, num_blocks) * m) // -num_blocks)
    cuts = np.searchsorted(graph.indptr[1:], targets, side="left") + 1
    bounds = np.concatenate([[0], np.minimum(cuts, n), [n]])
    bounds = np.maximum.accumulate(bounds)
    return [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ] or [(0, n)]


def spmv_blocked(graph: CSRGraph, x, *, num_blocks: int = 8) -> np.ndarray:
    """Thread-blocked ``y = A x`` (Williams et al.; the paper's parallel
    SpMV).  Each row block is an independent vectorised kernel.
    """
    x = _check_vector(graph, x)
    n = graph.num_vertices
    y = np.zeros(n, dtype=np.float64)
    if graph.num_edges == 0:
        return y
    indptr, indices = graph.indptr, graph.indices
    weights = graph.edge_weights()
    for lo, hi in row_blocks(graph, num_blocks):
        s, e = int(indptr[lo]), int(indptr[hi])
        if s == e:
            continue
        contrib = weights[s:e] * x[indices[s:e]]
        rows = np.repeat(
            np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1])
        )
        y[lo:hi] = np.bincount(rows - lo, weights=contrib, minlength=hi - lo)
    return y
