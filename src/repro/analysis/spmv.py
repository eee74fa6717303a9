"""Sparse matrix–vector multiplication over CSR (paper Algorithm 1).

Two kernels:

* :func:`spmv` — the production kernel: one multiply by the graph's
  cached scipy CSR operator (:meth:`CSRGraph.matvec_operator`).  scipy's
  ``csr_matvec`` adds ``data[k] * x[indices[k]]`` into a zero-initialised
  row sum in slot order — the same products, added in the same order, as
  Algorithm 1 — so its result equals :func:`spmv_naive` bit for bit.
* :func:`spmv_naive` — a line-for-line transcription of Algorithm 1, used
  as the test oracle and as the definition of the memory-access stream the
  cache simulator replays (:mod:`repro.cache.trace` generates addresses in
  exactly this loop order).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["spmv", "spmv_naive"]


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
    return graph.matvec_operator() @ x


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
