"""Graph structural validation helpers.

These checks back the library's invariants in tests and guard experiment
inputs: reordering algorithms in this package require symmetric graphs (the
paper assumes undirected input, §II-B), and a handful of them additionally
require connectivity of the piece they work on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = [
    "check_csr_invariants",
    "require_symmetric",
    "not_symmetric_error",
    "is_sorted_within_rows",
]


def is_sorted_within_rows(graph: CSRGraph) -> bool:
    """True if each row's column indices are strictly increasing (the
    canonical form produced by :meth:`CSRGraph.from_edges`)."""
    idx = graph.indices
    if idx.size < 2:
        return True
    ptr = graph.indptr
    nondecreasing = idx[1:] > idx[:-1]
    # Positions where a new row starts need no ordering constraint.
    row_starts = np.zeros(idx.size - 1, dtype=bool)
    interior = ptr[(ptr > 0) & (ptr < idx.size)]
    row_starts[interior - 1] = True
    return bool(np.all(nondecreasing | row_starts))


def check_csr_invariants(graph: CSRGraph) -> None:
    """Raise :class:`GraphFormatError` if *graph* violates canonical-form
    invariants beyond what the constructor already enforces."""
    if not is_sorted_within_rows(graph):
        raise GraphFormatError("column indices are not sorted within rows")
    if graph.weights is not None:
        if not np.all(np.isfinite(graph.weights)):
            raise GraphFormatError("edge weights must be finite")
        if np.any(graph.weights < 0):
            raise GraphFormatError("edge weights must be non-negative")


def require_symmetric(graph: CSRGraph, what: str = "this algorithm") -> None:
    """Raise unless *graph* is symmetric (undirected)."""
    if not graph.is_symmetric():
        raise not_symmetric_error(what)


def not_symmetric_error(what: str) -> GraphFormatError:
    """The error :func:`require_symmetric` raises, for callers that reach
    the verdict another way."""
    return GraphFormatError(
        f"{what} requires an undirected (symmetric) graph; "
        "build with symmetrize=True or call graph.reverse()-union first"
    )
