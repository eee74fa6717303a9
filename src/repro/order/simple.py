"""Trivial orderings: Random (the paper's baseline) and Degree sort.

Degree and Shingle are "essentially simple sorting" (paper §IV), which is
why they reorder fast but gain little locality; Random is the baseline
every speedup in Figures 6–12 is measured against.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order, random_permutation
from repro.order.base import SORT_SPAN, OrderingResult, OrderingStats

__all__ = ["random_order", "degree_order"]


def random_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = 0
) -> OrderingResult:
    """Uniformly random permutation (baseline)."""
    n = graph.num_vertices
    stats = OrderingStats()
    stats.add("shuffle", work=float(n), span=float(np.log2(max(n, 2))))
    return OrderingResult(
        name="Random",
        permutation=random_permutation(n, rng),
        stats=stats,
    )


def degree_order(
    graph: CSRGraph, *, rng: np.random.Generator | int | None = None
) -> OrderingResult:
    """Vertices sorted by increasing degree (stable), Table III's 'Degree'.

    Modelled after the paper's ``__gnu_parallel::sort`` implementation:
    work is n·log n key touches, span is a parallel sort's polylog."""
    n = graph.num_vertices
    order = np.argsort(graph.degrees(), kind="stable")
    stats = OrderingStats()
    stats.add(
        "sort",
        work=float(n) * float(np.log2(max(n, 2))),
        span=SORT_SPAN(n),
        barriers=2.0 * float(np.log2(max(n, 2))),  # merge rounds
    )
    return OrderingResult(
        name="Degree",
        permutation=permutation_from_order(order),
        stats=stats,
    )
