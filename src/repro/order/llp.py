"""Layered Label Propagation (Boldi et al., WWW 2011 — paper ref [19]).

LLP runs label propagation repeatedly with a decreasing sequence of APM
resolution parameters γ and *layers* the clusterings into one ordering:
after each layer, vertices are stably re-sorted so that members of each
label become contiguous while the relative order established by previous
(coarser) layers is preserved — labels are ranked by the position of
their first member in the current ordering, exactly the combination rule
of the original paper.

LLP matches Rabbit Order's locality in the paper (Fig. 8) but costs an
order of magnitude more reordering time (Fig. 7): every layer is a full
multi-iteration label propagation over all edges, and our work counters
reflect that directly.
"""

from __future__ import annotations

import numpy as np

from repro.community.labelprop import label_propagation
from repro.graph.csr import CSRGraph
from repro.graph.perm import invert_permutation
from repro.order.base import SORT_SPAN, OrderingResult, OrderingStats

__all__ = ["llp_order", "DEFAULT_GAMMAS"]

#: The γ schedule: plain label propagation first, then APM with
#: geometrically decreasing resolution (the original uses γ ∈ {0} ∪ 2^-i).
DEFAULT_GAMMAS: tuple[float, ...] = (0.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


def llp_order(
    graph: CSRGraph,
    *,
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
    max_iterations: int = 10,
    rng: np.random.Generator | int | None = 0,
) -> OrderingResult:
    """Layered Label Propagation ordering (Table III's 'LLP')."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = graph.num_vertices
    stats = OrderingStats()
    order = np.arange(n, dtype=np.int64)  # current visit order
    total_iters = 0
    for gamma in gammas:
        lp = label_propagation(
            graph, gamma=gamma, max_iterations=max_iterations, rng=rng
        )
        total_iters += lp.iterations
        # Each LP iteration is a parallel sweep over all edges with a
        # barrier per chunk flush: span accumulates one constant per
        # iteration, barriers one per chunk update round.
        stats.add(
            f"lp(gamma={gamma:g})",
            work=lp.work,
            span=float(lp.iterations),
            barriers=8.0 * lp.iterations,  # default chunk count
        )
        labels = lp.labels
        # Combination step: rank labels by first occurrence in `order`,
        # then stably sort `order` by that rank.
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(rank, labels, pos)
        order = order[np.argsort(rank[labels[order]], kind="stable")]
        stats.add(
            "combine",
            work=float(n) * float(np.log2(max(n, 2))),
            span=SORT_SPAN(n),
            barriers=2.0 * float(np.log2(max(n, 2))),
        )
    return OrderingResult(
        name="LLP",
        permutation=invert_permutation(order),
        stats=stats,
        extra={"layers": len(gammas), "iterations": total_iters},
    )
