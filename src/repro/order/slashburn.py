"""SlashBurn ordering (Lim, Kang & Faloutsos, TKDE 2014 — paper ref [12]).

Real-world graphs have no small vertex separators, but they do have hubs:
SlashBurn repeatedly *slashes* the ``k`` highest-degree hubs (placing them
at the **front** of the ordering) and *burns* the graph into components;
the non-giant components ("spokes") are placed at the **back**, and the
giant connected component (GCC) is recursed on.  The result packs hubs
together and groups each spoke contiguously.

Parameters follow the paper's §IV setting: the best configuration
"S-KH with k = 0.02 n" — hub selection per iteration is 2% of the
vertices, and spoke vertices are ordered hub-first (by decreasing degree)
within their component ("K-hub ordering").

SlashBurn is the one sequential algorithm in Table III
(``stats.parallelizable`` is False), which is how the cost model knows to
pin its projected speedup at 1x in Figure 10's reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.perm import permutation_from_order
from repro.order.base import OrderingResult, OrderingStats

__all__ = ["slashburn_order"]


def _spoke_order(
    labels: np.ndarray, sizes: np.ndarray, gcc: int, degrees: np.ndarray
) -> np.ndarray:
    """Every vertex outside component *gcc*, in back-segment order.

    Spokes go in increasing size toward the absolute back (of equal
    sizes, the lower label further back); within a spoke, hubs first
    (decreasing degree, then id) per the K-hub ordering.  One sort
    places every spoke: its key is the spoke's rank from the front of
    the back segment, then -degree, then id.
    """
    by_size = np.argsort(sizes, kind="stable")
    by_size = by_size[by_size != gcc]
    rank = np.empty(sizes.size, dtype=np.int64)
    rank[by_size] = np.arange(by_size.size - 1, -1, -1, dtype=np.int64)
    spokes = np.flatnonzero(labels != gcc)
    return spokes[np.lexsort((spokes, -degrees[spokes], rank[labels[spokes]]))]


def slashburn_order(
    graph: CSRGraph,
    *,
    k_ratio: float = 0.02,
    rng: np.random.Generator | int | None = None,
    max_iterations: int | None = None,
) -> OrderingResult:
    """SlashBurn ordering (Table III's 'Slash')."""
    n = graph.num_vertices
    k = max(1, int(np.ceil(k_ratio * n)))
    stats = OrderingStats(parallelizable=False)
    visit = np.empty(n, dtype=np.int64)
    front = 0
    back = n

    alive_graph = graph
    alive_ids = np.arange(n, dtype=np.int64)  # old id of each alive vertex
    iterations = 0
    limit = max_iterations if max_iterations is not None else n

    while alive_ids.size > k and iterations < limit:
        iterations += 1
        work = float(alive_graph.num_edges + alive_graph.num_vertices)
        stats.add("slash", work=work, span=work)
        deg = alive_graph.degrees()
        # Slash: the k highest-degree hubs go to the front, biggest first.
        hub_local = np.argsort(-deg, kind="stable")[:k]
        visit[front : front + k] = alive_ids[hub_local]
        front += k
        keep_local = np.setdiff1d(
            np.arange(alive_graph.num_vertices, dtype=np.int64), hub_local
        )
        burned, ids_local = alive_graph.subgraph(keep_local)
        burned_old = alive_ids[ids_local]
        # Burn: split into components; spokes go to the back.
        comp = connected_components(burned)
        stats.add(
            "burn",
            work=float(burned.num_edges + burned.num_vertices),
            span=float(burned.num_edges + burned.num_vertices),
        )
        if comp.num_components == 0:
            alive_ids = np.empty(0, dtype=np.int64)
            break
        sizes = comp.component_sizes()
        gcc = int(np.argmax(sizes))
        spokes = _spoke_order(comp.labels, sizes, gcc, burned.degrees())
        back -= spokes.size
        visit[back : back + spokes.size] = burned_old[spokes]
        gcc_local = np.flatnonzero(comp.labels == gcc)
        alive_graph, ids2 = burned.subgraph(gcc_local)
        alive_ids = burned_old[ids2]

    # Remainder (<= k vertices, or iteration cap hit): front, hubs first.
    if alive_ids.size:
        deg = alive_graph.degrees()
        rest = alive_ids[np.argsort(-deg, kind="stable")]
        visit[front : front + rest.size] = rest
        front += rest.size
    if front != back:
        raise AssertionError(
            f"SlashBurn bookkeeping error: front={front}, back={back}"
        )
    return OrderingResult(
        name="Slash",
        permutation=permutation_from_order(visit),
        stats=stats,
        extra={"iterations": iterations, "k": k},
    )
