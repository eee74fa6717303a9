"""Registry of reordering algorithms — the paper's Table III roster.

Names match the paper's labels exactly ("Rabbit", "Slash", "BFS", "RCM",
"ND", "LLP", "Shingle", "Degree", "Random").  Each entry is a callable
``f(graph, *, rng=0, **params) -> OrderingResult``: every entry that
draws random numbers defaults to seed 0, so each result is a function of
(graph, seed).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph
from repro.order.base import OrderingResult, traced_ordering
from repro.order.bfs_rcm import bfs_order, cuthill_mckee_order, rcm_order
from repro.order.llp import llp_order
from repro.order.nd import nd_order
from repro.order.rabbit_adapter import (
    rabbit_dict_order_result,
    rabbit_order_result,
    rabbit_par_order_result,
)
from repro.order.shingle import shingle_order
from repro.order.simple import degree_order, random_order
from repro.order.slashburn import slashburn_order

__all__ = ["ALGORITHMS", "TABLE3_ORDER", "get_algorithm", "list_algorithms"]

OrderingFn = Callable[..., OrderingResult]

# Every entry is wrapped with the standard instrumentation (span +
# registry counters) at construction, so direct ``ALGORITHMS[name]``
# calls and ``get_algorithm`` dispatch are measured identically.
ALGORITHMS: dict[str, OrderingFn] = {
    name: traced_ordering(name, fn)
    for name, fn in {
        "Rabbit": rabbit_order_result,
        # The reference dict engine, bit-identical to "Rabbit"; not part
        # of Table III but kept registered so the bench suites measure
        # both engines and the regression gate covers the oracle too.
        "RabbitDict": rabbit_dict_order_result,
        # Algorithm 3 on the reference state under the deterministic
        # interleaving scheduler — replayable bench rows of the
        # paper-fidelity model.
        "RabbitPar": rabbit_par_order_result,
        "Slash": slashburn_order,
        "BFS": bfs_order,
        "RCM": rcm_order,
        "CM": cuthill_mckee_order,
        "ND": nd_order,
        "LLP": llp_order,
        "Shingle": shingle_order,
        "Degree": degree_order,
        "Random": random_order,
    }.items()
}

#: The competitors as listed in Table III (Random last: the baseline).
TABLE3_ORDER: tuple[str, ...] = (
    "Rabbit",
    "Slash",
    "BFS",
    "RCM",
    "ND",
    "LLP",
    "Shingle",
    "Degree",
    "Random",
)


def list_algorithms() -> list[str]:
    """Algorithm names in Table III order."""
    return list(TABLE3_ORDER)


def get_algorithm(name: str) -> OrderingFn:
    """Look up a reordering algorithm by its Table III name."""
    if name not in ALGORITHMS:
        raise DatasetError(
            f"unknown reordering algorithm {name!r}; "
            f"available: {', '.join(ALGORITHMS)}"
        )
    return ALGORITHMS[name]


def reorder(graph: CSRGraph, name: str, **kwargs) -> OrderingResult:
    """Convenience: look up *name* and run it on *graph*."""
    return get_algorithm(name)(graph, **kwargs)
