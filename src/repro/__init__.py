"""repro — a from-scratch reproduction of *Rabbit Order: Just-in-Time
Parallel Reordering for Fast Graph Analysis* (Arai et al., IPDPS 2016).

Quickstart::

    import numpy as np
    from repro import CSRGraph, rabbit_order, pagerank

    g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])   # a triangle
    result = rabbit_order(g)
    reordered = g.permute(result.permutation)
    scores = pagerank(reordered).scores

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.rabbit` — the paper's contribution (Algorithms 2-4).
* :mod:`repro.graph` — CSR substrate, permutations, generators, I/O.
* :mod:`repro.order` — the Table III competitor orderings.
* :mod:`repro.analysis` — PageRank, BFS, DFS, SCC, diameter, k-core.
* :mod:`repro.cache` — the cache/TLB simulator and cycle cost model.
* :mod:`repro.parallel` — atomics, schedulers, scalability model.
* :mod:`repro.community` — modularity, dendrograms, label propagation.
* :mod:`repro.metrics` — static locality metrics.
* :mod:`repro.experiments` — per-figure/table reproduction harness.
"""

from repro.analysis import (
    bfs,
    connected_components,
    core_numbers,
    dfs,
    pagerank,
    pseudo_diameter,
    spmv,
    strongly_connected_components,
)
from repro.cache import paper_machine, scaled_machine, simulate_spmv
from repro.community import Dendrogram, modularity
from repro.errors import ReproError
from repro.graph import (
    CSRGraph,
    invert_permutation,
    random_permutation,
    validate_permutation,
)
from repro.order import TABLE3_ORDER, get_algorithm, list_algorithms, reorder
from repro.rabbit import RabbitResult, rabbit_order

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CSRGraph",
    "rabbit_order",
    "RabbitResult",
    "Dendrogram",
    "modularity",
    "reorder",
    "get_algorithm",
    "list_algorithms",
    "TABLE3_ORDER",
    "pagerank",
    "spmv",
    "bfs",
    "dfs",
    "strongly_connected_components",
    "connected_components",
    "pseudo_diameter",
    "core_numbers",
    "simulate_spmv",
    "paper_machine",
    "scaled_machine",
    "validate_permutation",
    "invert_permutation",
    "random_permutation",
    "ReproError",
]
