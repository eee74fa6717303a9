"""Connected components of a symmetric graph.

Label-propagation-free implementation: the labels come from one BFS
forest (:func:`~repro.analysis.traversal.bfs_forest`, one compiled walk
over shared state, O(n + m)).  Doubles as the independent oracle for the
SCC tests on undirected inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.traversal import bfs_forest
from repro.graph.csr import CSRGraph
from repro.graph.validate import require_symmetric
from repro.obs.trace import span

__all__ = ["ComponentsResult", "connected_components", "largest_component"]


@dataclass(frozen=True)
class ComponentsResult:
    labels: np.ndarray
    num_components: int

    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_components)


def connected_components(graph: CSRGraph) -> ComponentsResult:
    """Label the connected components of a symmetric graph, numbered in
    the order of their smallest vertex id."""
    require_symmetric(graph, "connected components")
    n = graph.num_vertices
    with span("analysis.components", n=n) as sp:
        forest = bfs_forest(graph)
        # The forest walks from each unvisited id in ascending order, so
        # every walk's seed (its only level-0 vertex) is its smallest id.
        roots = forest.level[forest.order] == 0
        labels = np.empty(n, dtype=np.int64)
        labels[forest.order] = np.cumsum(roots) - 1
        comp = int(np.count_nonzero(roots))
        sp.set(components=comp)
    return ComponentsResult(labels=labels, num_components=comp)


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph of the largest connected component.

    Returns ``(subgraph, old_ids)``.
    """
    res = connected_components(graph)
    if res.num_components == 0:
        return graph, np.empty(0, dtype=np.int64)
    big = int(np.argmax(res.component_sizes()))
    return graph.subgraph(np.flatnonzero(res.labels == big))
