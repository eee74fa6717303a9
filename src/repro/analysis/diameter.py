"""Pseudo-diameter by the double-sweep heuristic (paper §IV-E; also the
pseudo-peripheral-vertex source for RCM, following Kumfert's algorithmic
laboratory, the paper's reference [28]).

Repeated BFS: start anywhere, jump to a farthest vertex, repeat while the
eccentricity keeps growing.  The final eccentricity lower-bounds the true
diameter and is exact on trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.traversal import UNREACHED, _check_source, _unreached, _walk
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.obs.trace import span

__all__ = ["PseudoDiameterResult", "pseudo_diameter", "pseudo_peripheral_vertex"]

_MAX_SWEEPS = 16


@dataclass(frozen=True)
class PseudoDiameterResult:
    diameter: int  # lower bound on the true diameter
    endpoints: tuple[int, int]
    num_sweeps: int  # BFS traversals performed (cost-model input)


def pseudo_diameter(
    graph: CSRGraph, *, source: int | None = None, max_sweeps: int = _MAX_SWEEPS
) -> PseudoDiameterResult:
    """Double-sweep pseudo-diameter of *source*'s component (component of
    vertex 0 by default)."""
    n = graph.num_vertices
    if n == 0:
        raise GraphFormatError("pseudo-diameter of an empty graph is undefined")
    current = _check_source(graph, 0 if source is None else source)
    level, parent = _unreached(n)
    with span("analysis.diameter", n=n):
        return _double_sweep(graph, current, level, parent, max_sweeps)


def _double_sweep(
    graph: CSRGraph,
    current: int,
    level: np.ndarray,
    parent: np.ndarray,
    max_sweeps: int = _MAX_SWEEPS,
) -> PseudoDiameterResult:
    """:func:`pseudo_diameter`'s sweeps on a caller-owned ``level`` /
    ``parent`` pair, all ``UNREACHED`` on entry and again on return: each
    sweep resets what it reached, so a caller walking many components
    pays for each component, not for the whole graph."""
    best = -1
    start = current
    sweeps = 0
    degrees = graph.degrees()
    while sweeps < max_sweeps:
        order, levels, _ = _walk(
            graph, np.array([current], dtype=np.int64), level, parent
        )
        sweeps += 1
        ecc = levels - 1
        # Farthest vertex; break ties toward the smallest degree (a common
        # pseudo-peripheral refinement: low-degree extremes are "pointier").
        far = order[level[order] == ecc]
        nxt = int(far[np.argmin(degrees[far])])
        level[order] = UNREACHED
        parent[order] = UNREACHED
        if ecc <= best:
            break
        best = ecc
        start, current = current, nxt
    return PseudoDiameterResult(
        diameter=best, endpoints=(start, current), num_sweeps=sweeps
    )


def pseudo_peripheral_vertex(graph: CSRGraph, *, source: int = 0) -> int:
    """A vertex of (locally) maximal eccentricity — RCM's starting point."""
    return pseudo_diameter(graph, source=source).endpoints[1]
