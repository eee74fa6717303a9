"""Graph traversals: BFS and DFS (paper §IV-E workloads).

BFS is level-synchronous and runs in the compiled library
(``rabbit_bfs`` in ``repro/graph/kernels.c``) over caller-owned
``level``/``parent`` arrays; :func:`_numpy_walk` is the same walk in
numpy, kept as the no-compiler fallback and as the test oracle.  DFS is
an iterative explicit-stack implementation with discovery/finish times.
Both return their *visit order*, which doubles as a reordering strategy
in :mod:`repro.order.bfs_rcm`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph import native
from repro.graph.csr import CSRGraph
from repro.obs.trace import span

__all__ = ["BFSResult", "DFSResult", "bfs", "bfs_forest", "dfs", "dfs_forest"]

UNREACHED = -1


@dataclass(frozen=True)
class BFSResult:
    """Level-synchronous BFS output.

    ``order`` lists vertices in visit order (source first); ``level[v]`` is
    the hop distance from the source (``-1`` if unreached); ``parent[v]``
    is v's BFS-tree parent (``-1`` for the source / unreached).
    """

    order: np.ndarray
    level: np.ndarray
    parent: np.ndarray

    @property
    def num_reached(self) -> int:
        return self.order.size

    @property
    def eccentricity(self) -> int:
        """Largest finite level (0 for a single-vertex traversal)."""
        return int(self.level[self.order].max()) if self.order.size else 0


@dataclass(frozen=True)
class DFSResult:
    order: np.ndarray  # discovery order
    discovered: np.ndarray  # discovery timestamp, -1 if unreached
    finished: np.ndarray  # finish timestamp, -1 if unreached


def _check_source(graph: CSRGraph, source: int) -> int:
    source = int(source)
    if not (0 <= source < graph.num_vertices):
        raise GraphFormatError(
            f"source {source} out of range [0, {graph.num_vertices})"
        )
    return source


def _next_level(
    graph: CSRGraph,
    frontier: np.ndarray,
    depth: int,
    level: np.ndarray,
    parent: np.ndarray,
    degrees: np.ndarray | None,
) -> np.ndarray:
    """Mark and return the unvisited out-neighbours of *frontier* (level
    *depth*), sorted by id, or by ``(degree, id)`` given *degrees*."""
    indptr, indices = graph.indptr, graph.indices
    # Gather all neighbours of the frontier in one shot: the slot index
    # array [starts[0]..starts[0]+c0), ...
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    slot = np.arange(total, dtype=np.int64) - offsets + np.repeat(
        indptr[frontier], counts
    )
    nbrs = indices[slot]
    srcs = np.repeat(frontier, counts)
    fresh = level[nbrs] == UNREACHED
    nbrs, srcs = nbrs[fresh], srcs[fresh]
    # First occurrence, in frontier then slot order, wins as the parent.
    uniq, first = np.unique(nbrs, return_index=True)
    level[uniq] = depth
    parent[uniq] = srcs[first]
    if degrees is not None:
        uniq = uniq[np.argsort(degrees[uniq], kind="stable")]
    return uniq


def _numpy_walk(
    graph: CSRGraph,
    seeds: np.ndarray,
    level: np.ndarray,
    parent: np.ndarray,
    sorted_neighbors: bool,
) -> tuple[np.ndarray, int]:
    """The compiled walk's contract in numpy, one level per step (the
    no-compiler fallback and the test oracle): see :func:`_walk`."""
    degrees = graph.degrees() if sorted_neighbors else None
    chunks: list[np.ndarray] = []
    levels = 0
    for s in np.asarray(seeds, dtype=np.int64).tolist():
        if level[s] != UNREACHED:
            continue
        level[s], parent[s] = 0, UNREACHED
        frontier = np.array([s], dtype=np.int64)
        depth = 0
        while frontier.size:
            chunks.append(frontier)
            levels += 1
            depth += 1
            frontier = _next_level(graph, frontier, depth, level, parent, degrees)
    order = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return order, levels


def _walk(
    graph: CSRGraph,
    seeds: np.ndarray,
    level: np.ndarray,
    parent: np.ndarray,
    sorted_neighbors: bool = False,
) -> tuple[np.ndarray, int, str]:
    """One level-synchronous walk from each seed whose ``level`` is still
    ``UNREACHED``, in seed order, over the caller's ``level``/``parent``
    (int64, n entries; any other level means visited).  Returns the visit
    order, the non-empty levels summed over the walks, and the engine
    (``"native"``, or ``"numpy"`` without the compiled library)."""
    if native.library() is None:
        return (*_numpy_walk(graph, seeds, level, parent, sorted_neighbors), "numpy")
    return (*native.bfs_walk(graph, seeds, level, parent, sorted_neighbors), "native")


def _unreached(n: int) -> tuple[np.ndarray, np.ndarray]:
    return (np.full(n, UNREACHED, dtype=np.int64),
            np.full(n, UNREACHED, dtype=np.int64))


def bfs(graph: CSRGraph, source: int, *, sorted_neighbors: bool = False) -> BFSResult:
    """Level-synchronous BFS from *source*.

    ``order`` lists the source, then each level in turn.  Within a level
    the vertices come in ascending id, or, with ``sorted_neighbors``, by
    ascending ``(degree, id)``: the tie-break Cuthill–McKee needs (see
    :mod:`repro.order.bfs_rcm`).  ``parent[v]`` is the first vertex of
    the previous level, in that level's order, with a slot to ``v``.
    The ``analysis.bfs`` span records the ``engine`` and the number of
    ``levels``.
    """
    source = _check_source(graph, source)
    n = graph.num_vertices
    level, parent = _unreached(n)
    with span("analysis.bfs", n=n, source=source) as sp:
        order, levels, engine = _walk(
            graph, np.array([source], dtype=np.int64), level, parent,
            sorted_neighbors,
        )
        sp.set(engine=engine, levels=levels)
    return BFSResult(order=order, level=level, parent=parent)


def bfs_forest(graph: CSRGraph, *, sorted_neighbors: bool = False) -> BFSResult:
    """BFS covering every vertex: walks from each vertex in id order (or
    in stable ascending-degree order, if *sorted_neighbors*) that no
    earlier walk reached, on one shared ``level``/``parent`` pair, so a
    walk never re-enters a vertex another one visited (on a directed
    graph too).  Levels restart from 0 per walk.  One compiled call,
    O(n + m); the ``analysis.bfs_forest`` span records the ``engine``
    and the ``levels`` summed over the walks."""
    n = graph.num_vertices
    level, parent = _unreached(n)
    if sorted_neighbors:
        seeds = np.argsort(graph.degrees(), kind="stable")
    else:
        seeds = np.arange(n, dtype=np.int64)
    with span("analysis.bfs_forest", n=n) as sp:
        order, levels, engine = _walk(graph, seeds, level, parent, sorted_neighbors)
        sp.set(engine=engine, levels=levels)
    return BFSResult(order=order, level=level, parent=parent)


def _dfs_walk(
    graph: CSRGraph,
    seeds: Iterable[int],
    discovered: np.ndarray,
    finished: np.ndarray,
) -> np.ndarray:
    """One explicit-stack DFS from each seed whose ``discovered`` is still
    ``UNREACHED``, in seed order, over the caller's ``discovered`` /
    ``finished`` (int64, n entries), on one clock across the walks, so a
    walk never re-enters a vertex an earlier one visited.  Neighbours are
    explored in CSR slot order.  Returns the discovery order."""
    indptr, indices = graph.indptr, graph.indices
    order: list[int] = []
    clock = 0
    for s in seeds:
        if discovered[s] != UNREACHED:
            continue
        discovered[s] = clock
        clock += 1
        order.append(s)
        # Stack of (vertex, next-slot-cursor).
        stack: list[list[int]] = [[s, int(indptr[s])]]
        while stack:
            frame = stack[-1]
            v, cursor = frame
            end = int(indptr[v + 1])
            advanced = False
            while cursor < end:
                t = int(indices[cursor])
                cursor += 1
                if discovered[t] == UNREACHED:
                    frame[1] = cursor
                    discovered[t] = clock
                    clock += 1
                    order.append(t)
                    stack.append([t, int(indptr[t])])
                    advanced = True
                    break
            if not advanced:
                finished[v] = clock
                clock += 1
                stack.pop()
    return np.array(order, dtype=np.int64)


def dfs(graph: CSRGraph, source: int) -> DFSResult:
    """Iterative depth-first search from *source* with timestamps.

    Neighbours are explored in CSR (ascending id) order, matching the
    recursive definition."""
    source = _check_source(graph, source)
    n = graph.num_vertices
    discovered, finished = _unreached(n)
    with span("analysis.dfs", n=n, source=source):
        order = _dfs_walk(graph, [source], discovered, finished)
    return DFSResult(order=order, discovered=discovered, finished=finished)


def dfs_forest(graph: CSRGraph) -> DFSResult:
    """DFS covering every vertex: walks from each vertex in id order that
    no earlier walk reached, on one shared ``discovered``/``finished``
    pair and one clock, so timestamps are global and each vertex appears
    once (on a directed graph too).  O(n + m), under one
    ``analysis.dfs_forest`` span."""
    n = graph.num_vertices
    discovered, finished = _unreached(n)
    with span("analysis.dfs_forest", n=n):
        order = _dfs_walk(graph, range(n), discovered, finished)
    return DFSResult(order=order, discovered=discovered, finished=finished)
