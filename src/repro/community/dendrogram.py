"""Dendrogram produced by incremental aggregation (paper Figure 5).

The dendrogram over the *original* vertex set is stored exactly as in
Algorithm 3: two parallel arrays,

* ``child[v]`` — the **last** vertex merged into ``v`` (``NO_VERTEX`` if
  none), and
* ``sibling[u]`` — the vertex merged into the same destination immediately
  **before** ``u`` (``NO_VERTEX`` if ``u`` was the first),

plus the set of *top-level* vertices (dendrogram roots).  Following
``child`` then the ``sibling`` chain enumerates a vertex's direct children
from most-recently merged to first-merged.

Ordering generation (Algorithm 2's ``OrderingGeneration``) is the
post-order DFS over this forest: children subtrees first (most recent
child first, matching the paper's running example where DFS from top-level
4 yields 5, 7, 0, 2, 4), then the vertex itself.

Two bounded walks read the links: :func:`dfs_preorder`, the ordering
DFS (the compiled ``rabbit_dfs`` is the same walk), and
:func:`chain_walk`, which follows child→sibling chains to direct
children.  Every other reader here derives from one of them, so links
that are not a forest raise ``GraphFormatError`` instead of looping.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.perm import permutation_from_order

__all__ = [
    "NO_VERTEX",
    "Dendrogram",
    "chain_walk",
    "dfs_error",
    "dfs_preorder",
    "require_partition",
]

#: Sentinel for "no vertex" links (the paper uses UINT32_MAX; we use -1
#: since the arrays are int64).
NO_VERTEX: int = -1


def dfs_error(n: int, link: int | None = None) -> GraphFormatError:
    """The error the ordering DFS raises on links that are not a forest
    over ``n`` vertices: *link* is an id out of range, or ``None`` when
    the walk would push more than ``n`` vertices, so one of them twice.
    The compiled walk raises the same."""
    if link is not None:
        return GraphFormatError(f"dendrogram id {link} out of range [0, {n})")
    return GraphFormatError(
        f"dendrogram links are not a forest: the DFS would push more than {n} "
        "vertices, so a vertex appears twice (a cycle, or a vertex with two "
        "parents)"
    )


def dfs_preorder(
    child: Sequence[int], sibling: Sequence[int], roots: Iterable[int]
) -> list[int]:
    """The ordering DFS from *roots*, as the order it pops vertices.

    The pops are a preorder that visits children first-merged-first;
    reversed, they are the post-order visit of Algorithm 2
    (:meth:`Dendrogram.dfs_visit_order`).  Pushing roots in forest
    order and each child chain most-recent-first makes one flat stack
    with a single push/pop per vertex produce exactly that, with no
    (vertex, expanded) marker pairs and no per-node chain lists.

    In a forest every push names a new vertex, so the walk checks the
    roots, then every link, against ``[0, n)`` and stops with
    :func:`dfs_error` before its pushes pass ``n``: damaged links fail
    closed instead of looping.  *child* and *sibling* may be lists or
    arrays; lists index fastest.
    """
    n = len(child)
    stack = list(roots)
    for r in stack:
        if not 0 <= r < n:
            raise dfs_error(n, r)
    budget = n - len(stack)
    if budget < 0:
        raise dfs_error(n)
    out: list[int] = []
    while stack:
        v = stack.pop()
        out.append(v)
        c = child[v]
        while c != NO_VERTEX:
            if not 0 <= c < n:
                raise dfs_error(n, c)
            budget -= 1
            if budget < 0:
                raise dfs_error(n)
            stack.append(c)
            c = sibling[c]
    return out


def chain_walk(
    child: Sequence[int], sibling: Sequence[int], heads: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Follow the child→sibling chain of each of *heads*: ``links`` are
    their direct children, most-recently merged first per head, and
    ``owners[i]`` is the head that ``links[i]`` hangs from.

    In a forest a vertex hangs from one head at most, so the walk stops
    with a ``GraphFormatError`` at a vertex linked twice (a sibling chain
    that never ends, or a vertex under two of *heads*) or at an id
    outside ``[0, n)``, as :func:`dfs_preorder` does.  It reads no roots:
    a child cycle, or a root repeated or hanging from another root, is
    only seen by a walk from the roots.
    """
    n = len(child)
    linked = bytearray(n)
    owners: list[int] = []
    links: list[int] = []
    for v in heads:
        c = child[v]
        while c != NO_VERTEX:
            if not 0 <= c < n:
                raise dfs_error(n, c)
            if linked[c]:
                raise GraphFormatError(
                    f"dendrogram links are not a forest: vertex {c} is linked "
                    "twice (a sibling chain that cycles, or a vertex with two "
                    "parents)"
                )
            linked[c] = 1
            owners.append(v)
            links.append(c)
            c = sibling[c]
    return owners, links


def require_partition(order: Sequence[int], n: int) -> None:
    """Raise ``GraphFormatError`` unless *order*, the visits of the
    ordering DFS from every root, holds each id of ``[0, n)`` exactly
    once: the top-level subtrees then partition the vertices, and the
    order inverts to a permutation."""
    counts = np.bincount(np.asarray(order, dtype=np.int64), minlength=n)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        v = int(bad[0])
        raise GraphFormatError(
            f"dendrogram is not a forest partition: vertex {v} appears "
            f"{int(counts[v])} times across top-level subtrees (the DFS "
            f"reached {np.count_nonzero(counts)} of {n} vertices)"
        )


@dataclass(frozen=True)
class Dendrogram:
    """Forest over the original vertices recording the merge history."""

    child: np.ndarray  # int64, child[v] = last vertex merged into v
    sibling: np.ndarray  # int64, sibling[u] = previous vertex merged into u's parent
    toplevel: np.ndarray  # int64, roots in detection order
    # Lazily-built plain-list mirrors of child/sibling: the walks are
    # per-node scalar reads, where list indexing beats ndarray indexing by
    # a wide margin.  Built once per dendrogram (the arrays are frozen).
    _links_cache: tuple | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        child = np.asarray(self.child, dtype=np.int64)
        sibling = np.asarray(self.sibling, dtype=np.int64)
        toplevel = np.asarray(self.toplevel, dtype=np.int64)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "sibling", sibling)
        object.__setattr__(self, "toplevel", toplevel)
        if child.shape != sibling.shape:
            raise GraphFormatError("child and sibling arrays must be parallel")

    @property
    def num_vertices(self) -> int:
        return self.child.size

    # ------------------------------------------------------------------
    def children(self, v: int) -> list[int]:
        """Direct children of *v*, most-recently merged first (the chain
        walk)."""
        return chain_walk(*self._link_lists(), [int(v)])[1]

    def members(self, v: int) -> np.ndarray:
        """All vertices in *v*'s subtree (including *v*), in the ordering
        DFS's pop order."""
        return np.array(
            dfs_preorder(*self._link_lists(), [int(v)]), dtype=np.int64
        )

    def community_labels(self) -> np.ndarray:
        """Label each vertex with the index of its top-level root (the
        paper's extracted communities).  The ordering DFS from every root
        must visit each vertex once (:func:`require_partition`); it pops
        one block per root, the last root's first, each led by its root."""
        n = self.num_vertices
        pops = dfs_preorder(*self._link_lists(), self.toplevel.tolist())
        require_partition(pops, n)
        is_root = np.zeros(n, dtype=bool)
        is_root[self.toplevel] = True
        labels = np.empty(n, dtype=np.int64)
        labels[pops] = self.toplevel.size - np.cumsum(is_root[pops])
        return labels

    # ------------------------------------------------------------------
    def _link_lists(self) -> tuple[list[int], list[int]]:
        cached = self._links_cache
        if cached is None:
            cached = (self.child.tolist(), self.sibling.tolist())
            object.__setattr__(self, "_links_cache", cached)
        return cached

    def dfs_visit_order(self) -> np.ndarray:
        """Post-order DFS visit order over the forest (old vertex ids in
        their new positions): for each root, children subtrees first
        (most-recent child first), then the root.

        This is the paper's ORDERINGGENERATION output viewed as a visit
        order; invert it (``permutation_from_order``) to get π.
        """
        pops = dfs_preorder(*self._link_lists(), self.toplevel.tolist())
        pops.reverse()
        return np.array(pops, dtype=np.int64)

    def ordering(self) -> np.ndarray:
        """Permutation π with ``π[old] = new`` (Algorithm 2's output)."""
        return permutation_from_order(self.dfs_visit_order())

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check forest well-formedness: the ordering DFS from the roots
        must visit every vertex exactly once (:func:`require_partition`).

        The DFS is bounded by the vertex count, so corrupted
        ``child``/``sibling`` links (out-of-range ids, cycles) raise a
        :class:`GraphFormatError` instead of looping forever — this is
        what lets the fault-injection auditor run on arbitrarily damaged
        dendrograms.
        """
        require_partition(
            dfs_preorder(*self._link_lists(), self.toplevel.tolist()),
            self.num_vertices,
        )
