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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.perm import permutation_from_order

__all__ = ["NO_VERTEX", "Dendrogram", "dfs_error"]

#: Sentinel for "no vertex" links (the paper uses UINT32_MAX; we use -1
#: since the arrays are int64).
NO_VERTEX: int = -1


def dfs_error(n: int, link: int | None = None) -> GraphFormatError:
    """The error the ordering DFS raises on links that are not a forest
    over ``n`` vertices: *link* is an id out of range, or ``None`` when
    the walk would push more than ``n`` vertices (a cycle, or a vertex
    with two parents).  The compiled walk raises the same."""
    if link is not None:
        return GraphFormatError(f"dendrogram id {link} out of range [0, {n})")
    return GraphFormatError(
        f"dendrogram links are not a forest: the DFS would push more than {n} "
        "vertices"
    )


@dataclass(frozen=True)
class Dendrogram:
    """Forest over the original vertices recording the merge history."""

    child: np.ndarray  # int64, child[v] = last vertex merged into v
    sibling: np.ndarray  # int64, sibling[u] = previous vertex merged into u's parent
    toplevel: np.ndarray  # int64, roots in detection order
    # Lazily-built plain-list mirrors of child/sibling: DFS traversals are
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
        """Direct children of *v*, most-recently merged first."""
        out: list[int] = []
        c = int(self.child[v])
        while c != NO_VERTEX:
            out.append(c)
            c = int(self.sibling[c])
        return out

    def members(self, v: int) -> np.ndarray:
        """All vertices in *v*'s subtree (including *v*), DFS order: the
        ordering walk's pops, so damaged links fail closed here too."""
        return np.array(self._reverse_preorder([int(v)])[::-1], dtype=np.int64)

    def parents(self) -> np.ndarray:
        """Reconstruct ``parent[u]`` (``NO_VERTEX`` for roots)."""
        parent = np.full(self.num_vertices, NO_VERTEX, dtype=np.int64)
        for v in range(self.num_vertices):
            c = int(self.child[v])
            while c != NO_VERTEX:
                parent[c] = v
                c = int(self.sibling[c])
        return parent

    def community_labels(self) -> np.ndarray:
        """Label each vertex with the index of its top-level root (the
        paper's extracted communities)."""
        labels = np.full(self.num_vertices, -1, dtype=np.int64)
        for i, root in enumerate(self.toplevel):
            labels[self.members(int(root))] = i
        return labels

    def subtree_sizes(self) -> np.ndarray:
        """Size of each vertex's subtree (itself included)."""
        parent = self.parents()
        sizes = np.ones(self.num_vertices, dtype=np.int64)
        # Accumulate bottom-up: process vertices in an order where children
        # precede parents — a reverse DFS from the roots gives exactly that.
        order = self.dfs_visit_order()
        for v in order:  # post-order: children always appear before parents
            p = parent[v]
            if p != NO_VERTEX:
                sizes[p] += sizes[v]
        return sizes

    # ------------------------------------------------------------------
    def _link_lists(self) -> tuple[list[int], list[int]]:
        cached = self._links_cache
        if cached is None:
            cached = (self.child.tolist(), self.sibling.tolist())
            object.__setattr__(self, "_links_cache", cached)
        return cached

    def _reverse_preorder(self, roots: list[int]) -> list[int]:
        """Shared DFS core: the post-order visit, computed backwards.

        ``reversed(postorder(v))`` is a *preorder* that visits children
        first-merged-first, so one flat stack with a single push/pop per
        vertex suffices — no (vertex, expanded) marker pairs, no per-node
        chain lists.  Pushing roots in forest order and each child chain
        in most-recent-first order makes the pops produce exactly that
        reversed sequence; the caller reverses once at the end.

        In a forest every push names a new vertex, so the walk stops
        with :func:`dfs_error` before its pushes pass ``n`` or it reads
        an id outside ``[0, n)``: damaged links fail closed instead of
        looping.
        """
        child, sibling = self._link_lists()
        n = len(child)
        out: list[int] = []
        stack = list(roots)
        budget = n - len(stack)
        if budget < 0:
            raise dfs_error(n)
        for r in stack:
            if not 0 <= r < n:
                raise dfs_error(n, r)
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
        out.reverse()
        return out

    def dfs_visit_order(self, toplevel_subset: np.ndarray | None = None) -> np.ndarray:
        """Post-order DFS visit order over the forest (old vertex ids in
        their new positions): for each root, children subtrees first
        (most-recent child first), then the root.

        This is the paper's ORDERINGGENERATION output viewed as a visit
        order; invert it (``permutation_from_order``) to get π.
        """
        roots = self.toplevel if toplevel_subset is None else toplevel_subset
        return np.array(
            self._reverse_preorder([int(r) for r in np.asarray(roots)]),
            dtype=np.int64,
        )

    def ordering(self) -> np.ndarray:
        """Permutation π with ``π[old] = new`` (Algorithm 2's output)."""
        return permutation_from_order(self.dfs_visit_order())

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check forest well-formedness: every vertex reachable from
        exactly one root, no cycles.

        The traversal is bounded by the vertex count, so corrupted
        ``child``/``sibling`` links (out-of-range ids, cycles) raise a
        :class:`GraphFormatError` instead of looping forever — this is
        what lets the fault-injection auditor run on arbitrarily damaged
        dendrograms.
        """
        n = self.num_vertices
        seen = np.zeros(n, dtype=np.int64)
        for root in self.toplevel:
            r = int(root)
            if not 0 <= r < n:
                raise GraphFormatError(
                    f"dendrogram top-level id {r} out of range [0, {n})"
                )
            stack = [r]
            while stack:
                v = stack.pop()
                seen[v] += 1
                if seen[v] > 1:
                    # Also catches child links pointing back at an
                    # ancestor: the revisit fires before any infinite loop.
                    raise GraphFormatError(
                        f"dendrogram is not a forest partition: vertex {v} "
                        f"appears {int(seen[v])} times across top-level "
                        "subtrees"
                    )
                c = int(self.child[v])
                while c != NO_VERTEX:
                    if not 0 <= c < n:
                        raise GraphFormatError(
                            f"dendrogram child link {c} of vertex {v} out of "
                            f"range [0, {n})"
                        )
                    stack.append(c)
                    if len(stack) > n:
                        raise GraphFormatError(
                            "dendrogram sibling chain contains a cycle "
                            f"(chain exceeded {n} links)"
                        )
                    c = int(self.sibling[c])
        if np.any(seen != 1):
            bad = int(np.flatnonzero(seen != 1)[0])
            raise GraphFormatError(
                f"dendrogram is not a forest partition: vertex {bad} appears "
                f"{int(seen[bad])} times across top-level subtrees"
            )
