"""Compressed Sparse Row (CSR) graph structure.

This is the canonical in-memory graph representation used throughout the
library, mirroring the three-array CSR layout of the paper's Figure 2:
an index array (``indptr``), a column array (``indices``), and an optional
value array (``weights``).  All reordering algorithms consume and produce
:class:`CSRGraph` instances, and the cache simulator derives its address
streams directly from these arrays.

Vertices are ``0..n-1``.  Undirected graphs are stored symmetrised: each
undirected edge ``{u, v}`` occupies two directed slots ``(u, v)`` and
``(v, u)``; a self-loop occupies a single slot.  ``num_edges`` counts
directed slots (i.e. ``len(indices)``); ``num_undirected_edges`` counts
undirected edges for symmetric graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph", "coalesce_edges"]


def _require_keyable(n: int) -> None:
    """Slot keys ``row * n + col`` must fit in int64 (n² < 2⁶³)."""
    if n > 3_037_000_499:
        raise GraphFormatError(
            f"{n} vertices overflow the int64 slot key row * n + col"
        )


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise GraphFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise GraphFormatError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _sorted_slots(
    key: np.ndarray, weights: np.ndarray | None, coalesce: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort the slot keys ``src * n + dst`` once (stable when weights ride
    along) and, when *coalesce*, merge equal keys, summing their weights
    in input order.  *key* is consumed."""
    if weights is None:
        # equal keys are indistinguishable without weights
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key, weights = key[order], weights[order]
    if not coalesce or key.size == 0:
        return key, weights
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    if weights is not None:
        # Sum weights of duplicate edges into the first slot of each group.
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group, weights)
        weights = summed
    return key[keep], weights


def coalesce_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort edges by ``(src, dst)`` and merge duplicates by summing weights.

    Returns the coalesced ``(src, dst, weights)`` triple.  When *weights* is
    ``None`` the duplicates are merged without accumulating multiplicity
    (i.e. the result is an unweighted simple edge set).  Ids must be
    non-negative; the edges are ordered by one sort of the slot key
    ``src * n + dst`` with ``n`` the largest id plus one.
    """
    src = _as_index_array(src, "src")
    dst = _as_index_array(dst, "dst")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    _require_keyable(n)
    key, weights = _sorted_slots(src * n + dst, weights, coalesce=True)
    src = key // n
    return src, key - src * n, weights


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s neighbours live in
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of length ``m`` (directed edge slots), sorted within
        each row.
    weights:
        optional ``float64`` array parallel to ``indices``.  ``None`` means
        the graph is unweighted (all edges weight 1).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    _symmetric_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = _as_index_array(self.indptr, "indptr")
        indices = _as_index_array(self.indices, "indices")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.size < 1:
            raise GraphFormatError("indptr must have at least one element")
        if indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {indptr[0]}")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError(
                f"column indices must lie in [0, {n}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != indices.shape:
                raise GraphFormatError(
                    f"weights shape {w.shape} must match indices shape {indices.shape}"
                )
            object.__setattr__(self, "weights", w)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src,
        dst,
        num_vertices: int | None = None,
        weights=None,
        *,
        symmetrize: bool = True,
        coalesce: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel source/destination arrays.

        Parameters
        ----------
        symmetrize:
            add the reversed copy of every non-loop edge, producing an
            undirected (symmetric) graph.
        coalesce:
            sort and merge duplicate edges (weights summed).

        Slots are ordered by one sort of the slot key ``src * n + dst``
        (stable when weights ride along), so ``n`` must satisfy
        ``n² < 2⁶³``; larger graphs raise before anything of size ``n``
        is allocated.  A row index of ``n`` that cannot be allocated (``n``
        is the largest id + 1 unless given) is a ``GraphFormatError`` too,
        not a ``MemoryError``.
        """
        src = _as_index_array(np.asarray(src), "src")
        dst = _as_index_array(np.asarray(dst), "dst")
        if src.shape != dst.shape:
            raise GraphFormatError(
                f"src shape {src.shape} must match dst shape {dst.shape}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphFormatError("weights must be parallel to src/dst")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphFormatError("vertex ids must be non-negative")
        observed = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        n = observed if num_vertices is None else int(num_vertices)
        if n < observed:
            raise GraphFormatError(
                f"num_vertices={n} is smaller than max vertex id {observed - 1}"
            )
        _require_keyable(n)
        key = src * n + dst
        if symmetrize:
            nonloop = src != dst
            key = np.concatenate([key, (dst * n + src)[nonloop]])
            if weights is not None:
                weights = np.concatenate([weights, weights[nonloop]])
        key, weights = _sorted_slots(key, weights, coalesce)
        rows = key // n
        dst = key - rows * n
        try:
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            return cls(indptr=indptr, indices=dst, weights=weights)
        except MemoryError as exc:
            # n is the largest id + 1, which an input of a few bytes sets
            raise GraphFormatError(
                f"cannot allocate the row index of {n} vertices: {exc}"
            ) from exc

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with *num_vertices* vertices and no edges."""
        return cls(
            indptr=np.zeros(int(num_vertices) + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edge slots (``len(indices)``)."""
        return self.indices.size

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges: ``(m + #loops) / 2`` for a symmetric
        graph (each non-loop edge occupies two slots, a loop one)."""
        loops = self.num_self_loops
        return (self.num_edges - loops) // 2 + loops

    @property
    def num_self_loops(self) -> int:
        row = self.row_of_slot()
        return int(np.count_nonzero(self.indices == row))

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def row_of_slot(self) -> np.ndarray:
        """Array of length ``m`` giving the source vertex of each slot.

        Cached after the first call (O(m) to rebuild) and marked
        read-only — copy before mutating.
        """
        cache = self._symmetric_cache
        if "row_of_slot" not in cache:
            arr = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            arr.setflags(write=False)
            cache["row_of_slot"] = arr
        return cache["row_of_slot"]

    def degrees(self) -> np.ndarray:
        """Out-degree of each vertex (number of slots).

        Cached after the first call and marked read-only — copy before
        mutating.
        """
        cache = self._symmetric_cache
        if "degrees" not in cache:
            arr = np.diff(self.indptr)
            arr.setflags(write=False)
            cache["degrees"] = arr
        return cache["degrees"]

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (slot weights; a loop's
        stored weight counts once, matching the paper's additive degree)."""
        if self.weights is None:
            return np.diff(self.indptr).astype(np.float64)
        out = np.zeros(self.num_vertices, dtype=np.float64)
        np.add.at(out, self.row_of_slot(), self.weights)
        return out

    def edge_weights(self) -> np.ndarray:
        """Weights array, materialising implicit unit weights.

        The materialised unit array is cached after the first call and
        marked read-only — copy before mutating.  (Weighted graphs return
        ``self.weights`` directly, as before.)
        """
        if self.weights is not None:
            return self.weights
        cache = self._symmetric_cache
        if "unit_weights" not in cache:
            arr = np.ones(self.num_edges, dtype=np.float64)
            arr.setflags(write=False)
            cache["unit_weights"] = arr
        return cache["unit_weights"]

    def total_edge_weight(self) -> float:
        """Total undirected edge weight: half the slot-weight sum plus half
        the loop weight again (loops occupy a single slot)."""
        if self.weights is None:
            # Unit weights sum to the exact slot and loop counts.
            loop_w = float(self.num_self_loops)
            return (self.num_edges - loop_w) / 2.0 + loop_w
        w = self.weights
        loop_w = float(w[self.indices == self.row_of_slot()].sum())
        return (float(w.sum()) - loop_w) / 2.0 + loop_w

    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex *v*'s neighbour slots."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.indptr[v + 1] - self.indptr[v], dtype=np.float64)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, w)`` for every directed slot."""
        w = self.edge_weights()
        row = self.row_of_slot()
        for k in range(self.num_edges):
            yield int(row[k]), int(self.indices[k]), float(w[k])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, w)`` arrays over all directed slots.

        ``src`` and ``dst`` are fresh writable copies; ``w`` aliases the
        (possibly cached) weights array."""
        return self.row_of_slot().copy(), self.indices.copy(), self.edge_weights()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        k = np.searchsorted(self.indices[lo:hi], v)
        return bool(k < hi - lo and self.indices[lo + k] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v); 0.0 if absent."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        k = np.searchsorted(self.indices[lo:hi], v)
        if k < hi - lo and self.indices[lo + k] == v:
            return 1.0 if self.weights is None else float(self.weights[lo + k])
        return 0.0

    def is_symmetric(self) -> bool:
        """True if every slot (u, v, w) has a matching (v, u, w).

        Graphs with unsorted rows or duplicate slots are reported as not
        symmetric.  Sort-free on the forward side: the reversed keys are
        sorted once and compared with the forward keys, and weights are
        compared (``allclose``) through the same stable order.
        """
        key = "symmetric"
        if key not in self._symmetric_cache:
            n = self.num_vertices
            _require_keyable(n)
            row = self.row_of_slot()
            # Strictly increasing exactly when every row is sorted and
            # free of duplicate slots.
            fwd = row * n + self.indices
            same = bool(np.all(fwd[1:] > fwd[:-1]))
            if same:
                rev = self.indices * n + row
                if self.weights is None:
                    same = np.array_equal(fwd, np.sort(rev))
                else:
                    order = np.argsort(rev, kind="stable")
                    same = np.array_equal(fwd, rev[order]) and bool(
                        np.allclose(self.weights, self.weights[order])
                    )
            self._symmetric_cache[key] = same
        return self._symmetric_cache[key]

    def reverse(self) -> "CSRGraph":
        """Transpose: edge (u, v) becomes (v, u)."""
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(
            dst,
            src,
            num_vertices=self.num_vertices,
            weights=None if self.weights is None else w,
            symmetrize=False,
            coalesce=True,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: old vertex ``v`` becomes ``perm[v]``.

        ``perm`` must be a bijection on ``range(n)``.  This implements the
        paper's Problem 1 application step: the returned graph's adjacency
        matrix is ``P A Pᵀ``.

        The old rows are gathered in new-row order with their columns
        mapped through ``perm``, then sorted and coalesced by the slot-key
        sort :meth:`from_edges` uses, so the result equals a rebuild
        through :meth:`from_edges` bit for bit.
        """
        from repro.graph.perm import validate_permutation

        n = self.num_vertices
        perm = validate_permutation(perm, n)
        _require_keyable(n)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n, dtype=np.int64)
        counts = self.degrees()[inverse]
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        # Old slot of every new slot: rows in new order, each row's slots
        # in their old order (ties of the stable sort keep that order).
        slot = np.arange(self.num_edges, dtype=np.int64)
        slot += np.repeat(self.indptr[inverse] - starts[:-1], counts)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        key = rows * n + perm[self.indices[slot]]
        weights = None if self.weights is None else self.weights[slot]
        key, weights = _sorted_slots(key, weights, coalesce=True)
        # The sorted keys stay in their rows, so `rows` and `starts` hold
        # unless duplicate slots were merged.
        if key.size < rows.size:
            rows = key // n
            np.cumsum(np.bincount(rows, minlength=n), out=starts[1:])
        return CSRGraph(indptr=starts, indices=key - rows * n, weights=weights)

    def without_self_loops(self) -> "CSRGraph":
        src, dst, w = self.edge_array()
        keep = src != dst
        return CSRGraph.from_edges(
            src[keep],
            dst[keep],
            num_vertices=self.num_vertices,
            weights=None if self.weights is None else w[keep],
            symmetrize=False,
            coalesce=False,
        )

    def subgraph(self, vertices) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on *vertices* (array of old ids).

        Returns ``(sub, old_ids)`` where the subgraph's vertex ``i``
        corresponds to ``old_ids[i]`` in ``self``.
        """
        vertices = _as_index_array(np.asarray(vertices), "vertices")
        vertices = np.unique(vertices)
        if vertices.size and (
            vertices[0] < 0 or vertices[-1] >= self.num_vertices
        ):
            raise GraphFormatError("subgraph vertices out of range")
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[vertices] = np.arange(vertices.size, dtype=np.int64)
        src, dst, w = self.edge_array()
        keep = (new_id[src] >= 0) & (new_id[dst] >= 0)
        sub = CSRGraph.from_edges(
            new_id[src[keep]],
            new_id[dst[keep]],
            num_vertices=vertices.size,
            weights=None if self.weights is None else w[keep],
            symmetrize=False,
            coalesce=False,
        )
        return sub, vertices

    def with_unit_weights(self) -> "CSRGraph":
        """Copy with explicit unit weights (used to seed aggregation)."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=np.ones(self.num_edges, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Export as a fresh, writable ``scipy.sparse.csr_matrix``
        (weights or 1s)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.edge_weights(), self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    def matvec_operator(self):
        """The adjacency matrix every SpMV-family analysis multiplies by.

        Built from :meth:`to_scipy` on the first call and cached; its
        ``data``/``indices``/``indptr`` are read-only views (the graph's
        own arrays keep their flags), so the shared operator cannot be
        changed in place — use :meth:`to_scipy` for a writable matrix.
        scipy is imported here, never at module level: paths that never
        multiply (reordering, BFS, the daemon's reorder requests) do not
        load it.
        """
        cache = self._symmetric_cache
        if "matvec_operator" not in cache:
            mat = self.to_scipy()
            for name in ("data", "indices", "indptr"):
                arr = getattr(mat, name).view()
                arr.setflags(write=False)
                setattr(mat, name, arr)
            cache["matvec_operator"] = mat
        return cache["matvec_operator"]

    @classmethod
    def from_scipy(cls, mat) -> "CSRGraph":
        csr = mat.tocsr()
        csr.sort_indices()
        return cls(
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            weights=np.asarray(csr.data, dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(n={self.num_vertices}, slots={self.num_edges}, {kind})"
        )
