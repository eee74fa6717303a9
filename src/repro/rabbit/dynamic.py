"""Just-in-time reordering for evolving graphs.

The paper's motivation (§I) is that real-world graphs change continuously,
so orderings must be recomputed *just in time* rather than ahead of time.
This module operationalises that workflow: :class:`DynamicReorderer`
maintains a graph under edge insertions, tracks how stale the current
ordering has become (new edges land at random id distances, eroding the
diagonal-block structure), and re-runs Rabbit Order when the estimated
locality loss crosses a threshold — amortising the (cheap) reordering
against the analyses run in between, exactly the end-to-end economics of
Figure 6.

This is an *extension* beyond the paper's evaluation; the policy bench
(``benchmarks/bench_ext_dynamic.py``) measures how analysis cost evolves
with and without just-in-time re-reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.perm import identity_permutation
from repro.metrics.locality import average_neighbor_gap
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.rabbit.order import rabbit_order

__all__ = ["DynamicReorderer", "ReorderEvent"]


@dataclass(frozen=True)
class ReorderEvent:
    """Record of one re-reordering decision."""

    edges_at_reorder: int
    staleness_before: float
    num_communities: int


@dataclass
class DynamicReorderer:
    """Maintain a near-optimal ordering of a growing graph.

    Parameters
    ----------
    graph:
        initial graph (may be empty with a fixed vertex count).
    staleness_threshold:
        re-reorder when the fraction of post-reorder edges whose endpoint
        gap (in the *current* ordering) exceeds the pre-insertion average
        gap is above this value.  0.1 means: once 10% of the edge set is
        "stale" (inserted since the last reorder and poorly placed),
        reorder again.
    """

    graph: CSRGraph
    staleness_threshold: float = 0.1
    permutation: np.ndarray = field(init=False)
    events: list[ReorderEvent] = field(init=False, default_factory=list)
    _pending_src: list[int] = field(init=False, default_factory=list)
    _pending_dst: list[int] = field(init=False, default_factory=list)
    _edges_at_last_reorder: int = field(init=False, default=0)
    #: Insertions since the last reorder — survives materialisation, so
    #: reading current_view() does not reset the staleness signal.
    _inserted_since_reorder: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (0.0 < self.staleness_threshold <= 1.0):
            raise GraphFormatError(
                "staleness_threshold must be in (0, 1], got "
                f"{self.staleness_threshold}"
            )
        self.permutation = identity_permutation(self.graph.num_vertices)
        self.reorder()

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def pending_edges(self) -> int:
        return len(self._pending_src)

    def current_view(self) -> CSRGraph:
        """The graph including pending edges, in the current ordering —
        what an analysis would run on right now."""
        g = self._materialize()
        return g.permute(self.permutation)

    def _materialize(self) -> CSRGraph:
        if not self._pending_src:
            return self.graph
        src, dst, w = self.graph.edge_array()
        new_src = np.concatenate([src, np.array(self._pending_src, dtype=np.int64)])
        new_dst = np.concatenate([dst, np.array(self._pending_dst, dtype=np.int64)])
        merged = CSRGraph.from_edges(
            new_src,
            new_dst,
            num_vertices=self.num_vertices,
            weights=None,
            symmetrize=True,
            coalesce=True,
        )
        self.graph = merged
        self._pending_src.clear()
        self._pending_dst.clear()
        return merged

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert an undirected edge; returns True if this insertion
        triggered a reorder."""
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"edge ({u}, {v}) out of range for {n} vertices"
            )
        self._pending_src.append(int(u))
        self._pending_dst.append(int(v))
        self._inserted_since_reorder += 1
        if self.staleness() >= self.staleness_threshold:
            self.reorder()
            return True
        return False

    def add_edges(self, src, dst) -> bool:
        """Bulk insertion; staleness is checked once at the end."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphFormatError("src/dst must be parallel")
        n = self.num_vertices
        if src.size and (
            src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
        ):
            raise GraphFormatError("edge endpoints out of range")
        self._pending_src.extend(src.tolist())
        self._pending_dst.extend(dst.tolist())
        self._inserted_since_reorder += int(src.size)
        if self.staleness() >= self.staleness_threshold:
            self.reorder()
            return True
        return False

    # ------------------------------------------------------------------
    def staleness(self) -> float:
        """Fraction of the edge set inserted since the last reorder.

        Inserted edges were placed without the reorderer's consent; their
        endpoints sit at arbitrary id distance, so their share of the
        edge set is a direct proxy for the locality erosion."""
        base = max(self._edges_at_last_reorder, 1)
        ins = self._inserted_since_reorder
        return ins / (base + ins)

    def locality(self) -> float:
        """Average neighbour gap of the current view (lower is better)."""
        return average_neighbor_gap(self.current_view())

    def reorder(self) -> ReorderEvent:
        """Re-run Rabbit Order on the accumulated graph now."""
        staleness = self.staleness()
        with span("rabbit.dynamic.reorder", staleness=round(staleness, 4)):
            g = self._materialize()
            result = rabbit_order(g)
        self.permutation = result.permutation
        self._edges_at_last_reorder = g.num_edges
        self._inserted_since_reorder = 0
        event = ReorderEvent(
            edges_at_reorder=g.num_edges,
            staleness_before=staleness,
            num_communities=result.num_communities,
        )
        self.events.append(event)
        registry = get_registry()
        registry.counter("dynamic.reorders").inc()
        registry.gauge("dynamic.staleness_at_reorder").set(staleness)
        return event
