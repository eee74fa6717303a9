"""Shared machinery for Rabbit Order's incremental aggregation.

Both the sequential and the parallel variants keep the same state:

* ``dest[v]`` — the community vertex ``v`` currently belongs to (itself if
  unmerged / top-level).  Chains of merges are traced with path
  compression, exactly Algorithm 4 lines 4–5.
* ``adj`` — per-vertex *aggregated* adjacency.  ``adj[v] is None`` means
  ``v`` has never been processed and its edges are its raw CSR row;
  otherwise ``adj[v]`` is the dict of community-level edges computed when
  ``v`` was processed (lazy aggregation: the dict endpoints were resolved
  at that time and are re-resolved through ``dest`` whenever read).
* the self-loop of an aggregated vertex is stored under its own key with
  the paper's *doubled* weight convention (``2*w_uv + w_uu + w_vv``), which
  makes community degrees additive.

The aggregation step below is Algorithm 4: gather the edges of ``u`` and
its direct children (each child's subtree is already folded into that
child's dict — it was aggregated when the child merged), re-resolve
endpoints, and fold internal edges into the self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.community.dendrogram import NO_VERTEX
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.checkpoint import Snapshot

__all__ = ["AggregationState", "RabbitStats", "trace_dest", "aggregate_vertex"]


@dataclass
class RabbitStats:
    """Instrumentation for the cost model and the evaluation tables."""

    edges_scanned: int = 0  # total adjacency items folded (work units)
    merges: int = 0
    toplevels: int = 0
    retries: int = 0
    # Crash-recovery counters (only non-zero under fault injection; see
    # repro.rabbit.par).  Fallback merges/toplevels are *sub-counters*:
    # they are also included in `merges`/`toplevels`, so the invariant
    # merges + toplevels == n holds with or without recovery.
    orphans_recovered: int = 0  # vertices re-driven by the sequential pass
    partial_repairs: int = 0  # committed-but-unrecorded merges repaired
    fallback_merges: int = 0
    fallback_toplevels: int = 0
    # Per-vertex edges scanned: one n-sized int64 array per detection
    # run, shared by the model's per-chunk stats.
    vertex_work: np.ndarray | None = None

    def merge_from(self, other: "RabbitStats") -> None:
        self.edges_scanned += other.edges_scanned
        self.merges += other.merges
        self.toplevels += other.toplevels
        self.retries += other.retries
        self.orphans_recovered += other.orphans_recovered
        self.partial_repairs += other.partial_repairs
        self.fallback_merges += other.fallback_merges
        self.fallback_toplevels += other.fallback_toplevels


@dataclass
class AggregationState:
    """Mutable state shared by the aggregation workers."""

    graph: CSRGraph
    dest: np.ndarray
    child: np.ndarray
    sibling: np.ndarray
    adj: list  # list[dict[int, float] | None]
    total_weight: float  # m of the initial graph (Eq. 1 denominator)

    @classmethod
    def initialize(cls, graph: CSRGraph) -> "AggregationState":
        n = graph.num_vertices
        return cls(
            graph=graph,
            dest=np.arange(n, dtype=np.int64),
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            adj=[None] * n,
            total_weight=graph.total_edge_weight(),
        )

    def restore(self, snapshot: "Snapshot") -> None:
        """Load a checkpoint's links and folded adjacency (resume).

        Dict entries keep the snapshot's first-encounter key order, which
        is what makes the resumed accumulation bit-identical.
        """
        self.dest[:] = snapshot.dest
        self.child[:] = snapshot.child
        self.sibling[:] = snapshot.sibling
        for v, entry in enumerate(snapshot.iter_adjacency()):
            if entry is not None:
                keys, ws = entry
                self.adj[v] = dict(zip(keys.tolist(), ws.tolist()))

    def capture(self, **fields: Any) -> "Snapshot":
        """This state as a checkpoint; *fields* are the remaining
        :func:`~repro.resilience.checkpoint.build_snapshot` arguments."""
        from repro.resilience.checkpoint import build_snapshot

        return build_snapshot(
            dest=self.dest,
            child=self.child,
            sibling=self.sibling,
            adjacency=(
                None if d is None else (list(d.keys()), list(d.values()))
                for d in self.adj
            ),
            **fields,
        )


def trace_dest(dest: np.ndarray, v: int) -> int:
    """Find the current community of *v*, compressing the path
    (Algorithm 4 lines 4–5)."""
    while True:
        d = dest[v]
        dd = dest[d]
        if d == dd:
            return int(d)
        dest[v] = dd
        v = int(dd)


def _iter_vertex_edges(state: AggregationState, s: int, *, raw: bool = False):
    """Yield ``(endpoint, weight)`` items of vertex *s*'s edge set.

    ``raw=True`` forces the CSR row even when an aggregated dict exists —
    required for the vertex currently being processed: a failed merge
    leaves its previous aggregate in ``adj``, and re-reading that dict
    while also re-folding the children would double-count every edge
    once per retry (inflating w_uv and cascading into over-merges).

    Raw CSR self-loops are yielded with doubled weight so that the
    aggregated self-loop convention holds from the start.
    """
    if not raw:
        stored = state.adj[s]
        if stored is not None:
            yield from stored.items()
            return
    g = state.graph
    lo, hi = int(g.indptr[s]), int(g.indptr[s + 1])
    idx = g.indices
    if g.weights is None:
        for k in range(lo, hi):
            t = int(idx[k])
            yield t, 2.0 if t == s else 1.0
    else:
        w = g.weights
        for k in range(lo, hi):
            t = int(idx[k])
            ww = float(w[k])
            yield t, 2.0 * ww if t == s else ww


def aggregate_vertex(
    state: AggregationState, u: int, stats: RabbitStats
) -> dict[int, float]:
    """Fold the edges of *u*'s community into a community-level adjacency.

    Returns the dict mapping each neighbouring community ``v`` (a current
    top-level vertex) to the total inter-community weight ``w_uv``, plus
    the community self-loop under key ``u`` — always the *last* inserted
    key, so insertion-order iteration visits real neighbours first.
    Callers scoring merge candidates must skip key ``u``.  The same dict
    is installed as ``state.adj[u]`` (Algorithm 4 line 9: aggregated
    edges are reattached to ``u``), so no per-vertex copy is made.
    """
    dest = state.dest
    acc: dict[int, float] = {}
    loop = 0.0
    scanned = 0
    # Members = u plus direct children; each child's dict already covers
    # its whole subtree (it was aggregated when the child merged).
    member = int(u)
    members = [member]
    c = int(state.child[u])
    while c != NO_VERTEX:
        members.append(c)
        c = int(state.sibling[c])
    for s in members:
        for t, w in _iter_vertex_edges(state, s, raw=(s == member)):
            scanned += 1
            v = trace_dest(dest, t)
            if v == u:
                loop += w
            else:
                acc[v] = acc.get(v, 0.0) + w
    stats.edges_scanned += scanned
    stats.vertex_work[u] += scanned
    acc[u] = loop
    state.adj[u] = acc
    return acc
