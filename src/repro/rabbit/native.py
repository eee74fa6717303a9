"""Compiled aggregation sweep: the engine behind ``engine="fast"``.

The per-vertex work of the sequential sweep (trace, fold, score, merge)
runs in the compiled library (``repro/graph/kernels.c``, loaded by
:mod:`repro.graph.native`), which performs the dict engine's operations
in the dict engine's order, so the dendrogram, the stats and the
permutation are bit-identical to the oracle
(``tests/rabbit/test_fastseq_equivalence.py``).  The setup is compiled
too: one pass over the CSR gives the symmetry verdict, the Newman
degrees and the self-loop weight (:func:`setup_pass`), and a counting
sort the degree visit order (:func:`counting_argsort`).  So is ordering
generation (:func:`dfs_visit_order`), which ``rabbit_order`` runs after
every detection path.  Python keeps the chunking and the state, all of
it numpy arrays the C reads and writes in place.

Chunks
------
Python calls the library once per chunk of the visit order.  A chunk
ends after about ``_CHUNK_WORK`` folded items, at the next checkpoint
boundary (``every``), or when the next vertex's entry might overflow the
entry pool.  Between chunks Python beats the supervisor's
:func:`~repro.resilience.runtime.heartbeat`, grows the pool, and writes
checkpoints, so budgets, snapshots and resume keep their per-vertex
contracts.  The entry pool is the checkpoint wire format: per-vertex
``(offset, length)`` slices of one key pool and one weight pool.

Fallback
--------
Without the library (:func:`repro.graph.native.library` returns
``None``), ``engine="fast"`` runs the dict engine, warns, and counts the
fallback as ``rabbit.native.fallback.<reason>``.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram, dfs_error
from repro.graph.csr import CSRGraph
from repro.graph.native import fallback_reason, library, require_library
from repro.graph.validate import not_symmetric_error
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.rabbit.common import RabbitStats
from repro.rabbit.seq import community_detection_seq, restore_stats, visit_order
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    build_snapshot,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.runtime import heartbeat

__all__ = [
    "community_detection_fastseq",
    "delta_q",
    "setup_pass",
    "counting_argsort",
    "dfs_visit_order",
]

#: Folded items per library call: bounds the time between heartbeats.
_CHUNK_WORK = 1 << 16


def delta_q(
    w: np.ndarray, deg: np.ndarray, inv_2m: float, penalty: float
) -> np.ndarray:
    """The sweep's ΔQ kernel, elementwise: ``2.0 * (w * inv_2m - deg *
    penalty)``.  Exported so tests can check it against numpy."""
    lib = require_library()
    w = np.ascontiguousarray(w, dtype=np.float64)
    deg = np.ascontiguousarray(deg, dtype=np.float64)
    out = np.empty_like(w)
    lib.rabbit_delta_q(w.ctypes.data, deg.ctypes.data, w.size, inv_2m, penalty,
                       out.ctypes.data)
    return out


def setup_pass(graph: CSRGraph) -> tuple[bool, np.ndarray, float]:
    """``(graph.is_symmetric(), newman_degrees(graph), self-loop weight)``
    from one compiled pass over the CSR.

    The verdict is :meth:`~repro.graph.csr.CSRGraph.is_symmetric`'s:
    every row strictly increasing, and every slot's reverse present with
    an ``np.isclose`` weight.  Rows are visited in ascending order, and
    the reverse of slot ``(u, v)`` must be the next unread slot of row
    ``v`` (one cursor per row), so the check needs no sort and no search.
    The degrees are summed in ``newman_degrees``' order, bit for bit; the
    loop weight is summed in slot order, so it is exact for unit weights.
    """
    lib = require_library()
    n = graph.num_vertices
    indptr = np.ascontiguousarray(graph.indptr)
    indices = np.ascontiguousarray(graph.indices)
    weights = (
        None if graph.weights is None else np.ascontiguousarray(graph.weights)
    )
    cursor = np.empty(n, dtype=np.int64)
    deg = np.empty(n, dtype=np.float64)
    loop_w = np.zeros(1, dtype=np.float64)
    symmetric = lib.rabbit_setup(
        indptr.ctypes.data, indices.ctypes.data,
        None if weights is None else weights.ctypes.data, n,
        cursor.ctypes.data, deg.ctypes.data, loop_w.ctypes.data,
    )
    return bool(symmetric), deg, float(loop_w[0])


def counting_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys,
    by the compiled counting sort (``max(keys) + 1`` counters: meant for
    degrees, which never exceed the vertex count on a symmetric graph)."""
    lib = require_library()
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    nbins = max(int(keys.max()) + 1, 0) if keys.size else 0
    count = np.empty(nbins, dtype=np.int64)
    out = np.empty(keys.size, dtype=np.int64)
    if lib.rabbit_counting_sort(keys.ctypes.data, keys.size, count.ctypes.data,
                                nbins, out.ctypes.data) < 0:
        raise ValueError("counting_argsort needs non-negative keys")
    return out


def dfs_visit_order(dendrogram: Dendrogram) -> np.ndarray:
    """:meth:`Dendrogram.dfs_visit_order` (Algorithm 2's
    ORDERINGGENERATION) from the compiled walk, which keeps the Python
    walk's flat stack and push order; the Python walk runs when the
    library is unavailable.  Links that do not form a forest raise
    :func:`~repro.community.dendrogram.dfs_error`'s ``GraphFormatError``
    either way."""
    lib = library()
    if lib is None:
        return dendrogram.dfs_visit_order()
    n = dendrogram.num_vertices
    child = np.ascontiguousarray(dendrogram.child)
    sibling = np.ascontiguousarray(dendrogram.sibling)
    roots = np.ascontiguousarray(dendrogram.toplevel)
    stack = np.empty(n, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    bad = np.zeros(1, dtype=np.int64)
    size = lib.rabbit_dfs(
        child.ctypes.data, sibling.ctypes.data, n, roots.ctypes.data,
        roots.size, stack.ctypes.data, out.ctypes.data, bad.ctypes.data,
    )
    if size < 0:
        raise dfs_error(n, int(bad[0]) if size == -2 else None)
    return out[:size]


def _pool_capacity(graph: CSRGraph) -> int:
    """Initial entry-pool size; the pool doubles whenever it runs out."""
    return graph.num_edges + graph.num_vertices + 1


def _grow(pool: np.ndarray, size: int, used: int) -> np.ndarray:
    grown = np.empty(size, dtype=pool.dtype)
    grown[:used] = pool[:used]
    return grown


def _entries(adj_off: np.ndarray, adj_len: np.ndarray, keys, ws):
    """Per-vertex ``(keys, ws)`` pool slices for a snapshot."""
    for off, ln in zip(adj_off.tolist(), adj_len.tolist()):
        yield None if ln < 0 else (keys[off : off + ln], ws[off : off + ln])


def community_detection_fastseq(
    graph: CSRGraph,
    *,
    merge_threshold: float = 0.0,
    visit: str = "degree",
    visit_rng: int | None = 0,
    checkpoint=None,
    resume: Snapshot | None = None,
) -> tuple[Dendrogram, RabbitStats]:
    """Sequential community detection on the compiled sweep.

    Same parameters and ``(dendrogram, stats)`` contract as
    :func:`~repro.rabbit.seq.community_detection_seq`, bit-identical to
    its dict engine, which it runs instead (with a warning) when the
    library is unavailable.
    """
    lib = library()
    if lib is None:
        reason = fallback_reason()
        get_registry().counter(f"rabbit.native.fallback.{reason}").inc()
        warnings.warn(
            f"compiled sweep unavailable ({reason}); running the dict engine",
            RuntimeWarning,
            stacklevel=2,
        )
        return community_detection_seq(
            graph,
            engine="dict",
            merge_threshold=merge_threshold,
            visit=visit,
            visit_rng=visit_rng,
            checkpoint=checkpoint,
            resume=resume,
        )
    get_registry().counter("rabbit.engine.native").inc()
    n = graph.num_vertices
    # Setup covers everything before the sweep: the symmetry check and
    # degrees (one compiled pass), the fingerprint (checkpointed runs
    # only), the visit order and the state build.
    with span("rabbit.seq.setup", n=n, engine="native"):
        symmetric, comm_deg, loop_w = setup_pass(graph)
        if not symmetric:
            raise not_symmetric_error("Rabbit Order")
        ckpt = as_checkpointer(checkpoint)
        stats = RabbitStats(vertex_work=np.zeros(n, dtype=np.int64))
        if graph.weights is None:
            # total_edge_weight's sum: unit weights make every term an
            # exact integer, so the slot-order loop weight is numpy's.
            m = (graph.num_edges - loop_w) / 2.0 + loop_w
        else:
            # numpy's pairwise sum, which no sequential sum reproduces
            m = graph.total_edge_weight()
        if m <= 0.0:
            # Edgeless graph: every vertex is trivially top-level.
            stats.toplevels = n
            return (
                Dendrogram(
                    child=np.full(n, NO_VERTEX, dtype=np.int64),
                    sibling=np.full(n, NO_VERTEX, dtype=np.int64),
                    toplevel=np.arange(n, dtype=np.int64),
                ),
                stats,
            )
        if ckpt is not None or resume is not None:
            fingerprint = graph_fingerprint(
                graph, merge_threshold=merge_threshold, visit=visit,
                visit_rng=visit_rng,
            )
        toplevel = np.empty(n, dtype=np.int64)
        if resume is None:
            start = 0
            if visit == "degree":
                order = counting_argsort(graph.degrees())
            else:
                order = visit_order(graph, visit, visit_rng)
            dest = np.arange(n, dtype=np.int64)
            child = np.full(n, NO_VERTEX, dtype=np.int64)
            sibling = np.full(n, NO_VERTEX, dtype=np.int64)
            adj_off = np.zeros(n, dtype=np.int64)
            adj_len = np.full(n, -1, dtype=np.int64)
            used = ntop = 0
        else:
            require_fingerprint_match(resume, fingerprint)
            # The C indexes with every id the snapshot holds.
            resume.validate()
            start = resume.progress
            order = resume.order
            dest = resume.dest.copy()
            child = resume.child.copy()
            sibling = resume.sibling.copy()
            # Merged vertices carry INVALID_DEGREE (never read again);
            # roots carry their exact accumulated community degree.
            comm_deg = resume.degrees.copy()
            adj_off = resume.adj_offsets.copy()
            adj_len = resume.adj_lengths.copy()
            used = resume.adj_keys.size
            ntop = resume.toplevel.size
            toplevel[:ntop] = resume.toplevel
            restore_stats(stats, resume)
        order = np.ascontiguousarray(order, dtype=np.int64)
        keys = np.empty(used + _pool_capacity(graph), dtype=np.int64)
        ws = np.empty(keys.size, dtype=np.float64)
        if resume is not None:
            keys[:used] = resume.adj_keys
            ws[:used] = resume.adj_ws
        pos = np.full(n, -1, dtype=np.int64)
        # {pool_used, toplevels, edges_scanned, merges, pool_need}
        st = np.array([used, ntop, stats.edges_scanned, stats.merges, 0],
                      dtype=np.int64)
        indptr = np.ascontiguousarray(graph.indptr)
        indices = np.ascontiguousarray(graph.indices)
        weights = (
            None if graph.weights is None else np.ascontiguousarray(graph.weights)
        )
        config = {
            "engine": "fast",
            "visit": visit,
            "visit_rng": visit_rng,
            "parallel": False,
        }
    with span("rabbit.seq.aggregate", n=n, engine="native") as agg:
        chunks = 0
        i = start
        heartbeat(0)
        while i < n:
            stop = n if ckpt is None else min(n, (i // ckpt.every + 1) * ckpt.every)
            reached = lib.rabbit_sweep(
                indptr.ctypes.data, indices.ctypes.data,
                None if weights is None else weights.ctypes.data,
                order.ctypes.data, i, stop, _CHUNK_WORK,
                dest.ctypes.data, child.ctypes.data, sibling.ctypes.data,
                comm_deg.ctypes.data, pos.ctypes.data, adj_off.ctypes.data,
                adj_len.ctypes.data, keys.ctypes.data, ws.ctypes.data, keys.size,
                toplevel.ctypes.data, stats.vertex_work.ctypes.data,
                2.0 * m, merge_threshold, st.ctypes.data,
            )
            chunks += 1
            if st[4] > keys.size:
                size = max(2 * keys.size, int(st[4]))
                keys = _grow(keys, size, int(st[0]))
                ws = _grow(ws, size, int(st[0]))
            heartbeat(reached - i)
            progressed, i = reached > i, reached
            if ckpt is not None and progressed and ckpt.due(i):
                stats.edges_scanned, stats.merges = int(st[2]), int(st[3])
                stats.toplevels = int(st[1])
                ckpt.save(
                    build_snapshot(
                        engine="fast",
                        progress=i,
                        order=order,
                        dest=dest,
                        child=child,
                        sibling=sibling,
                        comm_deg=comm_deg,
                        toplevel=toplevel[: st[1]],
                        adjacency=_entries(adj_off, adj_len, keys, ws),
                        stats=stats,
                        fingerprint=fingerprint,
                        config=config,
                    )
                )
        agg.set(chunks=chunks)
    stats.edges_scanned, stats.merges = int(st[2]), int(st[3])
    stats.toplevels = int(st[1])
    get_registry().absorb_rabbit_stats(stats)
    return (
        Dendrogram(child=child, sibling=sibling, toplevel=toplevel[: st[1]].copy()),
        stats,
    )
