"""Vectorised sequential Rabbit Order engine (flat-array aggregation).

This is the ``engine="fast"`` implementation behind
:func:`repro.rabbit.seq.community_detection_seq`: the same degree-sorted
sweep and greedy ΔQ merges as the dict engine (Algorithm 2 lines 3–8,
Algorithm 4 aggregation), with the per-edge Python work replaced by
numpy kernels over an :class:`~repro.rabbit.arena.AdjacencyArena` for
large folds and a tight list-based scalar loop for small ones.

Bit-identical by construction
-----------------------------
The engine must produce the exact dendrogram of the dict engine — not
merely an equivalent clustering — so every floating-point operation is
performed in the same order:

* **Accumulation order.** The dict engine folds ``acc[v] += w`` in edge
  encounter order.  ``np.bincount`` accumulates its weights with a
  sequential C loop in input order, so per-key sums see the identical
  addition sequence (``np.add.reduceat`` would not: ufunc reduction is
  pairwise, which changes the last ulp).
* **Tie-breaking.** The dict engine scans candidates in dict insertion
  order (first-encounter order) keeping the first strict maximum; the
  vector path scores unique keys sorted by their first occurrence and
  takes ``np.argmax``, which also returns the first maximum.
* **Scalar arithmetic.** ΔQ is evaluated with the same elementary op
  sequence (``2.0 * (w * inv_2m - comm_deg[v] * penalty)``) whether
  scalar or elementwise — Python floats and ``float64`` share IEEE
  double semantics, so results match to the last ulp.

Dual state representation
-------------------------
Per-element indexing of ndarrays from Python costs ~5× a list index, so
the sweep keeps *two* views of the mutable state:

* plain Python lists (``dest``, ``child``, ``sibling``, ``comm_deg``)
  that the scalar path and the merge bookkeeping touch, and
* ndarray twins (``dest_a``, ``comm_deg_a``) that the vector path
  gathers through.

Merge writes go to both.  Union-find *path compression* writes go only
to the representation that traced the path — compression rewrites links
to ancestors, never changing any root, so the two views always resolve
every vertex to the same community and decisions are unaffected.

Below ``SCALAR_CUTOFF`` folded items per vertex the engine uses the
scalar path (see docs/PERF.md for the tuning methodology): numpy call
overhead (~µs per kernel invocation, ~10 invocations per fold) loses to
plain Python when a vertex folds only a handful of edges, which is the
common case early in the degree-sorted sweep.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.community.modularity import newman_degrees
from repro.graph.csr import CSRGraph
from repro.graph.validate import require_symmetric
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.rabbit.arena import AdjacencyArena
from repro.rabbit.common import RabbitStats
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    build_snapshot,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.runtime import heartbeat
from repro.rabbit.seq import restore_stats, visit_order

__all__ = ["community_detection_fastseq", "trace_dest_array", "SCALAR_CUTOFF"]

#: Folded-item count at or below which the scalar path wins
#: (see docs/PERF.md for the sweep behind this number).
SCALAR_CUTOFF: int = 192


def trace_dest_array(dest: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.rabbit.common.trace_dest`: resolve every
    endpoint in *t* to its community root, compressing the traced paths.

    Iterates ``dest[dest[...]]`` until fixpoint (roots satisfy
    ``dest[r] == r``), then rewrites ``dest[t]`` to point straight at the
    roots.  Compression is stronger than the scalar helper's
    grandparent-hopping but preserves the union-find invariant (every
    link points at an ancestor), so resolution results are unchanged.
    """
    v = dest[t]
    vv = dest[v]
    while not np.array_equal(v, vv):
        v = dest[vv]
        vv = dest[v]
    dest[t] = v
    return v


def _fold_vector(
    graph: CSRGraph,
    arena: AdjacencyArena,
    aoff: list[int],
    alen: list[int],
    ek: list[list | None],
    ew: list[list | None],
    dest_a: np.ndarray,
    members: list[int],
    u: int,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Vectorised fold: gather member slices, resolve endpoints, dedup +
    sum.  Returns ``(keys, weights, loop, scanned)`` with *keys* in
    first-encounter order, excluding the self-loop key ``u``."""
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    lo, hi = int(indptr[u]), int(indptr[u + 1])
    t0 = indices[lo:hi]
    self_mask = t0 == u
    has_loop = bool(self_mask.any())
    if weights is None:
        w0 = np.ones(t0.size, dtype=np.float64)
        if has_loop:
            w0[self_mask] = 2.0  # doubled self-loop convention
    else:
        w0 = weights[lo:hi]
        if has_loop:
            w0 = w0.copy()
            w0[self_mask] *= 2.0
    key_parts = [t0]
    w_parts = [w0]
    arena_keys, arena_ws = arena.keys, arena.ws
    for s in members:
        if s == u:
            continue
        ks = ek[s]
        if ks is not None:  # list-resident entry (scalar-path product)
            key_parts.append(np.array(ks, dtype=np.int64))
            w_parts.append(np.array(ew[s], dtype=np.float64))
            continue
        off = aoff[s]
        end = off + alen[s]
        key_parts.append(arena_keys[off:end])
        w_parts.append(arena_ws[off:end])
    t_all = np.concatenate(key_parts)
    w_all = np.concatenate(w_parts)
    scanned = t_all.size
    v_all = trace_dest_array(dest_a, t_all)
    # Dedup + sum preserving the dict engine's fp semantics.  A single
    # stable argsort yields groups whose first sorted element is the
    # first *encounter* (stable => original indices ascend within a
    # group); bincount then accumulates weights in input order.
    order = np.argsort(v_all, kind="stable")
    sv = v_all[order]
    new_grp = np.empty(sv.size, dtype=bool)
    if sv.size:
        new_grp[0] = True
        np.not_equal(sv[1:], sv[:-1], out=new_grp[1:])
    gid_sorted = np.cumsum(new_grp) - 1
    inv = np.empty(sv.size, dtype=np.int64)
    inv[order] = gid_sorted
    uniq = sv[new_grp]  # unique keys, sorted ascending
    first = order[new_grp]  # first-occurrence input index per unique key
    sums = np.bincount(inv, weights=w_all, minlength=uniq.size)
    enc = np.argsort(first)  # re-rank groups by first encounter
    keys_enc = uniq[enc]
    sums_enc = sums[enc]
    not_u = keys_enc != u
    if not_u.all():
        loop = 0.0
        nk, nw = keys_enc, sums_enc
    else:
        loop = float(sums_enc[~not_u][0])
        nk = keys_enc[not_u]
        nw = sums_enc[not_u]
    return nk, nw, loop, scanned


def _adjacency_entries(
    n: int,
    ek: list,
    ew: list,
    aoff: list,
    alen: list,
    arena: AdjacencyArena,
):
    """Per-vertex folded ``(keys, ws)`` entries for snapshotting,
    whichever residency (list or arena) currently holds them."""
    keys_pool, ws_pool = arena.keys, arena.ws
    for v in range(n):
        ln = alen[v]
        if ln < 0:
            yield None
        elif ek[v] is not None:
            yield ek[v], ew[v]
        else:
            off = aoff[v]
            yield keys_pool[off : off + ln], ws_pool[off : off + ln]


def community_detection_fastseq(
    graph: CSRGraph,
    *,
    collect_vertex_work: bool = False,
    merge_threshold: float = 0.0,
    visit: str = "degree",
    visit_rng: int | None = 0,
    scalar_cutoff: int | None = None,
    checkpoint=None,
    resume: Snapshot | None = None,
) -> tuple[Dendrogram, RabbitStats]:
    """Flat-array sequential community detection.

    Drop-in replacement for the dict engine: same parameters, same
    ``(dendrogram, stats)`` contract, bit-identical output (asserted by
    ``tests/rabbit/test_fastseq_equivalence.py``).

    Parameters
    ----------
    scalar_cutoff:
        folded-item count at or below which the per-vertex scalar path
        is used (``None`` = the tuned module default
        :data:`SCALAR_CUTOFF`; ``-1`` forces the vector path everywhere
        — used by the equivalence suite to exercise both paths).
    checkpoint:
        :class:`~repro.resilience.checkpoint.CheckpointConfig` or
        :class:`~repro.resilience.checkpoint.Checkpointer`: snapshot the
        aggregation state every ``every`` decided vertices.
    resume:
        :class:`~repro.resilience.checkpoint.Snapshot` to restore and
        continue from (fingerprint-checked; restored entries all become
        arena-resident, which never changes decisions — residency is a
        performance detail, not an algorithmic one).
    """
    n = graph.num_vertices
    # Setup covers everything before the sweep: the symmetry check, the
    # fingerprint, the visit order and the state build.
    with span("rabbit.seq.setup", n=n, engine="fast"):
        require_symmetric(graph, "Rabbit Order")
        ckpt = as_checkpointer(checkpoint)
        cutoff = SCALAR_CUTOFF if scalar_cutoff is None else int(scalar_cutoff)
        child: list[int] = [NO_VERTEX] * n
        sibling: list[int] = [NO_VERTEX] * n
        stats = RabbitStats()
        if collect_vertex_work:
            stats.vertex_work = np.zeros(n, dtype=np.int64)
        comm_deg_a = newman_degrees(graph)
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

        two_m = 2.0 * m
        fingerprint = graph_fingerprint(
            graph, merge_threshold=merge_threshold, visit=visit, visit_rng=visit_rng
        )
        start = 0
        if resume is None:
            order = visit_order(graph, visit, visit_rng)
        else:
            require_fingerprint_match(resume, fingerprint)
            start = resume.progress
            order = resume.order.copy()
        # Dual state: list view for scalar work, ndarray twin for gathers.
        # Folded adjacencies are write-once / read-at-most-once (an entry is
        # consumed only when its owner's merge target is itself visited), so
        # they live wherever the *producing* path left them: vector-path
        # results go to the arena pools (consumed zero-copy by later
        # gathers), scalar-path results stay as plain Python lists in
        # ``ek``/``ew`` (consumed without any ndarray round-trip) and are
        # wrapped into arrays only if a vector fold gathers them.
        vw: list[int] | None = [0] * n if collect_vertex_work else None
        if resume is None:
            dest_a = np.arange(n, dtype=np.int64)
            arena = AdjacencyArena(n, capacity=graph.num_edges + n + 1)
            toplevel: list[int] = []
            edges_scanned = 0
            merges = 0
        else:
            dest_a = resume.dest.copy()
            child = resume.child.tolist()
            sibling = resume.sibling.tolist()
            # Merged vertices carry INVALID_DEGREE (never read again);
            # roots carry their exact accumulated community degree.
            comm_deg_a = resume.degrees.copy()
            # Every restored entry becomes arena-resident; residency only
            # affects which fold path consumes it, never the fold result.
            arena = AdjacencyArena.from_pools(
                resume.adj_offsets,
                resume.adj_lengths,
                resume.adj_keys,
                resume.adj_ws,
                extra_capacity=graph.num_edges + n + 1,
            )
            toplevel = resume.toplevel.tolist()
            restore_stats(stats, resume)
            edges_scanned = stats.edges_scanned
            merges = stats.merges
            if vw is not None and resume.vertex_work.size:
                vw = resume.vertex_work.tolist()
        dest: list[int] = dest_a.tolist()
        comm_deg: list[float] = comm_deg_a.tolist()
        indptr_l: list[int] = graph.indptr.tolist()
        indices, weights = graph.indices, graph.weights
        aoff: list[int] = arena.offset.tolist()  # arena addressing
        alen: list[int] = arena.length.tolist()  # folded sizes, both residencies
        ek: list[list | None] = [None] * n
        ew: list[list | None] = [None] * n
        config = {
            "engine": "fast",
            "visit": visit,
            "visit_rng": visit_rng,
            "collect_vertex_work": collect_vertex_work,
            "parallel": False,
        }
        inv_2m = 1.0 / two_m
        neg_inf = float("-inf")
        order_l = order.tolist()
    with span("rabbit.seq.aggregate", n=n, engine="fast"):
        for i in range(start, n):
            u = order_l[i]
            heartbeat()
            # Members = u plus direct children; each child's arena slice
            # already covers its whole subtree (folded when it merged).
            members = [u]
            total = indptr_l[u + 1] - indptr_l[u]
            c = child[u]
            while c != NO_VERTEX:
                members.append(c)
                total += alen[c]
                c = sibling[c]
            d_u = comm_deg[u]
            penalty = d_u / (two_m * two_m)
            best_v = -1
            best_dq = neg_inf
            if total <= cutoff:
                # ---- scalar path: dict-engine semantics on list state.
                acc: dict[int, float] = {}
                acc_get = acc.get
                loop = 0.0
                for s in members:
                    if s == u:
                        lo, hi = indptr_l[u], indptr_l[u + 1]
                        if weights is None:
                            for t in indices[lo:hi].tolist():
                                if t == u:
                                    # Raw self-loop: doubled, and u is its
                                    # own root pre-merge, so it folds into
                                    # `loop` directly (same encounter
                                    # position as the dict engine's
                                    # trace + accumulate).
                                    loop += 2.0
                                    continue
                                # Inline trace_dest (Algorithm 4 lines
                                # 4–5) on the list view, with path
                                # compression.
                                while True:
                                    d = dest[t]
                                    dd = dest[d]
                                    if d == dd:
                                        break
                                    dest[t] = dd
                                    t = dd
                                if d == u:
                                    loop += 1.0
                                else:
                                    acc[d] = acc_get(d, 0.0) + 1.0
                            continue
                        for t, w in zip(
                            indices[lo:hi].tolist(), weights[lo:hi].tolist()
                        ):
                            if t == u:
                                loop += 2.0 * w
                                continue
                            while True:
                                d = dest[t]
                                dd = dest[d]
                                if d == dd:
                                    break
                                dest[t] = dd
                                t = dd
                            if d == u:
                                loop += w
                            else:
                                acc[d] = acc_get(d, 0.0) + w
                        continue
                    ks = ek[s]
                    if ks is not None:  # list-resident child entry
                        pairs = zip(ks, ew[s])
                    else:
                        off, end = aoff[s], aoff[s] + alen[s]
                        pairs = zip(
                            arena.keys[off:end].tolist(),
                            arena.ws[off:end].tolist(),
                        )
                    for t, w in pairs:
                        while True:
                            d = dest[t]
                            dd = dest[d]
                            if d == dd:
                                break
                            dest[t] = dd
                            t = dd
                        if d == u:
                            loop += w
                        else:
                            acc[d] = acc_get(d, 0.0) + w
                edges_scanned += total
                for v, w in acc.items():
                    dq = 2.0 * (w * inv_2m - comm_deg[v] * penalty)
                    if dq > best_dq:
                        best_dq = dq
                        best_v = v
                keys = list(acc.keys())
                keys.append(u)  # self-loop entry last, per convention
                wvals = list(acc.values())
                wvals.append(loop)
                ek[u] = keys
                ew[u] = wvals
                alen[u] = len(keys)
            else:
                # ---- vector path: flat-array gather / resolve / reduce.
                nk, nw, loop, scanned = _fold_vector(
                    graph, arena, aoff, alen, ek, ew, dest_a, members, u
                )
                edges_scanned += scanned
                if nk.size:
                    dq = 2.0 * (nw * inv_2m - comm_deg_a[nk] * penalty)
                    j = int(np.argmax(dq))
                    best_dq = float(dq[j])
                    best_v = int(nk[j])
                cnt = nk.size + 1
                off = arena.reserve(cnt)
                end = off + cnt - 1
                arena.keys[off:end] = nk
                arena.keys[end] = u
                arena.ws[off:end] = nw
                arena.ws[end] = loop
                arena.commit(u, off, cnt)
                aoff[u] = off
                alen[u] = cnt
            if vw is not None:
                vw[u] = total
            if best_v < 0 or best_dq <= merge_threshold:
                toplevel.append(u)
            else:
                # Merge u into best_v; both state views take the write.
                dest[u] = best_v
                dest_a[u] = best_v
                sibling[u] = child[best_v]
                child[best_v] = u
                comm_deg[best_v] += d_u
                comm_deg_a[best_v] += d_u
                merges += 1
            if ckpt is not None and ckpt.due(i + 1):
                stats.edges_scanned = edges_scanned
                stats.merges = merges
                stats.toplevels = len(toplevel)
                if vw is not None:
                    stats.vertex_work = np.array(vw, dtype=np.int64)
                ckpt.save(
                    build_snapshot(
                        engine="fast",
                        progress=i + 1,
                        order=order,
                        dest=dest_a,
                        child=child,
                        sibling=sibling,
                        comm_deg=comm_deg_a,
                        toplevel=toplevel,
                        adjacency=_adjacency_entries(
                            n, ek, ew, aoff, alen, arena
                        ),
                        stats=stats,
                        fingerprint=fingerprint,
                        config=config,
                    )
                )
    if vw is not None:
        stats.vertex_work = np.array(vw, dtype=np.int64)
    stats.edges_scanned = edges_scanned
    stats.merges = merges
    stats.toplevels = len(toplevel)
    get_registry().absorb_rabbit_stats(stats)
    return (
        Dendrogram(
            child=np.array(child, dtype=np.int64),
            sibling=np.array(sibling, dtype=np.int64),
            toplevel=np.array(toplevel, dtype=np.int64),
        ),
        stats,
    )
