"""Compiled aggregation sweep: the engine behind ``engine="fast"``.

The per-vertex work of the sequential sweep (trace, fold, score, merge)
runs in ``sweep.c``, which performs the dict engine's operations in the
dict engine's order, so the dendrogram, the stats and the permutation
are bit-identical to the oracle (``tests/rabbit/test_fastseq_equivalence.py``).
The setup is compiled too: one pass over the CSR gives the symmetry
verdict, the Newman degrees and the self-loop weight
(:func:`setup_pass`), and a counting sort the degree visit order
(:func:`counting_argsort`).  So is ordering generation
(:func:`dfs_visit_order`), which ``rabbit_order`` runs after every
detection path.  Python keeps the chunking and the state, all of it
numpy arrays the C reads and writes in place.  The same library holds
the level-synchronous BFS of :mod:`repro.analysis.traversal`
(:func:`bfs_walk`).

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

Build
-----
The library is built on first use with the local C compiler
(``cc -O2 -fPIC -shared -ffp-contract=off``; never ``-ffast-math``: a
contracted multiply-add changes the last ulp of ΔQ) into
``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache``), named by the
SHA-256 of the source, the flags and ``cc --version``, and installed
atomically.  A cache directory or library that is not owned by the user
or that others can write is refused.  With no compiler, no trusted
cache or a failed build, ``engine="fast"`` runs the dict engine, warns,
and counts the fallback as ``rabbit.native.fallback.<reason>``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram, dfs_error
from repro.graph.csr import CSRGraph
from repro.graph.validate import not_symmetric_error
from repro.ioutil import atomic_write_bytes
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
    "library",
    "fallback_reason",
    "delta_q",
    "setup_pass",
    "counting_argsort",
    "dfs_visit_order",
    "bfs_walk",
]

SOURCE = Path(__file__).with_name("sweep.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Folded items per library call: bounds the time between heartbeats.
_CHUNK_WORK = 1 << 16

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_SIGNATURES = {
    "rabbit_sweep": (
        _I64,
        [_P, _P, _P, _P, _I64, _I64, _I64, _P, _P, _P, _P, _P, _P, _P, _P, _P,
         _I64, _P, _P, _F64, _F64, _P],
    ),
    "rabbit_delta_q": (None, [_P, _P, _I64, _F64, _F64, _P]),
    "rabbit_setup": (_I64, [_P, _P, _P, _I64, _P, _P, _P]),
    "rabbit_counting_sort": (_I64, [_P, _I64, _P, _I64, _P]),
    "rabbit_dfs": (_I64, [_P, _P, _I64, _P, _I64, _P, _P, _P]),
    "rabbit_bfs": (_I64, [_P, _P, _P, _I64, _I64, _P, _P, _P, _P, _P]),
}

# repro: ignore[lock-in-lockfree-path]  guards the one-time library load
# (build and dlopen), never the sweep: the C keeps no global state.
_LOCK = threading.Lock()
_STATE: dict = {}


def _cache_root() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base)


def _trusted(path: Path) -> bool:
    """Owned by this user and writable by nobody else."""
    st = path.stat()
    return st.st_uid == os.geteuid() and not st.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def _compiler() -> tuple[str, str] | None:
    """``(cc path, cc --version output)``, or ``None`` without one."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (cc, proc.stdout) if proc.returncode == 0 else None


def _library_path(cache_root: Path, version: str) -> Path:
    """Where the library built by a compiler reporting *version* lives."""
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), " ".join(FLAGS).encode(), version.encode()])
    ).hexdigest()
    return cache_root / "repro" / "native" / f"sweep-{key[:32]}.so"


def _open(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


def _build(cc: str, path: Path) -> bool:
    """Compile beside the cache and install atomically: concurrent
    builders each install a complete library."""
    try:
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            out = Path(tmp) / path.name
            proc = subprocess.run(
                [cc, *FLAGS, "-o", str(out), str(SOURCE)],
                capture_output=True,
                timeout=300,
            )
            if proc.returncode != 0:
                return False
            atomic_write_bytes(path, out.read_bytes())
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _load(cache_root: Path) -> tuple[ctypes.CDLL | None, str | None]:
    """Open the cached library, building it if missing or corrupt.
    Returns ``(library, None)`` or ``(None, fallback reason)``."""
    found = _compiler()
    if found is None:
        return None, "no-compiler"
    cc, version = found
    path = _library_path(cache_root, version)
    # Both private levels get 0o700 explicitly: `parents=True` would
    # create `repro/` with the umask's mode, group-writable under 002.
    try:
        path.parent.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        path.parent.mkdir(mode=0o700, exist_ok=True)
    except OSError:
        return None, "no-cache-dir"
    if not (_trusted(path.parent) and _trusted(path.parent.parent)):
        return None, "untrusted-cache"
    if path.exists():
        if not _trusted(path):
            return None, "untrusted-cache"
        lib = _open(path)
        if lib is not None:
            return lib, None
    with span("rabbit.native.build", library=path.name):
        built = _build(cc, path)
    if not built:
        return None, "build-failed"
    lib = _open(path)
    return (lib, None) if lib is not None else (None, "load-failed")


def library() -> ctypes.CDLL | None:
    """The compiled sweep, loaded (and built) once per process; ``None``
    when unavailable (see :func:`fallback_reason`)."""
    with _LOCK:
        if "lib" not in _STATE:
            _STATE["lib"], _STATE["reason"] = _load(_cache_root())
        return _STATE["lib"]


def fallback_reason() -> str | None:
    """Why :func:`library` returned ``None`` (``None`` if it did not)."""
    library()
    return _STATE["reason"]


def _require_library() -> ctypes.CDLL:
    lib = library()
    if lib is None:
        raise RuntimeError(f"compiled sweep unavailable: {fallback_reason()}")
    return lib


def delta_q(
    w: np.ndarray, deg: np.ndarray, inv_2m: float, penalty: float
) -> np.ndarray:
    """The sweep's ΔQ kernel, elementwise: ``2.0 * (w * inv_2m - deg *
    penalty)``.  Exported so tests can check it against numpy."""
    lib = _require_library()
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
    lib = _require_library()
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
    lib = _require_library()
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


def bfs_walk(
    graph: CSRGraph,
    seeds: np.ndarray,
    level: np.ndarray,
    parent: np.ndarray,
    sorted_neighbors: bool,
) -> tuple[np.ndarray, int]:
    """The compiled level-synchronous BFS: one walk from each seed whose
    ``level`` is still ``-1``, writing ``level`` and ``parent`` (int64,
    C-contiguous, n entries, owned by the caller) in place.  Returns the
    visit order and the number of non-empty levels summed over the walks.
    The contract is :func:`repro.analysis.traversal.bfs`'s."""
    lib = _require_library()
    n = graph.num_vertices
    indptr = np.ascontiguousarray(graph.indptr)
    indices = np.ascontiguousarray(graph.indices)
    seeds = np.ascontiguousarray(seeds, dtype=np.int64)
    # The C indexes with every seed and writes n entries of each array.
    if seeds.size and (seeds.min() < 0 or seeds.max() >= n):
        raise ValueError(f"BFS seeds must lie in [0, {n})")
    for arr in (level, parent):
        if arr.dtype != np.int64 or arr.shape != (n,) or not arr.flags.c_contiguous:
            raise ValueError("level and parent must be C-contiguous int64 of n")
    order = np.empty(n, dtype=np.int64)
    buf = np.empty(n, dtype=np.int64)
    levels = np.zeros(1, dtype=np.int64)
    size = lib.rabbit_bfs(
        indptr.ctypes.data, indices.ctypes.data, seeds.ctypes.data, seeds.size,
        int(sorted_neighbors), level.ctypes.data, parent.ctypes.data,
        order.ctypes.data, buf.ctypes.data, levels.ctypes.data,
    )
    return order[:size], int(levels[0])


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
    collect_vertex_work: bool = False,
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
            collect_vertex_work=collect_vertex_work,
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
        stats = RabbitStats()
        if collect_vertex_work:
            stats.vertex_work = np.zeros(n, dtype=np.int64)
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
            "collect_vertex_work": collect_vertex_work,
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
                toplevel.ctypes.data,
                None if stats.vertex_work is None else stats.vertex_work.ctypes.data,
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
