"""The compiled library: its loader, and the graph-level kernels in it.

``kernels.c`` holds every compiled kernel of the package: the Rabbit
Order sweep, its setup pass, the degree counting sort and the ordering
DFS (wrapped by :mod:`repro.rabbit.native`), the level-synchronous BFS
of :mod:`repro.analysis.traversal` (:func:`bfs_walk`), and the graph
file readers of :mod:`repro.graph.io` (:func:`edge_list`,
:func:`metis_edges`).  They share one loader, so one build serves them
all.  Every caller runs its numpy or Python equivalent when
:func:`library` returns ``None``.

Build
-----
The library is built on first use with the local C compiler
(``cc -O2 -fPIC -shared -ffp-contract=off``; never ``-ffast-math``: a
contracted multiply-add changes the last ulp of ΔQ) into
``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache``), named by the
SHA-256 of the source, the flags and ``cc --version``, and installed
atomically; a cold build is traced as ``rabbit.native.build``.  A cache
directory or library that is not owned by the user or that others can
write is refused.  With no compiler, no trusted cache or a failed build,
:func:`library` returns ``None`` and :func:`fallback_reason` says why.
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
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_bytes

__all__ = [
    "library",
    "fallback_reason",
    "require_library",
    "bfs_walk",
    "edge_list",
    "metis_edges",
]

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

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
    "rabbit_read_edges": (_I64, [_P, _I64, _I64, _I64, _P, _P]),
    "rabbit_read_metis": (_I64, [_P, _I64, _I64, _P, _P, _P]),
}

# Guards the one-time library load (build and dlopen), never a kernel:
# the C keeps no global state.
_LOCK = threading.Lock()
_STATE: dict = {}


def _span(name: str, **attrs):
    # repro: ignore[layering]  a load's spans (and the library build's)
    # are the one place repro.graph reports where its time went; the
    # tracer is stdlib only and imported lazily, so repro.graph stays
    # import-time free of higher layers (as in ops.reorder_directed).
    from repro.obs.trace import span

    return span(name, **attrs)


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
    return cache_root / "repro" / "native" / f"kernels-{key[:32]}.so"


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
    with _span("rabbit.native.build", library=path.name):
        built = _build(cc, path)
    if not built:
        return None, "build-failed"
    lib = _open(path)
    return (lib, None) if lib is not None else (None, "load-failed")


def library() -> ctypes.CDLL | None:
    """The compiled library, loaded (and built) once per process;
    ``None`` when unavailable (see :func:`fallback_reason`)."""
    with _LOCK:
        if "lib" not in _STATE:
            _STATE["lib"], _STATE["reason"] = _load(_cache_root())
        return _STATE["lib"]


def fallback_reason() -> str | None:
    """Why :func:`library` returned ``None`` (``None`` if it did not)."""
    library()
    return _STATE["reason"]


def require_library() -> ctypes.CDLL:
    """:func:`library`, for callers that have no fallback of their own."""
    lib = library()
    if lib is None:
        raise RuntimeError(f"compiled library unavailable: {fallback_reason()}")
    return lib


def bfs_walk(
    graph,
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
    lib = require_library()
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


def edge_list(data: bytes, comment: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(src, dst)`` ids of an unweighted edge list's rows, in file
    order, or ``None`` when *data* or the comment character (*comment*,
    a code point) leaves the compiled reader's subset (``kernels.c``,
    "Graph file readers").  A row takes at least four bytes
    (``"u v\\n"``), which bounds both arrays."""
    lib = require_library()
    buf = np.frombuffer(data, dtype=np.uint8)
    cap = (len(data) + 1) // 4
    src = np.empty(cap, dtype=np.int64)
    dst = np.empty(cap, dtype=np.int64)
    rows = lib.rabbit_read_edges(
        buf.ctypes.data, buf.size, comment, cap, src.ctypes.data, dst.ctypes.data
    )
    return None if rows < 0 else (src[:rows], dst[:rows])


def metis_edges(data: bytes) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """``(n, m, src, dst)`` of an unweighted METIS file: the header's
    vertex and edge counts, and each adjacency list's slots in file order
    (0-based row, 0-based id).  ``None`` when *data* leaves the compiled
    reader's subset or does not hold the header's *n* lists.  Nothing is
    sized from the header: every id takes at least two bytes (a digit
    and a separator, or the end), which bounds both arrays."""
    lib = require_library()
    buf = np.frombuffer(data, dtype=np.uint8)
    cap = len(data) // 2 + 1
    src = np.empty(cap, dtype=np.int64)
    dst = np.empty(cap, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)
    slots = lib.rabbit_read_metis(
        buf.ctypes.data, buf.size, cap, src.ctypes.data, dst.ctypes.data,
        counts.ctypes.data,
    )
    if slots < 0:
        return None
    return int(counts[0]), int(counts[1]), src[:slots], dst[:slots]
