"""Checkpoint/resume for incremental aggregation.

One engine-agnostic snapshot schema covers all three detection engines
(dict, compiled sweep, parallel), which is what makes the supervisor's
degradation ladder possible: a run interrupted on one rung can resume on
any other, because everything an engine needs to continue is the shared
aggregation state, not engine internals:

* ``order``      — the full visit order (frozen at run start, so the
  RNG used by ``visit="random"`` never has to be re-wound);
* ``progress``   — how many vertices of ``order`` are decided;
* ``dest`` / ``child`` / ``sibling`` — the union-find and dendrogram
  links (path-compression state is irrelevant: only roots decide);
* ``degrees``    — community degrees, with merged vertices normalised to
  ``INVALID_DEGREE`` (the parallel engine's convention; the sequential
  engines never read a non-root degree, so the normalisation is free);
* ``toplevel``   — the decided top-level prefix, in final output order;
* the folded adjacency of every processed vertex, flattened into
  ``(offsets, lengths, keys, ws)`` pools.  First-encounter key order is
  preserved, so rebuilding dict entries or entry-pool slices reproduces the
  exact accumulation and tie-break order — resume is bit-identical.

File format
-----------
The sealed container of :func:`repro.ioutil.write_sealed`, magic
``RBO-CKPT``: a fixed binary header followed by an ``npz`` payload::

    magic "RBO-CKPT" | schema_version u32 | payload_crc32 u32
    | payload_len u64 | payload (npz bytes, meta as JSON inside)

Files are installed atomically (tmp + fsync + rename), so a crash
mid-write can never tear a checkpoint; a torn, truncated, bit-flipped or
otherwise malformed file is rejected with
:class:`~repro.errors.CheckpointError`.  Stale
files — written for a different graph or detection parameterisation —
are rejected by the fingerprint check before any state is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.community.dendrogram import NO_VERTEX
from repro.errors import CheckpointError
from repro.graph.fingerprint import graph_fingerprint
from repro.ioutil import read_sealed, write_sealed
from repro.parallel.atomics import INVALID_DEGREE

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointConfig",
    "Checkpointer",
    "Snapshot",
    "graph_fingerprint",
    "require_fingerprint_match",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "pack_adjacency",
    "build_snapshot",
    "as_checkpointer",
]

#: Bumped on any incompatible change to the snapshot schema.
SCHEMA_VERSION = 1

_MAGIC = b"RBO-CKPT"

#: Array fields of a :class:`Snapshot`, in serialisation order.
_ARRAY_FIELDS = (
    ("order", np.int64),
    ("dest", np.int64),
    ("child", np.int64),
    ("sibling", np.int64),
    ("degrees", np.float64),
    ("toplevel", np.int64),
    ("adj_offsets", np.int64),
    ("adj_lengths", np.int64),
    ("adj_keys", np.int64),
    ("adj_ws", np.float64),
    ("chunk_edges", np.int64),
    ("vertex_work", np.int64),
)

#: ``RabbitStats`` fields carried through a checkpoint.
STAT_FIELDS = (
    "edges_scanned",
    "merges",
    "toplevels",
    "retries",
    "orphans_recovered",
    "partial_repairs",
    "fallback_merges",
    "fallback_toplevels",
)


@dataclass
class Snapshot:
    """One consistent aggregation state, engine-agnostic.

    ``adj_lengths[v] == -1`` marks a vertex that has never been folded
    (the dict engine's ``adj[v] is None``); otherwise vertex *v*'s folded
    entry is ``adj_keys[off:off+len]`` / ``adj_ws[off:off+len]`` with the
    self-loop key last, exactly the convention every engine uses.
    ``meta`` carries the scalars: ``engine``, ``progress``, the stats
    counters, the graph fingerprint, and the engine configuration needed
    by ``repro resume`` to relaunch without re-specifying flags.
    """

    order: np.ndarray
    dest: np.ndarray
    child: np.ndarray
    sibling: np.ndarray
    degrees: np.ndarray
    toplevel: np.ndarray
    adj_offsets: np.ndarray
    adj_lengths: np.ndarray
    adj_keys: np.ndarray
    adj_ws: np.ndarray
    meta: dict[str, Any]
    #: parallel engine only: per-completed-chunk edges_scanned
    chunk_edges: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: per-vertex edges scanned so far (empty in snapshots written
    #: before every run counted it)
    vertex_work: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def progress(self) -> int:
        return int(self.meta["progress"])

    @property
    def engine(self) -> str:
        return str(self.meta["engine"])

    @property
    def num_vertices(self) -> int:
        return int(self.dest.size)

    @property
    def config(self) -> dict[str, Any]:
        """Engine configuration recorded at save time (``repro resume``
        uses it to relaunch without re-specifying flags)."""
        return dict(self.meta.get("config", {}))

    @property
    def fault_counters(self) -> dict[str, int]:
        """Fault tallies at save time (empty when injection was off)."""
        return {
            k: int(v) for k, v in self.meta.get("fault_counters", {}).items()
        }

    def stats_dict(self) -> dict[str, int]:
        return {k: int(v) for k, v in self.meta.get("stats", {}).items()}

    def iter_adjacency(self) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
        """Per-vertex folded ``(keys, ws)`` views (``None`` = never folded)."""
        offsets, lengths = self.adj_offsets, self.adj_lengths
        keys, ws = self.adj_keys, self.adj_ws
        for v in range(self.dest.size):
            ln = int(lengths[v])
            if ln < 0:
                yield None
            else:
                off = int(offsets[v])
                yield keys[off : off + ln], ws[off : off + ln]

    def validate(self) -> None:
        """Internal-consistency checks beyond the CRC (cheap, O(n log n))."""
        # The meta is read back from the file: check every field the
        # accessors above and the resume paths index into.
        meta = self.meta
        if not isinstance(meta.get("progress"), int):
            raise CheckpointError("snapshot meta needs an integer 'progress'")
        if not isinstance(meta.get("engine"), str):
            raise CheckpointError("snapshot meta needs an 'engine' name")
        for key in ("stats", "fault_counters", "fingerprint", "config"):
            if not isinstance(meta.get(key, {}), dict):
                raise CheckpointError(f"snapshot meta {key!r} is not an object")
        for key in ("stats", "fault_counters"):
            if not all(isinstance(v, int) for v in meta.get(key, {}).values()):
                raise CheckpointError(f"snapshot meta {key!r} holds a non-integer")
        n = self.dest.size
        for name in ("child", "sibling", "degrees", "adj_offsets", "adj_lengths"):
            if getattr(self, name).size != n:
                raise CheckpointError(
                    f"snapshot array {name!r} has {getattr(self, name).size} "
                    f"entries, expected {n}"
                )
        if self.vertex_work.size not in (0, n):
            raise CheckpointError(
                f"snapshot array 'vertex_work' has {self.vertex_work.size} "
                f"entries, expected 0 or {n}"
            )
        if self.order.size != n:
            raise CheckpointError(
                f"snapshot visit order has {self.order.size} entries, expected {n}"
            )
        if not 0 <= self.progress <= n:
            raise CheckpointError(
                f"snapshot progress {self.progress} out of range [0, {n}]"
            )
        stored = self.adj_lengths >= 0
        if stored.any():
            ends = self.adj_offsets[stored] + self.adj_lengths[stored]
            if int(ends.max(initial=0)) > self.adj_keys.size or (
                self.adj_offsets[stored] < 0
            ).any():
                raise CheckpointError(
                    "snapshot adjacency slices fall outside the key pool"
                )
        if self.adj_keys.size != self.adj_ws.size:
            raise CheckpointError("snapshot adjacency key/weight pools differ")
        # Vertex ids index the engines' arrays (the compiled sweep's
        # without bounds checks), so every one must name a vertex.
        for name, low in (
            ("order", 0), ("dest", 0), ("toplevel", 0), ("adj_keys", 0),
            ("child", NO_VERTEX), ("sibling", NO_VERTEX),
        ):
            arr = getattr(self, name)
            if arr.size and (arr.min() < low or arr.max() >= n):
                raise CheckpointError(
                    f"snapshot {name} holds values outside [{low}, {n})"
                )
        self._validate_forest(n)
        if self.adj_lengths.size and self.adj_lengths.min() < -1:
            raise CheckpointError("snapshot adj_lengths holds values below -1")
        if self.toplevel.size > self.progress:
            raise CheckpointError(
                f"snapshot has {self.toplevel.size} top-level vertices but "
                f"only {self.progress} decided"
            )

    def _validate_forest(self, n: int) -> None:
        """The ``child``/``sibling`` links must form a forest: every
        engine walks a community's members along them, and a vertex
        linked from two places or a cycle makes that walk never end."""
        links = np.concatenate((self.child, self.sibling))
        linked = links != NO_VERTEX
        targets = links[linked]
        counts = np.bincount(targets, minlength=n)
        if counts.max(initial=0) > 1:
            raise CheckpointError(
                f"snapshot links are malformed: vertex {int(counts.argmax())} "
                "is linked from two places"
            )
        # Point each vertex at its one parent (roots at themselves) and
        # double: after ceil(log2 n) rounds every vertex of a tree points
        # at its root, and a vertex on or below a cycle at one that still
        # has a parent.
        up = np.arange(n, dtype=np.int64)
        up[targets] = np.flatnonzero(linked) % n
        for _ in range(n.bit_length()):
            up = up[up]
        looped = np.flatnonzero(counts[up])
        if looped.size:
            raise CheckpointError(
                f"snapshot links are malformed: vertex {int(up[looped[0]])} "
                "lies on a cycle"
            )


def pack_adjacency(
    entries: Iterable[tuple[Any, Any] | None],
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-vertex ``(keys, ws)`` sequences into the pool arrays.

    *entries* yields, per vertex, either ``None`` (never folded) or a
    ``(keys, ws)`` pair of equal-length sequences in first-encounter
    order (self-loop key last).  Returns
    ``(offsets, lengths, keys_pool, ws_pool)``.
    """
    offsets = np.zeros(num_vertices, dtype=np.int64)
    lengths = np.full(num_vertices, -1, dtype=np.int64)
    key_parts: list[np.ndarray] = []
    ws_parts: list[np.ndarray] = []
    cursor = 0
    for v, entry in enumerate(entries):
        if entry is None:
            continue
        keys, ws = entry
        keys = np.asarray(keys, dtype=np.int64)
        ws = np.asarray(ws, dtype=np.float64)
        offsets[v] = cursor
        lengths[v] = keys.size
        cursor += keys.size
        key_parts.append(keys)
        ws_parts.append(ws)
    keys_pool = (
        np.concatenate(key_parts) if key_parts else np.zeros(0, dtype=np.int64)
    )
    ws_pool = (
        np.concatenate(ws_parts) if ws_parts else np.zeros(0, dtype=np.float64)
    )
    return offsets, lengths, keys_pool, ws_pool


# ---------------------------------------------------------------------------
# Fingerprinting: reject checkpoints from a different run configuration.
# The fingerprint itself lives in repro.graph.fingerprint (shared with
# the serving cache); graph_fingerprint is re-exported here so existing
# importers keep working.


def require_fingerprint_match(
    snapshot: Snapshot, fingerprint: dict[str, Any], *, source: str = "checkpoint"
) -> None:
    stored = snapshot.meta.get("fingerprint", {})
    for key, expected in fingerprint.items():
        got = stored.get(key)
        if got != expected:
            raise CheckpointError(
                f"{source} is stale: fingerprint field {key!r} is {got!r}, "
                f"current run has {expected!r}"
            )


def build_snapshot(
    *,
    engine: str,
    progress: int,
    order: np.ndarray,
    dest: np.ndarray,
    child: np.ndarray,
    sibling: np.ndarray,
    comm_deg: np.ndarray,
    toplevel: Iterable[int],
    adjacency: Iterable[tuple[Any, Any] | None],
    stats: Any,
    fingerprint: dict[str, Any],
    config: dict[str, Any],
    chunk_edges: Iterable[int] = (),
    fault_counters: dict[str, int] | None = None,
) -> Snapshot:
    """Assemble the engine-agnostic :class:`Snapshot` from live state.

    Community degrees of *merged* vertices are normalised to
    ``INVALID_DEGREE`` regardless of source engine: the parallel engine
    already stores that sentinel, while the sequential engines leave a
    stale pre-merge value behind — which no engine ever reads again, so
    the normalisation is free and makes every checkpoint restorable into
    the :class:`~repro.parallel.atomics.AtomicPairArray` convention.
    """
    dest = np.ascontiguousarray(dest, dtype=np.int64)
    n = dest.size
    merged = dest != np.arange(n, dtype=np.int64)
    degrees = np.asarray(comm_deg, dtype=np.float64).copy()
    degrees[merged] = INVALID_DEGREE
    adj_offsets, adj_lengths, adj_keys, adj_ws = pack_adjacency(adjacency, n)
    meta: dict[str, Any] = {
        "engine": engine,
        "progress": int(progress),
        "stats": {k: int(getattr(stats, k)) for k in STAT_FIELDS},
        "fingerprint": dict(fingerprint),
        "config": dict(config),
    }
    if fault_counters is not None:
        meta["fault_counters"] = {k: int(v) for k, v in fault_counters.items()}
    return Snapshot(
        order=np.ascontiguousarray(order, dtype=np.int64),
        dest=dest,
        child=np.ascontiguousarray(child, dtype=np.int64),
        sibling=np.ascontiguousarray(sibling, dtype=np.int64),
        degrees=degrees,
        toplevel=np.asarray(list(toplevel), dtype=np.int64),
        adj_offsets=adj_offsets,
        adj_lengths=adj_lengths,
        adj_keys=adj_keys,
        adj_ws=adj_ws,
        chunk_edges=np.asarray(list(chunk_edges), dtype=np.int64),
        vertex_work=np.ascontiguousarray(stats.vertex_work, dtype=np.int64),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# On-disk format.


def save_checkpoint(path: str | Path, snapshot: Snapshot) -> Path:
    """Serialise *snapshot* and install it atomically at *path*."""
    snapshot.validate()
    arrays = {
        name: np.ascontiguousarray(getattr(snapshot, name), dtype=dtype)
        for name, dtype in _ARRAY_FIELDS
    }
    return write_sealed(path, _MAGIC, SCHEMA_VERSION, arrays, snapshot.meta)


def load_checkpoint(path: str | Path) -> Snapshot:
    """Read and verify a checkpoint; any damage raises
    :class:`~repro.errors.CheckpointError`."""
    meta, arrays = read_sealed(
        path, _MAGIC, SCHEMA_VERSION, _ARRAY_FIELDS,
        error=CheckpointError, kind="checkpoint",
    )
    snapshot = Snapshot(meta=meta, **arrays)
    try:
        snapshot.validate()
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return snapshot


# ---------------------------------------------------------------------------
# Directory management.

_CKPT_GLOB = "ckpt-*.rbk"


def _checkpoint_path(directory: Path, progress: int) -> Path:
    return directory / f"ckpt-{progress:012d}.rbk"


def latest_checkpoint(directory: str | Path) -> tuple[Path, Snapshot] | None:
    """Newest loadable checkpoint in *directory* (highest progress wins).

    Corrupt or truncated files are skipped — a crash during the *write*
    of checkpoint k must fall back to checkpoint k-1, not kill the
    resume.  Returns ``None`` for an empty/missing directory; raises
    :class:`~repro.errors.CheckpointError` if checkpoint files exist but
    none is loadable.
    """
    directory = Path(directory)
    candidates = sorted(directory.glob(_CKPT_GLOB), reverse=True)
    if not candidates:
        return None
    failures: list[str] = []
    for path in candidates:
        try:
            return path, load_checkpoint(path)
        except CheckpointError as exc:
            failures.append(str(exc))
    raise CheckpointError(
        f"no loadable checkpoint in {directory}: " + "; ".join(failures)
    )


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to snapshot.

    ``every`` counts *decided vertices* between snapshots; the parallel
    engine rounds it up to whole scheduling chunks (its natural
    quiescence boundary).  ``keep`` retains the newest snapshots so a
    checkpoint torn by a crash still leaves an older complete one.
    """

    directory: str | Path
    every: int = 1024
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every < 1:
            raise CheckpointError(
                f"checkpoint every must be >= 1 vertex, got {self.every}"
            )
        if self.keep < 1:
            raise CheckpointError(
                f"checkpoint keep must be >= 1 file, got {self.keep}"
            )


class Checkpointer:
    """Runtime side of a :class:`CheckpointConfig`: writes, prunes, hooks.

    ``on_save`` (if given) runs after each snapshot lands with
    ``(progress, path)`` — the chaos harness uses it to SIGKILL the
    process at a precise, replayable point.
    """

    def __init__(
        self,
        config: CheckpointConfig,
        *,
        on_save: Callable[[int, Path], None] | None = None,
    ):
        self.config = config
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.on_save = on_save
        #: paths written by this checkpointer, oldest first
        self.saved: list[Path] = []

    @property
    def every(self) -> int:
        return self.config.every

    def due(self, progress: int) -> bool:
        """Whether a sequential engine should snapshot after *progress*
        decided vertices."""
        return progress > 0 and progress % self.config.every == 0

    def save(self, snapshot: Snapshot) -> Path:
        path = save_checkpoint(
            _checkpoint_path(self.directory, snapshot.progress), snapshot
        )
        if path not in self.saved:
            self.saved.append(path)
        self._prune()
        if self.on_save is not None:
            self.on_save(snapshot.progress, path)
        return path

    def _prune(self) -> None:
        existing = sorted(self.directory.glob(_CKPT_GLOB))
        excess = max(0, len(existing) - self.config.keep)
        for path in existing[:excess]:
            path.unlink(missing_ok=True)
            if path in self.saved:
                self.saved.remove(path)


def as_checkpointer(
    checkpoint: "CheckpointConfig | Checkpointer | None",
) -> Checkpointer | None:
    """Normalise the ``checkpoint=`` argument engines accept."""
    if checkpoint is None or isinstance(checkpoint, Checkpointer):
        return checkpoint
    return Checkpointer(checkpoint)
