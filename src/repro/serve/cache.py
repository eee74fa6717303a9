"""Content-addressed permutation cache: in-memory LRU over a disk tier.

Keys are :func:`repro.graph.fingerprint.fingerprint_key` digests of the
detection-problem fingerprint, so a hit is only possible for a
byte-identical graph under identical decision parameters — and because
every engine is bit-identical, a cached permutation is *the* answer, not
an approximation of it.

Two tiers:

* **memory** — an LRU ``OrderedDict`` of ndarrays, bounded by entry
  count; hits are O(1) and allocation-free.
* **disk** — one file per key (``perm-<key>.rbp``) under the cache
  directory, installed with :func:`repro.ioutil.atomic_write_bytes`
  and bounded by entry count with oldest-access eviction (mtime is
  refreshed on every hit).  Entries survive daemon restarts — the
  amortisation story of "A Closer Look at Lightweight Graph Reordering"
  (reordering pays off only when the same graph is analysed again)
  across process lifetimes.

The file is the checkpoints' sealed container
(:func:`repro.ioutil.write_sealed`, magic ``RBO-PERM``): a fixed header
over an npz payload holding the permutation and a JSON meta blob (the
full fingerprint plus the key).  A truncated, bit-flipped, malformed or
wrong-key file, or one whose array is not a permutation of the
fingerprint's ``n`` vertices, fails the header/CRC/payload/fingerprint
checks and is treated exactly like a corrupt checkpoint in
:func:`~repro.resilience.checkpoint.latest_checkpoint`: *skipped*, not
fatal — the daemon recomputes instead of serving a 500 (and unlinks the
poisoned file so the slot can be refilled).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import PermutationError, ServeError
from repro.graph.perm import validate_permutation
from repro.ioutil import read_sealed, write_sealed
from repro.obs.metrics import get_registry

__all__ = [
    "ENTRY_SCHEMA_VERSION",
    "PermutationCache",
    "save_entry",
    "load_entry",
    "entry_path",
]

#: Bumped on any incompatible change to the on-disk entry format.
ENTRY_SCHEMA_VERSION = 1

_MAGIC = b"RBO-PERM"
_ENTRY_GLOB = "perm-*.rbp"


def entry_path(directory: str | Path, key: str) -> Path:
    return Path(directory) / f"perm-{key}.rbp"


def save_entry(
    path: str | Path, key: str, fingerprint: dict[str, Any], permutation: np.ndarray
) -> Path:
    """Serialise one cache entry and install it atomically at *path*."""
    return write_sealed(
        path,
        _MAGIC,
        ENTRY_SCHEMA_VERSION,
        {"permutation": np.ascontiguousarray(permutation, dtype=np.int64)},
        {"key": key, "fingerprint": dict(fingerprint)},
    )


def load_entry(path: str | Path, *, expect_key: str | None = None) -> np.ndarray:
    """Read and verify one cache entry; any damage raises
    :class:`~repro.errors.ServeError`."""
    meta, arrays = read_sealed(
        path, _MAGIC, ENTRY_SCHEMA_VERSION, [("permutation", np.int64)],
        error=ServeError, kind="cache entry",
    )
    permutation = arrays["permutation"]
    if expect_key is not None and meta.get("key") != expect_key:
        raise ServeError(
            f"{path}: cache entry is for key {meta.get('key')!r}, "
            f"expected {expect_key!r} (poisoned or misplaced entry)"
        )
    fingerprint = meta.get("fingerprint", {})
    n = (
        fingerprint.get("n", permutation.size)
        if isinstance(fingerprint, dict)
        else None
    )
    if n != permutation.size:
        raise ServeError(
            f"{path}: permutation has {permutation.size} entries, "
            f"fingerprint says {n}"
        )
    # The daemon sends the entry to clients as the answer.
    try:
        validate_permutation(permutation)
    except PermutationError as exc:
        raise ServeError(f"{path}: cache entry is not a permutation: {exc}") from exc
    return permutation


class PermutationCache:
    """Two-tier content-addressed permutation store (see module docs).

    Thread-safe: the daemon calls :meth:`get`/:meth:`put` from its
    blocking-work executor threads while ``stats`` is read from the
    event loop.  ``directory=None`` disables the disk tier (memory-only
    caching, e.g. throwaway test servers).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        memory_entries: int = 128,
        disk_entries: int = 1024,
    ):
        if memory_entries < 1:
            raise ServeError(
                f"cache memory_entries must be >= 1, got {memory_entries}"
            )
        if disk_entries < 1:
            raise ServeError(f"cache disk_entries must be >= 1, got {disk_entries}")
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_entries = int(memory_entries)
        self.disk_entries = int(disk_entries)
        self._memory: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = get_registry()

    # -- lookups ---------------------------------------------------------
    def get(self, key: str) -> tuple[np.ndarray, str] | None:
        """Return ``(permutation, tier)`` for *key*, or ``None`` on miss.

        ``tier`` is ``"memory"`` or ``"disk"``.  Corrupt disk entries
        count as misses (``serve.cache.corrupt`` increments and the file
        is unlinked so a recompute can refill the slot).
        """
        with self._lock:
            perm = self._memory.get(key)
            if perm is not None:
                self._memory.move_to_end(key)
                self._metrics.counter("serve.cache.hit.memory").inc()
                return perm, "memory"
        if self.directory is None:
            self._metrics.counter("serve.cache.miss").inc()
            return None
        path = entry_path(self.directory, key)
        if not path.exists():
            self._metrics.counter("serve.cache.miss").inc()
            return None
        try:
            perm = load_entry(path, expect_key=key)
        except ServeError:
            # Same policy as latest_checkpoint for corrupt snapshots:
            # skip, never fail the caller — a poisoned entry triggers a
            # recompute, not a 500.
            self._metrics.counter("serve.cache.corrupt").inc()
            path.unlink(missing_ok=True)
            self._metrics.counter("serve.cache.miss").inc()
            return None
        os.utime(path)  # refresh access recency for disk-tier LRU
        self._install_memory(key, perm)
        self._metrics.counter("serve.cache.hit.disk").inc()
        return perm, "disk"

    def put(self, key: str, fingerprint: dict[str, Any], permutation: np.ndarray) -> None:
        """Install *permutation* in both tiers (evicting LRU overflow)."""
        perm = np.ascontiguousarray(permutation, dtype=np.int64)
        self._install_memory(key, perm)
        if self.directory is not None:
            save_entry(entry_path(self.directory, key), key, fingerprint, perm)
            self._prune_disk()
        self._metrics.counter("serve.cache.store").inc()

    # -- internals -------------------------------------------------------
    def _install_memory(self, key: str, perm: np.ndarray) -> None:
        with self._lock:
            self._memory[key] = perm
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self._metrics.counter("serve.cache.evict.memory").inc()

    def _prune_disk(self) -> None:
        assert self.directory is not None
        entries = sorted(
            self.directory.glob(_ENTRY_GLOB),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        excess = len(entries) - self.disk_entries
        if excess <= 0:
            return
        for path in entries[:excess]:
            path.unlink(missing_ok=True)
            self._metrics.counter("serve.cache.evict.disk").inc()

    # -- introspection ---------------------------------------------------
    def memory_keys(self) -> list[str]:
        """Memory-tier keys, least- to most-recently used (tests)."""
        with self._lock:
            return list(self._memory)

    def disk_keys(self) -> list[str]:
        """Disk-tier keys, oldest- to newest-access (tests)."""
        if self.directory is None:
            return []
        entries = sorted(
            self.directory.glob(_ENTRY_GLOB),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        return [p.stem[len("perm-") :] for p in entries]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            memory = len(self._memory)
        disk = (
            0
            if self.directory is None
            else sum(1 for _ in self.directory.glob(_ENTRY_GLOB))
        )
        return {
            "memory_entries": memory,
            "memory_capacity": self.memory_entries,
            "disk_entries": disk,
            "disk_capacity": self.disk_entries,
            "directory": None if self.directory is None else str(self.directory),
        }
