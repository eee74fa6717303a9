"""Permutation cache: tiers, LRU eviction, corruption resilience.

The corruption tests mirror the checkpoint discipline
(`tests/resilience/test_checkpoint.py`): any damaged entry — truncated,
bit-flipped, wrong magic, wrong key, not a permutation — is *skipped*
(treated as a miss and unlinked), never an error surfaced to the caller.
"""

import os

import numpy as np
import pytest

from repro.errors import ServeError
from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
from repro.obs.metrics import counter_delta, get_registry
from repro.serve.cache import (
    PermutationCache,
    entry_path,
    load_entry,
    save_entry,
)
from tests.conftest import UNALLOCATABLE, reseal, reseal_members, reseal_meta


@pytest.fixture
def fingerprint():
    from repro.graph.csr import CSRGraph

    graph = CSRGraph.from_edges([0, 1, 2], [1, 2, 0], symmetrize=True)
    return graph_fingerprint(graph)


def _delta(before):
    return counter_delta(before, get_registry().counter_values("serve.cache."))


def _counters():
    return get_registry().counter_values("serve.cache.")


#: Arrays of the fixture graph's length (3) that are no permutation.
NOT_PERMUTATIONS = {
    "all-zeros": np.zeros(3, dtype=np.int64),
    "out-of-range": np.array([-1, 7, 0], dtype=np.int64),
    "two-dimensional": np.arange(3, dtype=np.int64).reshape(1, 3),
}


class TestEntryFormat:
    def test_round_trip(self, tmp_path, fingerprint):
        perm = np.array([2, 0, 1], dtype=np.int64)
        key = fingerprint_key(fingerprint)
        path = save_entry(tmp_path / "e.rbp", key, fingerprint, perm)
        assert np.array_equal(load_entry(path, expect_key=key), perm)

    def test_truncated_rejected(self, tmp_path, fingerprint):
        perm = np.array([2, 0, 1], dtype=np.int64)
        path = save_entry(tmp_path / "e.rbp", "k", fingerprint, perm)
        raw = path.read_bytes()
        for cut in (0, 4, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ServeError, match="truncated"):
                load_entry(path)

    @pytest.mark.parametrize("name", sorted(NOT_PERMUTATIONS))
    def test_non_permutation_rejected(self, tmp_path, fingerprint, name):
        path = save_entry(
            tmp_path / "e.rbp", "k", fingerprint, NOT_PERMUTATIONS[name]
        )
        with pytest.raises(ServeError, match="not a permutation"):
            load_entry(path, expect_key="k")

    def test_bitflip_fails_crc(self, tmp_path, fingerprint):
        perm = np.arange(3, dtype=np.int64)
        path = save_entry(tmp_path / "e.rbp", "k", fingerprint, perm)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ServeError, match="CRC32"):
            load_entry(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "e.rbp"
        path.write_bytes(b"NOTACACH" + b"\0" * 24)
        with pytest.raises(ServeError, match="magic"):
            load_entry(path)

    def test_wrong_key_rejected(self, tmp_path, fingerprint):
        perm = np.arange(3, dtype=np.int64)
        path = save_entry(tmp_path / "e.rbp", "stored-key", fingerprint, perm)
        with pytest.raises(ServeError, match="poisoned or misplaced"):
            load_entry(path, expect_key="other-key")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ServeError, match="cannot read"):
            load_entry(tmp_path / "absent.rbp")

    def test_zip_magic_without_a_zip_rejected(self, tmp_path, fingerprint):
        path = save_entry(tmp_path / "e.rbp", "k", fingerprint, np.arange(3))
        reseal(path, b"PK\x03\x04" + b"not a zip archive" * 4)
        with pytest.raises(ServeError, match="malformed"):
            load_entry(path, expect_key="k")

    def test_meta_that_is_not_an_object_rejected(self, tmp_path, fingerprint):
        path = save_entry(tmp_path / "e.rbp", "k", fingerprint, np.arange(3))
        reseal_meta(path, ["k", fingerprint])
        with pytest.raises(ServeError, match="malformed"):
            load_entry(path, expect_key="k")

    def test_size_mismatch_with_fingerprint(self, tmp_path, fingerprint):
        perm = np.arange(7, dtype=np.int64)  # fingerprint says n=3
        path = save_entry(tmp_path / "e.rbp", "k", fingerprint, perm)
        with pytest.raises(ServeError, match="fingerprint says"):
            load_entry(path, expect_key="k")


class TestTiers:
    def test_memory_then_disk_hit(self, tmp_path, fingerprint):
        cache = PermutationCache(tmp_path, memory_entries=4)
        perm = np.array([1, 0, 2], dtype=np.int64)
        cache.put("k1", fingerprint, perm)
        got, tier = cache.get("k1")
        assert tier == "memory"
        assert np.array_equal(got, perm)
        # A fresh cache over the same directory: disk tier survives.
        cache2 = PermutationCache(tmp_path, memory_entries=4)
        got, tier = cache2.get("k1")
        assert tier == "disk"
        assert np.array_equal(got, perm)
        # ... and the disk hit promoted the entry into memory.
        assert cache2.get("k1")[1] == "memory"

    def test_miss(self, tmp_path):
        cache = PermutationCache(tmp_path)
        before = _counters()
        assert cache.get("nope") is None
        assert _delta(before).get("serve.cache.miss") == 1

    def test_memory_only_mode(self, fingerprint):
        cache = PermutationCache(None, memory_entries=2)
        cache.put("k", fingerprint, np.arange(3, dtype=np.int64))
        assert cache.get("k")[1] == "memory"
        assert cache.disk_keys() == []
        assert cache.stats()["directory"] is None

    def test_memory_lru_eviction(self, tmp_path, fingerprint):
        cache = PermutationCache(tmp_path, memory_entries=2)
        perm = np.arange(3, dtype=np.int64)
        cache.put("a", fingerprint, perm)
        cache.put("b", fingerprint, perm)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", fingerprint, perm)
        assert cache.memory_keys() == ["a", "c"]
        # b fell out of memory but survives on disk.
        assert cache.get("b")[1] == "disk"

    def test_under_capacity_puts_never_evict(self, tmp_path, fingerprint):
        """Regression: a negative excess sliced entries from the oldest
        end, self-evicting an under-capacity disk tier on every put."""
        cache = PermutationCache(tmp_path, memory_entries=8, disk_entries=4)
        perm = np.arange(3, dtype=np.int64)
        before = _counters()
        for key in ("a", "b", "c"):  # disk_entries - 1 puts
            cache.put(key, fingerprint, perm)
        assert sorted(cache.disk_keys()) == ["a", "b", "c"]
        assert _delta(before).get("serve.cache.evict.disk") is None

    def test_disk_eviction_oldest_access_first(self, tmp_path, fingerprint):
        cache = PermutationCache(tmp_path, memory_entries=1, disk_entries=2)
        perm = np.arange(3, dtype=np.int64)
        cache.put("a", fingerprint, perm)
        cache.put("b", fingerprint, perm)
        # Backdate a's mtime so recency ordering is unambiguous.
        os.utime(entry_path(tmp_path, "a"), (1, 1))
        before = _counters()
        cache.put("c", fingerprint, perm)
        assert sorted(cache.disk_keys()) == ["b", "c"]
        assert _delta(before).get("serve.cache.evict.disk") == 1

    def test_invalid_capacities(self, tmp_path):
        with pytest.raises(ServeError):
            PermutationCache(tmp_path, memory_entries=0)
        with pytest.raises(ServeError):
            PermutationCache(tmp_path, disk_entries=0)

    def test_stats(self, tmp_path, fingerprint):
        cache = PermutationCache(tmp_path, memory_entries=8, disk_entries=16)
        cache.put("k", fingerprint, np.arange(3, dtype=np.int64))
        stats = cache.stats()
        assert stats["memory_entries"] == 1
        assert stats["disk_entries"] == 1
        assert stats["memory_capacity"] == 8
        assert stats["disk_capacity"] == 16


class TestCorruptionIsAMiss:
    """A damaged disk entry must behave exactly like a miss."""

    def _poison(self, tmp_path, fingerprint, *, how):
        cache = PermutationCache(tmp_path, memory_entries=2)
        perm = np.arange(3, dtype=np.int64)
        cache.put("k", fingerprint, perm)
        path = entry_path(tmp_path, "k")
        if how == "truncate":
            path.write_bytes(path.read_bytes()[:10])
        elif how == "bitflip":
            raw = bytearray(path.read_bytes())
            raw[-3] ^= 0x40
            path.write_bytes(bytes(raw))
        elif how == "wrong-key":
            save_entry(path, "other", fingerprint, perm)
        elif how == "zip-magic":
            reseal(path, b"PK\x03\x04" + b"\0" * 64)
        elif how == "meta-array":
            reseal_meta(path, ["k", fingerprint])
        elif how == "huge-claim":
            reseal_members(path, claim=("permutation", UNALLOCATABLE))
        elif how == "deflated":
            reseal_members(path, compress=True)
        elif how in NOT_PERMUTATIONS:
            save_entry(path, "k", fingerprint, NOT_PERMUTATIONS[how])
        return path

    @pytest.mark.parametrize(
        "how",
        ["truncate", "bitflip", "wrong-key", "zip-magic", "meta-array",
         "huge-claim", "deflated", *sorted(NOT_PERMUTATIONS)],
    )
    def test_corrupt_entry_is_skipped_and_unlinked(
        self, tmp_path, fingerprint, how
    ):
        path = self._poison(tmp_path, fingerprint, how=how)
        # Fresh cache (cold memory tier) so the disk entry is consulted.
        cache = PermutationCache(tmp_path, memory_entries=2)
        before = _counters()
        assert cache.get("k") is None  # a miss, not an exception
        delta = _delta(before)
        assert delta.get("serve.cache.corrupt") == 1
        assert delta.get("serve.cache.miss") == 1
        assert not path.exists()  # unlinked so a recompute can refill it

    def test_refill_after_corruption(self, tmp_path, fingerprint):
        self._poison(tmp_path, fingerprint, how="bitflip")
        cache = PermutationCache(tmp_path, memory_entries=2)
        assert cache.get("k") is None
        perm = np.array([2, 1, 0], dtype=np.int64)
        cache.put("k", fingerprint, perm)
        got, tier = PermutationCache(tmp_path, memory_entries=2).get("k")
        assert tier == "disk"
        assert np.array_equal(got, perm)
