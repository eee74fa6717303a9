"""Atomic primitives: CAS semantics."""

import numpy as np
import pytest

from repro.parallel.atomics import (
    INVALID_DEGREE,
    AtomicPairArray,
    OpCounter,
)


class TestAtomicPairArray:
    def make(self, n=4):
        return AtomicPairArray(np.arange(1.0, n + 1.0))

    def test_initial_state(self):
        a = self.make()
        assert a.load(0) == (1.0, -1)
        assert len(a) == 4

    def test_swap_degree_returns_old(self):
        a = self.make()
        old = a.swap_degree(1, INVALID_DEGREE)
        assert old == 2.0
        assert a.load_degree(1) == INVALID_DEGREE

    def test_store_degree(self):
        a = self.make()
        a.store_degree(2, 9.0)
        assert a.load_degree(2) == 9.0

    def test_cas_success(self):
        a = self.make()
        assert a.cas(0, (1.0, -1), (5.0, 3))
        assert a.load(0) == (5.0, 3)
        assert a.counter.cas_success == 1

    def test_cas_fails_on_degree_mismatch(self):
        a = self.make()
        assert not a.cas(0, (2.0, -1), (5.0, 3))
        assert a.load(0) == (1.0, -1)
        assert a.counter.cas_failure == 1

    def test_cas_fails_on_child_mismatch(self):
        a = self.make()
        assert not a.cas(0, (1.0, 7), (5.0, 3))

    def test_cas_aba_on_full_pair(self):
        """The CAS compares the whole (degree, child) record, so a change
        to either field defeats an otherwise-matching expectation."""
        a = self.make()
        snapshot = a.load(0)
        a.cas(0, snapshot, (1.0, 2))  # degree back to same value, child != -1
        assert not a.cas(0, snapshot, (9.0, 9))

    def test_views_reflect_updates(self):
        a = self.make()
        a.cas(1, (2.0, -1), (4.0, 0))
        assert a.children_view()[1] == 0
        assert a.degrees_view()[1] == 4.0


class TestOpCounter:
    def test_snapshot_keys(self):
        snap = OpCounter().snapshot()
        assert set(snap) == {"loads", "swaps", "cas_success", "cas_failure"}

