"""Atomic primitives: CAS semantics and thread-safety."""

import threading

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

    def test_concurrent_cas_single_winner(self):
        """N threads race one CAS on the same record: exactly one wins."""
        a = self.make()
        wins = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if a.cas(0, (1.0, -1), (float(i + 10), i)):
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert a.load(0) == (float(wins[0] + 10), wins[0])

    def test_concurrent_degree_accumulation(self):
        """CAS-retry loops from many threads must not lose any increment."""
        a = AtomicPairArray(np.zeros(1))

        def adder():
            for _ in range(200):
                while True:
                    d, c = a.load(0)
                    if a.cas(0, (d, c), (d + 1.0, c)):
                        break

        threads = [threading.Thread(target=adder) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert a.load_degree(0) == 1200.0


class TestOpCounter:
    def test_merge(self):
        a, b = OpCounter(), OpCounter()
        a.loads, b.loads = 2, 3
        b.cas_success = 1
        a.merge(b)
        assert a.loads == 5
        assert a.cas_attempts == 1

    def test_snapshot_keys(self):
        snap = OpCounter().snapshot()
        assert set(snap) == {"loads", "swaps", "cas_success", "cas_failure"}

