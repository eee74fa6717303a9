"""Cross-module property-based invariants.

These tie the subsystems together: whatever random graph hypothesis
draws, reordering must be a pure relabelling (analyses unchanged),
modularity must stay within its theoretical bounds, the cache simulator
must respect inclusion, and Rabbit's ordering must keep every community
contiguous.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pagerank, spmv
from repro.cache import CacheConfig, SetAssociativeLRU
from repro.community import modularity
from repro.graph import (
    CSRGraph,
    invert_permutation,
    random_permutation,
    validate_permutation,
)
from repro.graph.perm import apply_permutation_to_values
from repro.order import ALGORITHMS
from repro.rabbit import (
    community_detection_par,
    ordering_generation_seq,
    rabbit_order,
)


def random_graph(seed: int, n_max: int = 40, density: float = 0.15) -> CSRGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max(n_max, 2) + 1))
    m = max(1, int(density * n * n / 2))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return CSRGraph.from_edges(src[keep], dst[keep], num_vertices=n)


class TestReorderingIsPureRelabelling:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_pagerank_scores_permute(self, seed):
        g = random_graph(seed)
        perm = random_permutation(g.num_vertices, rng=seed ^ 0xABCD)
        base = pagerank(g, max_iterations=200)
        permuted = pagerank(g.permute(perm), max_iterations=200)
        assert np.allclose(
            permuted.scores, apply_permutation_to_values(perm, base.scores),
            atol=1e-9,
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_spmv_equivariance(self, seed):
        g = random_graph(seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(g.num_vertices)
        perm = random_permutation(g.num_vertices, rng=seed ^ 0x1234)
        left = apply_permutation_to_values(perm, spmv(g, x))
        right = spmv(g.permute(perm), apply_permutation_to_values(perm, x))
        assert np.allclose(left, right)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_modularity_invariant_under_relabelling(self, seed):
        g = random_graph(seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, g.num_vertices)
        perm = random_permutation(g.num_vertices, rng=seed ^ 0x77)
        relabelled = apply_permutation_to_values(perm, labels)
        assert modularity(g.permute(perm), relabelled) == pytest.approx(
            modularity(g, labels)
        )


class TestModularityBounds:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_q_in_theoretical_range(self, seed, k):
        g = random_graph(seed)
        if g.num_edges == 0:
            return
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, g.num_vertices)
        q = modularity(g, labels)
        assert -0.5 - 1e-9 <= q < 1.0


class TestRabbitContiguity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_every_subtree_contiguous(self, seed):
        """Hierarchical community-based ordering (§III-A): every
        dendrogram subtree occupies a contiguous new-id range, on any
        graph."""
        g = random_graph(seed)
        res = rabbit_order(g)
        validate_permutation(res.permutation, g.num_vertices)
        d = res.dendrogram
        for v in range(d.num_vertices):
            members = d.members(v)
            if members.size <= 1:
                continue
            ids = np.sort(res.permutation[members])
            assert np.array_equal(ids, np.arange(ids[0], ids[0] + ids.size))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 100))
    def test_parallel_interleavings_always_valid(self, seed, sched_seed):
        g = random_graph(seed, n_max=25)
        res = community_detection_par(
            g, scheduler_seed=sched_seed, num_threads=4
        )
        res.dendrogram.validate()
        validate_permutation(
            ordering_generation_seq(res.dendrogram), g.num_vertices
        )


class TestOrderingAlgorithmsContract:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(["Rabbit", "RCM", "BFS", "Shingle", "Degree", "ND"]),
    )
    def test_valid_permutation_on_random_graphs(self, seed, algorithm):
        g = random_graph(seed, n_max=30)
        res = ALGORITHMS[algorithm](g, rng=0)
        validate_permutation(res.permutation, g.num_vertices)
        # Degree multiset is invariant (pure relabelling).
        assert sorted(g.permute(res.permutation).degrees()) == sorted(
            g.degrees()
        )


class TestCacheInclusion:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=150))
    def test_more_ways_never_miss_more(self, lines):
        """With the set count fixed, higher associativity under LRU can
        only remove misses (stack inclusion)."""
        arr = np.array(lines)
        small = SetAssociativeLRU(CacheConfig("s", 4 * 64 * 2, 64, 2, 1.0))
        big = SetAssociativeLRU(CacheConfig("b", 4 * 64 * 4, 64, 4, 1.0))
        assert big.simulate(arr).misses <= small.simulate(arr).misses

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=150))
    def test_warm_pass_never_misses_more_than_cold(self, lines):
        arr = np.array(lines)
        sim = SetAssociativeLRU(CacheConfig("c", 512, 64, 2, 1.0))
        cold = sim.simulate(arr).misses
        warm = sim.simulate(arr).misses
        assert warm <= cold


class TestPermutationAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**31 - 1))
    def test_permute_by_inverse_round_trips(self, n, seed):
        g = random_graph(seed, n_max=max(n, 2))
        perm = random_permutation(g.num_vertices, rng=seed)
        back = g.permute(perm).permute(invert_permutation(perm))
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
