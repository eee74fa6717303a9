"""SpMV kernels (Algorithm 1) and the power iterations built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pagerank, random_walk_with_restart, spmv, spmv_naive
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph


class TestSpmv:
    def test_matches_naive(self, paper_graph):
        x = np.arange(paper_graph.num_vertices, dtype=np.float64)
        assert np.array_equal(spmv(paper_graph, x), spmv_naive(paper_graph, x))

    def test_empty_graph(self):
        g = CSRGraph.empty(3)
        assert np.array_equal(spmv(g, np.ones(3)), np.zeros(3))

    def test_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert spmv(g, np.zeros(0)).size == 0

    def test_self_loop(self):
        g = CSRGraph.from_edges([0], [0], weights=[2.0])
        assert spmv(g, np.array([3.0]))[0] == pytest.approx(6.0)

    def test_unweighted_counts_neighbors(self):
        g = CSRGraph.from_edges([0, 1], [1, 2])
        y = spmv(g, np.ones(3))
        assert np.array_equal(y, g.degrees().astype(float))

    def test_shape_validation(self, paper_graph):
        with pytest.raises(GraphFormatError):
            spmv(paper_graph, np.zeros(3))
        with pytest.raises(GraphFormatError):
            spmv_naive(paper_graph, np.zeros(99))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 25),
        isolated=st.integers(0, 3),
        edges=st.lists(
            st.tuples(
                st.integers(0, 24),
                st.integers(0, 24),
                st.floats(1e-6, 1e6),
            ),
            max_size=80,
        ),
        weighted=st.booleans(),
        symmetrize=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_hypothesis_vectorised_equals_scalar(
        self, n, isolated, edges, weighted, symmetrize, seed
    ):
        """Bit-identical to Algorithm 1 on weighted and unweighted,
        directed and undirected graphs, with self-loops (u == v is drawn
        freely), isolated vertices and weights over 12 orders of
        magnitude."""
        src = np.array([u % n for u, _, _ in edges], dtype=np.int64)
        dst = np.array([v % n for _, v, _ in edges], dtype=np.int64)
        w = np.array([w for _, _, w in edges], dtype=np.float64)
        g = CSRGraph.from_edges(
            src,
            dst,
            num_vertices=n + isolated,
            weights=w if weighted else None,
            symmetrize=symmetrize,
        )
        x = np.random.default_rng(seed).standard_normal(g.num_vertices)
        assert np.array_equal(spmv(g, x), spmv_naive(g, x))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(20, 0.2, rng=rng)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        assert np.allclose(
            spmv(g, 2.0 * x + y), 2.0 * spmv(g, x) + spmv(g, y)
        )

    def test_permutation_equivariance(self, paper_graph):
        """SpMV on the permuted graph with the permuted vector equals the
        permuted SpMV result — the identity reordering correctness rests
        on (Problem 1: reordering must not change the computation)."""
        from repro.graph.perm import apply_permutation_to_values, random_permutation

        perm = random_permutation(paper_graph.num_vertices, rng=5)
        x = np.arange(paper_graph.num_vertices, dtype=np.float64)
        y = spmv(paper_graph, x)
        gp = paper_graph.permute(perm)
        xp = apply_permutation_to_values(perm, x)
        yp = spmv(gp, xp)
        assert np.allclose(yp, apply_permutation_to_values(perm, y))


def _inverse_degrees(graph):
    deg = graph.weighted_degrees()
    dangling = deg == 0.0
    return np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg)), dangling


def _reference_pagerank(graph, teleport=0.15, tolerance=1e-10):
    """Equation 2 by textbook power iteration over Algorithm 1."""
    n = graph.num_vertices
    inv_deg, dangling = _inverse_degrees(graph)
    s = np.full(n, 1.0 / n)
    for iterations in range(1, 1001):
        spread = spmv_naive(graph, s * inv_deg)
        dangling_mass = float(s[dangling].sum()) / n
        s_next = (1.0 - teleport) * (spread + dangling_mass) + teleport / n
        residual = float(np.abs(s_next - s).sum())
        s = s_next
        if residual < tolerance:
            return s, iterations
    raise AssertionError("reference PageRank did not converge")


def _reference_rwr(graph, seed, restart=0.15, tolerance=1e-10):
    """Random walk with restart by textbook power iteration over
    Algorithm 1."""
    inv_deg, dangling = _inverse_degrees(graph)
    e = np.zeros(graph.num_vertices)
    e[seed] = 1.0
    s = e.copy()
    for iterations in range(1, 1001):
        spread = spmv_naive(graph, s * inv_deg)
        spread[seed] += float(s[dangling].sum())
        s_next = (1.0 - restart) * spread + restart * e
        residual = float(np.abs(s_next - s).sum())
        s = s_next
        if residual < tolerance:
            return s, iterations
    raise AssertionError("reference RWR did not converge")


def _rmat_256(weighted):
    g = rmat_graph(8, rng=0)  # 40 of its 256 vertices are dangling
    if not weighted:
        return g
    src, dst, _ = g.edge_array()
    keep = src < dst
    w = np.random.default_rng(1).uniform(0.5, 2.0, int(keep.sum()))
    return CSRGraph.from_edges(src[keep], dst[keep], num_vertices=256, weights=w)


class TestPowerIterationsAreExact:
    """PageRank and RWR on the cached operator, with their in-place loop
    buffers, give the same bits as a power iteration over Algorithm 1."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pagerank_equals_reference(self, weighted):
        g = _rmat_256(weighted)
        scores, iterations = _reference_pagerank(g)
        res = pagerank(g)
        assert res.iterations == iterations
        assert np.array_equal(res.scores, scores)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rwr_equals_reference(self, weighted):
        g = _rmat_256(weighted)
        seed = int(np.argmax(g.degrees()))
        scores, iterations = _reference_rwr(g, seed)
        res = random_walk_with_restart(g, seed)
        assert res.iterations == iterations
        assert np.array_equal(res.scores, scores)
