"""SpMV kernels (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import spmv, spmv_naive
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_graph


class TestSpmv:
    def test_matches_naive(self, paper_graph):
        x = np.arange(paper_graph.num_vertices, dtype=np.float64)
        assert np.allclose(spmv(paper_graph, x), spmv_naive(paper_graph, x))

    def test_matches_scipy(self, paper_graph):
        x = np.linspace(0, 1, paper_graph.num_vertices)
        expected = paper_graph.to_scipy() @ x
        assert np.allclose(spmv(paper_graph, x), expected)

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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_hypothesis_vectorised_equals_scalar(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(25, 0.2, rng=rng)
        x = rng.standard_normal(25)
        assert np.allclose(spmv(g, x), spmv_naive(g, x))

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


class TestBlockedSpmv:
    def test_matches_reference(self, paper_graph):
        import numpy as np

        from repro.analysis import spmv, spmv_blocked

        x = np.linspace(0, 1, paper_graph.num_vertices)
        for nb in (1, 2, 5, 100):
            assert np.allclose(
                spmv_blocked(paper_graph, x, num_blocks=nb), spmv(paper_graph, x)
            )

    def test_row_blocks_cover_and_balance(self):
        import numpy as np

        from repro.analysis import row_blocks
        from repro.graph.generators import barabasi_albert_graph

        g = barabasi_albert_graph(300, 4, rng=0)
        blocks = row_blocks(g, 6)
        assert blocks[0][0] == 0 and blocks[-1][1] == g.num_vertices
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c  # contiguous cover
        # nnz balance within a factor of the max row degree.
        sizes = [int(g.indptr[hi] - g.indptr[lo]) for lo, hi in blocks]
        assert max(sizes) <= g.num_edges / len(blocks) + g.degrees().max()

    def test_row_blocks_edge_cases(self):
        import pytest as _pytest

        from repro.analysis import row_blocks
        from repro.errors import GraphFormatError
        from repro.graph import CSRGraph

        assert row_blocks(CSRGraph.empty(0), 4) == []
        blocks = row_blocks(CSRGraph.empty(3), 8)  # edgeless: any cover is fine
        assert blocks[0][0] == 0 and blocks[-1][1] == 3
        with _pytest.raises(GraphFormatError):
            row_blocks(CSRGraph.empty(3), 0)

    def test_empty_graph(self):
        import numpy as np

        from repro.analysis import spmv_blocked
        from repro.graph import CSRGraph

        y = spmv_blocked(CSRGraph.empty(4), np.ones(4))
        assert np.array_equal(y, np.zeros(4))
