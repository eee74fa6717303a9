"""PageRank (Equation 2)."""

import numpy as np
import pytest

from repro.analysis import DEFAULT_TOLERANCE, pagerank
from repro.errors import ConvergenceError
from repro.graph import CSRGraph
from repro.graph.generators import hierarchical_community_graph, rmat_graph
from tests.conftest import to_networkx


class TestPageRank:
    def test_scores_sum_to_one(self, paper_graph):
        res = pagerank(paper_graph)
        assert res.scores.sum() == pytest.approx(1.0)
        assert res.converged

    def test_matches_networkx(self, paper_graph_unweighted):
        import networkx as nx

        res = pagerank(paper_graph_unweighted)
        expected = nx.pagerank(
            to_networkx(paper_graph_unweighted), alpha=0.85, tol=1e-12, max_iter=500
        )
        for v, s in expected.items():
            assert res.scores[v] == pytest.approx(s, abs=1e-6)

    def test_uniform_on_regular_graph(self):
        # A cycle: every vertex identical -> uniform scores.
        n = 10
        g = CSRGraph.from_edges(np.arange(n), (np.arange(n) + 1) % n)
        res = pagerank(g)
        assert np.allclose(res.scores, 1.0 / n)

    def test_hub_scores_highest(self):
        g = CSRGraph.from_edges(np.zeros(9, dtype=int), np.arange(1, 10))
        res = pagerank(g)
        assert np.argmax(res.scores) == 0

    def test_dangling_mass_preserved(self):
        # Vertex 2 is isolated: scores must still sum to 1.
        g = CSRGraph.from_edges([0], [1], num_vertices=3)
        res = pagerank(g)
        assert res.scores.sum() == pytest.approx(1.0)
        assert res.scores[2] > 0

    def test_empty_graph(self):
        res = pagerank(CSRGraph.empty(0))
        assert res.iterations == 0

    def test_teleport_one_gives_uniform(self, paper_graph):
        res = pagerank(paper_graph, teleport=1.0)
        assert np.allclose(res.scores, 1.0 / paper_graph.num_vertices)

    def test_iteration_budget_respected(self):
        g = rmat_graph(8, rng=0)
        res = pagerank(g, max_iterations=3)
        assert res.iterations == 3
        assert not res.converged

    def test_converged_uses_the_runs_tolerance(self):
        g = hierarchical_community_graph(300, rng=2).graph
        loose = pagerank(g, tolerance=1e-4)
        # Stopped below the run's tolerance, above the default one.
        assert DEFAULT_TOLERANCE < loose.residual < 1e-4
        assert loose.converged
        assert not pagerank(g, tolerance=1e-14, max_iterations=3).converged

    def test_raise_on_no_convergence(self):
        g = rmat_graph(8, rng=0)
        with pytest.raises(ConvergenceError):
            pagerank(g, max_iterations=2, raise_on_no_convergence=True)

    def test_ordering_invariance(self, paper_graph):
        """Reordering must not change the scores (only their storage
        order) — the paper's whole premise."""
        from repro.graph.perm import random_permutation

        perm = random_permutation(paper_graph.num_vertices, rng=1)
        base = pagerank(paper_graph)
        permuted = pagerank(paper_graph.permute(perm))
        assert base.iterations == permuted.iterations
        assert np.allclose(permuted.scores[perm], base.scores)

    def test_weighted_graph(self, paper_graph):
        res = pagerank(paper_graph)
        # Vertex 4 has the largest weighted degree -> highest rank.
        assert int(np.argmax(res.scores)) == 4
