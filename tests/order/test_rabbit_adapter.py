"""Rabbit Order through the common ordering interface."""

import numpy as np
import pytest

from repro.community import NO_VERTEX, Dendrogram
from repro.graph.generators import hierarchical_community_graph
from repro.order.rabbit_adapter import (
    dendrogram_critical_path,
    rabbit_order_result,
    rabbit_par_order_result,
)


class TestAdapter:
    def test_sequential_mode(self, paper_graph):
        res = rabbit_order_result(paper_graph)
        assert res.name == "Rabbit"
        assert res.extra["num_communities"] == 2

    def test_parallel_mode_carries_op_counts(self, paper_graph):
        res = rabbit_par_order_result(paper_graph, num_threads=2)
        assert "op_counter" in res.extra
        assert res.extra["op_counter"]["cas_success"] == res.extra["merges"]

    def test_span_below_work(self):
        g = hierarchical_community_graph(300, rng=1).graph
        res = rabbit_order_result(g)
        assert 0 < res.stats.span < res.stats.work

    def test_improves_locality(self):
        from repro.graph.perm import random_permutation
        from repro.metrics import average_neighbor_gap

        g = hierarchical_community_graph(400, rng=2).graph
        base = g.permute(random_permutation(400, rng=0))
        res = rabbit_order_result(base)
        assert average_neighbor_gap(
            base.permute(res.permutation)
        ) < 0.5 * average_neighbor_gap(base)


class TestCriticalPath:
    def test_chain_sums_whole_path(self):
        n = 4
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        child[1] = 0
        child[2] = 1
        child[3] = 2
        d = Dendrogram(child=child, sibling=sibling, toplevel=np.array([3]))
        work = np.array([1.0, 2.0, 3.0, 4.0])
        assert dendrogram_critical_path(d, work) == pytest.approx(10.0)

    def test_forest_takes_max_tree(self):
        n = 4
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        child[1] = 0  # tree A: 1 <- 0
        child[3] = 2  # tree B: 3 <- 2
        d = Dendrogram(child=child, sibling=sibling, toplevel=np.array([1, 3]))
        work = np.array([1.0, 1.0, 5.0, 5.0])
        assert dendrogram_critical_path(d, work) == pytest.approx(10.0)

    def test_siblings_do_not_sum(self):
        """Independent children run in parallel: only the heaviest child
        path extends the root's."""
        n = 3
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        child[2] = 1
        sibling[1] = 0  # 0 and 1 both children of 2
        d = Dendrogram(child=child, sibling=sibling, toplevel=np.array([2]))
        work = np.array([7.0, 3.0, 1.0])
        assert dendrogram_critical_path(d, work) == pytest.approx(8.0)

    def test_empty(self):
        d = Dendrogram(
            child=np.empty(0, dtype=np.int64),
            sibling=np.empty(0, dtype=np.int64),
            toplevel=np.empty(0, dtype=np.int64),
        )
        assert dendrogram_critical_path(d, np.empty(0)) == 0.0
