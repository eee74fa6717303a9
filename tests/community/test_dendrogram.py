"""Dendrogram structure and ordering generation (paper Figures 4 & 5)."""

import numpy as np
import pytest

from repro.community import NO_VERTEX, Dendrogram
from repro.errors import GraphFormatError


def paper_dendrogram() -> Dendrogram:
    """The dendrogram of the paper's Figure 5.

    Merge history (Fig. 4): 5->7, 1->3, 0->2, 3'->6, 2'->4, 7'->4'.
    So child[7]=5, child[3]=1, child[2]=0, child[6]=3, child[4]=7 (last)
    with sibling[7]=2 (2 merged into 4 before 7).
    """
    n = 8
    child = np.full(n, NO_VERTEX, dtype=np.int64)
    sibling = np.full(n, NO_VERTEX, dtype=np.int64)
    child[7] = 5
    child[3] = 1
    child[2] = 0
    child[6] = 3
    child[4] = 7
    sibling[7] = 2
    return Dendrogram(child=child, sibling=sibling, toplevel=np.array([4, 6]))


class TestPaperExample:
    def test_dfs_order_matches_figure5(self):
        d = paper_dendrogram()
        # Figure 5: community 1 -> (5, 7, 0, 2, 4), community 2 -> (1, 3, 6).
        assert d.dfs_visit_order().tolist() == [5, 7, 0, 2, 4, 1, 3, 6]

    def test_permutation_matches_figure5(self):
        d = paper_dendrogram()
        pi = d.ordering()
        assert pi[5] == 0 and pi[7] == 1 and pi[0] == 2
        assert pi[2] == 3 and pi[4] == 4
        assert pi[1] == 5 and pi[3] == 6 and pi[6] == 7

    def test_children(self):
        d = paper_dendrogram()
        assert d.children(4) == [7, 2]  # most-recent first
        assert d.children(7) == [5]
        assert d.children(5) == []

    def test_members(self):
        d = paper_dendrogram()
        assert set(d.members(4).tolist()) == {0, 2, 4, 5, 7}
        assert set(d.members(6).tolist()) == {1, 3, 6}

    def test_community_labels(self):
        d = paper_dendrogram()
        labels = d.community_labels()
        assert labels[4] == labels[5] == labels[0] == labels[2] == labels[7]
        assert labels[1] == labels[3] == labels[6]
        assert labels[0] != labels[1]

    def test_validate_passes(self):
        paper_dendrogram().validate()


class TestValidation:
    def test_missing_vertex_detected(self):
        n = 3
        d = Dendrogram(
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            toplevel=np.array([0, 1]),  # vertex 2 unreachable
        )
        with pytest.raises(GraphFormatError, match="vertex 2"):
            d.validate()

    def test_double_counted_vertex_detected(self):
        n = 2
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        child[0] = 1
        d = Dendrogram(
            child=child, sibling=sibling, toplevel=np.array([0, 1])
        )
        with pytest.raises(GraphFormatError, match="appears"):
            d.validate()

    def test_parallel_array_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            Dendrogram(
                child=np.zeros(2, dtype=np.int64),
                sibling=np.zeros(3, dtype=np.int64),
                toplevel=np.zeros(0, dtype=np.int64),
            )


class TestDeepTrees:
    def test_path_dendrogram_does_not_recurse(self):
        """A 10k-deep merge chain must not hit Python's recursion limit."""
        n = 10_000
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        # v merged into v+1 for all v: child[v+1] = v.
        child[1:] = np.arange(n - 1)
        d = Dendrogram(
            child=child, sibling=sibling, toplevel=np.array([n - 1])
        )
        order = d.dfs_visit_order()
        assert order.tolist() == list(range(n))

    def test_empty_forest(self):
        d = Dendrogram(
            child=np.empty(0, dtype=np.int64),
            sibling=np.empty(0, dtype=np.int64),
            toplevel=np.empty(0, dtype=np.int64),
        )
        assert d.dfs_visit_order().size == 0
        assert d.ordering().size == 0
        d.validate()

    def test_singleton_forest(self):
        n = 4
        d = Dendrogram(
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            toplevel=np.arange(n),
        )
        assert d.dfs_visit_order().tolist() == [0, 1, 2, 3]
