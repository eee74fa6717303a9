"""Sequential Rabbit Order (Algorithm 2)."""

import numpy as np
import pytest

from repro.community import modularity
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, validate_permutation
from repro.graph.generators import hierarchical_community_graph
from repro.rabbit import community_detection_seq, rabbit_order
from tests.conftest import PAPER_COMMUNITIES


class TestPaperExample:
    def test_recovers_paper_communities(self, paper_graph):
        dendrogram, _ = community_detection_seq(paper_graph)
        labels = dendrogram.community_labels()
        found = {
            frozenset(np.flatnonzero(labels == c).tolist())
            for c in np.unique(labels)
        }
        expected = {frozenset(c) for c in PAPER_COMMUNITIES}
        assert found == expected

    def test_two_toplevels(self, paper_graph):
        dendrogram, stats = community_detection_seq(paper_graph)
        assert dendrogram.toplevel.size == 2
        assert stats.toplevels == 2
        assert stats.merges == 6  # 8 vertices - 2 roots

    def test_permutation_is_valid_and_community_contiguous(self, paper_graph):
        res = rabbit_order(paper_graph)
        validate_permutation(res.permutation, paper_graph.num_vertices)
        labels = res.dendrogram.community_labels()
        # Each community occupies a contiguous range of new ids.
        for c in np.unique(labels):
            new_ids = np.sort(res.permutation[labels == c])
            assert np.array_equal(
                new_ids, np.arange(new_ids[0], new_ids[0] + new_ids.size)
            )


class TestInvariants:
    def test_all_zoo_graphs_yield_valid_output(self, zoo_graph):
        res = rabbit_order(zoo_graph)
        validate_permutation(res.permutation, zoo_graph.num_vertices)
        res.dendrogram.validate()

    def test_deterministic(self, paper_graph):
        a = rabbit_order(paper_graph)
        b = rabbit_order(paper_graph)
        assert np.array_equal(a.permutation, b.permutation)

    def test_hierarchy_nests(self):
        """Subtrees at every level must be contiguous in the ordering —
        the hierarchical-community-based ordering property (§III-A)."""
        hg = hierarchical_community_graph(400, rng=2)
        res = rabbit_order(hg.graph)
        d = res.dendrogram
        pi = res.permutation
        for v in range(d.num_vertices):
            members = d.members(v)
            if members.size <= 1:
                continue
            new_ids = np.sort(pi[members])
            assert np.array_equal(
                new_ids, np.arange(new_ids[0], new_ids[0] + new_ids.size)
            ), f"subtree of {v} not contiguous"

    def test_modularity_on_planted_graph(self):
        hg = hierarchical_community_graph(
            600, branching=4, levels=2, p_in=0.4, decay=0.05, rng=1
        )
        res = rabbit_order(hg.graph)
        q = modularity(hg.graph, res.dendrogram.community_labels())
        assert q > 0.5

    def test_merge_threshold_limits_merges(self, paper_graph):
        permissive = rabbit_order(paper_graph, merge_threshold=0.0)
        strict = rabbit_order(paper_graph, merge_threshold=1.0)
        assert strict.num_communities >= permissive.num_communities
        assert strict.num_communities == paper_graph.num_vertices

    def test_vertex_work_collection(self, paper_graph):
        _, stats = community_detection_seq(paper_graph)
        assert stats.vertex_work is not None
        assert stats.vertex_work.sum() == stats.edges_scanned

    def test_requires_symmetric(self):
        g = CSRGraph.from_edges([0], [1], symmetrize=False)
        with pytest.raises(GraphFormatError, match="undirected"):
            rabbit_order(g)

    @pytest.mark.parametrize("engine", ["fast", "dict"])
    def test_uncheckpointed_run_does_not_hash_the_graph(self, engine, monkeypatch):
        """Only the checkpoint and resume branches read the fingerprint."""
        from repro.rabbit import native, seq

        g = hierarchical_community_graph(400, rng=2).graph
        expected = rabbit_order(g, engine=engine).permutation

        def refuse(*args, **kwargs):
            raise AssertionError("graph_fingerprint called")

        monkeypatch.setattr(native, "graph_fingerprint", refuse)
        monkeypatch.setattr(seq, "graph_fingerprint", refuse)
        assert np.array_equal(rabbit_order(g, engine=engine).permutation, expected)

    @pytest.mark.parametrize("engine", ["fast", "dict"])
    def test_setup_span_covers_the_symmetry_check(self, engine):
        """``rabbit.seq.setup`` opens before the symmetry check, so a
        traced run charges that check (and a failed one) to setup."""
        from repro.obs import trace

        g = CSRGraph.from_edges([0], [1], symmetrize=False)
        with trace.capture() as cap:
            with pytest.raises(GraphFormatError, match="undirected"):
                rabbit_order(g, engine=engine)
        (detect,) = cap.find("rabbit.detect")
        assert [c.name for c in detect.children] == ["rabbit.seq.setup"]


class TestEdgeCases:
    def test_edgeless_graph(self):
        g = CSRGraph.empty(5)
        res = rabbit_order(g)
        validate_permutation(res.permutation, 5)
        assert res.num_communities == 5

    def test_zero_vertices(self):
        res = rabbit_order(CSRGraph.empty(0))
        assert res.permutation.size == 0

    def test_single_vertex_with_loop(self):
        g = CSRGraph.from_edges([0], [0])
        res = rabbit_order(g)
        assert res.permutation.tolist() == [0]

    def test_disconnected_components_stay_separate(self):
        g = CSRGraph.from_edges([0, 1, 3, 4], [1, 2, 4, 5])
        res = rabbit_order(g)
        labels = res.dendrogram.community_labels()
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_star_graph(self):
        g = CSRGraph.from_edges(np.zeros(6, dtype=int), np.arange(1, 7))
        res = rabbit_order(g)
        validate_permutation(res.permutation, 7)
        res.dendrogram.validate()

    def test_weighted_graph_weights_drive_merges(self):
        # 0-1 heavy, 1-2 light, 2-3 heavy: expect {0,1} and {2,3}.
        g = CSRGraph.from_edges(
            [0, 1, 2], [1, 2, 3], weights=[10.0, 0.1, 10.0]
        )
        res = rabbit_order(g)
        labels = res.dendrogram.community_labels()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
