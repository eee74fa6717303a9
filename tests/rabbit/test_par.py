"""Parallel Rabbit Order (Algorithm 3): lazy aggregation + CAS, run under
the seeded interleaving model."""

import numpy as np
import pytest

from repro.community import modularity
from repro.community.modularity import newman_degrees
from repro.graph import validate_permutation
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    hierarchical_community_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.rabbit import (
    community_detection_par,
    community_detection_seq,
    ordering_generation_seq,
    rabbit_order,
)
from tests.conftest import PAPER_COMMUNITIES


def par_order(graph, **kwargs):
    """Algorithm 3's dendrogram and the permutation it orders to."""
    dendrogram = community_detection_par(graph, **kwargs).dendrogram
    return dendrogram, ordering_generation_seq(dendrogram)


#: Graph families for the oracle check: R-MAT, hierarchical, and the
#: classic random-graph generators.
ORACLE_GENERATORS = {
    "rmat": lambda seed: rmat_graph(7, edge_factor=6, rng=seed),
    "hierarchical": lambda seed: hierarchical_community_graph(
        300, rng=seed
    ).graph,
    "erdos-renyi": lambda seed: erdos_renyi_graph(150, 0.05, rng=seed),
    "barabasi-albert": lambda seed: barabasi_albert_graph(200, 3, rng=seed),
    "watts-strogatz": lambda seed: watts_strogatz_graph(200, 6, 0.1, rng=seed),
}


class TestOracleEquivalence:
    """With one modelled thread nothing interleaves, so Algorithm 3 must
    reproduce the sequential dict oracle exactly: same dendrogram, same
    counters, same work."""

    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    @pytest.mark.parametrize("seed", range(5))
    def test_one_thread_equals_dict_oracle(self, family, seed):
        graph = ORACLE_GENERATORS[family](seed)
        oracle, stats = community_detection_seq(graph, engine="dict")
        res = community_detection_par(
            graph, num_threads=1, scheduler_seed=seed
        )
        d = res.dendrogram
        np.testing.assert_array_equal(d.child, oracle.child)
        np.testing.assert_array_equal(d.sibling, oracle.sibling)
        np.testing.assert_array_equal(d.toplevel, oracle.toplevel)
        assert res.stats.merges == stats.merges
        assert res.stats.toplevels == stats.toplevels
        assert res.stats.edges_scanned == stats.edges_scanned


class TestInterleavedDeterministic:
    def test_paper_communities_recovered(self, paper_graph):
        res = community_detection_par(paper_graph, scheduler_seed=0)
        labels = res.dendrogram.community_labels()
        found = {
            frozenset(np.flatnonzero(labels == c).tolist())
            for c in np.unique(labels)
        }
        assert found == {frozenset(c) for c in PAPER_COMMUNITIES}

    def test_replayable(self, paper_graph):
        a = community_detection_par(paper_graph, scheduler_seed=123)
        b = community_detection_par(paper_graph, scheduler_seed=123)
        assert np.array_equal(a.dendrogram.child, b.dendrogram.child)
        assert np.array_equal(a.dendrogram.sibling, b.dendrogram.sibling)
        assert np.array_equal(a.dendrogram.toplevel, b.dendrogram.toplevel)

    @pytest.mark.parametrize("seed", range(12))
    def test_many_interleavings_stay_valid(self, paper_graph, seed):
        """Whatever the schedule, the result must be a valid forest
        partition with a valid permutation."""
        dendrogram, perm = par_order(paper_graph, scheduler_seed=seed)
        dendrogram.validate()
        validate_permutation(perm, paper_graph.num_vertices)

    @pytest.mark.parametrize("seed", range(6))
    def test_interleavings_on_random_graph(self, seed):
        g = rmat_graph(7, edge_factor=4, rng=3)
        dendrogram, perm = par_order(g, scheduler_seed=seed, num_threads=8)
        dendrogram.validate()
        validate_permutation(perm, g.num_vertices)

    def test_small_chunks_force_conflicts(self, paper_graph):
        """Chunk size 1 puts every vertex on its own task, maximising
        interleaving pressure on the CAS protocol."""
        res = community_detection_par(
            paper_graph, scheduler_seed=7, chunk_size=1
        )
        res.dendrogram.validate()

    def test_degree_conservation(self, paper_graph):
        """After detection, each root's atomic degree equals the sum of its
        members' initial Newman degrees — CAS merges must not lose or
        double-count degree mass."""
        res = community_detection_par(paper_graph, scheduler_seed=5)
        d = res.dendrogram
        init = newman_degrees(paper_graph)
        # Total degree is conserved across the forest partition.
        total = sum(init[d.members(int(r))].sum() for r in d.toplevel)
        assert total == pytest.approx(init.sum())


class TestThreaded:
    """Algorithm 3 at several modelled thread counts (the interleaving
    window), on the default schedule seed."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_valid_at_every_thread_count(self, paper_graph, threads):
        dendrogram, perm = par_order(paper_graph, num_threads=threads)
        dendrogram.validate()
        validate_permutation(perm, paper_graph.num_vertices)

    def test_threaded_on_larger_graph(self):
        hg = hierarchical_community_graph(800, rng=9)
        dendrogram, perm = par_order(hg.graph, num_threads=8)
        dendrogram.validate()
        validate_permutation(perm, hg.graph.num_vertices)

    def test_parallel_quality_close_to_sequential(self):
        """Table IV's claim: parallel execution does not meaningfully
        degrade modularity."""
        hg = hierarchical_community_graph(
            800, branching=4, levels=2, p_in=0.4, decay=0.08, rng=4
        )
        g = hg.graph
        q_seq = modularity(
            g, rabbit_order(g).dendrogram.community_labels()
        )
        q_par = modularity(
            g,
            community_detection_par(g, num_threads=8)
            .dendrogram.community_labels(),
        )
        assert q_par >= q_seq - 0.1

    def test_op_counter_populated(self, paper_graph):
        res = community_detection_par(paper_graph, num_threads=4)
        snap = res.op_counter.snapshot()
        assert snap["cas_success"] == res.stats.merges
        assert snap["loads"] > 0

    def test_worker_work_sums_to_total(self, paper_graph):
        res = community_detection_par(paper_graph, num_threads=2)
        assert res.worker_work.sum() == res.stats.edges_scanned


class TestEdgeCases:
    def test_edgeless_graph(self):
        from repro.graph import CSRGraph

        res = community_detection_par(CSRGraph.empty(4), num_threads=2)
        assert res.dendrogram.toplevel.size == 4
        res.dendrogram.validate()

    def test_single_community_clique(self):
        from repro.graph import CSRGraph

        n = 6
        src, dst = np.triu_indices(n, k=1)
        g = CSRGraph.from_edges(src, dst)
        res = community_detection_par(g, scheduler_seed=1)
        res.dendrogram.validate()
        # A clique should collapse to one (or very few) communities.
        assert res.dendrogram.toplevel.size <= 2

    def test_retry_cap_terminates(self, paper_graph):
        res = community_detection_par(
            paper_graph, scheduler_seed=3, chunk_size=1, max_attempts=0
        )
        res.dendrogram.validate()

    def test_merge_threshold(self, paper_graph):
        res = community_detection_par(
            paper_graph, scheduler_seed=2, merge_threshold=1.0
        )
        assert res.dendrogram.toplevel.size == paper_graph.num_vertices
