"""CSRGraph construction, invariants and transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, coalesce_edges, random_permutation
from repro.graph.validate import check_csr_invariants, is_sorted_within_rows
from tests.conftest import run_in_fresh_interpreter
from tests.graph import oracle


def edge_lists(max_n=20, max_m=60):
    """Hypothesis strategy: (n, src, dst) with ids < n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_m,
            ),
        )
    )


class TestConstruction:
    def test_empty(self):
        g = CSRGraph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0, 0, 0, 0]

    def test_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.num_undirected_edges == 0

    def test_single_undirected_edge_makes_two_slots(self):
        g = CSRGraph.from_edges([0], [1])
        assert g.num_edges == 2
        assert g.num_undirected_edges == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_directed_construction(self):
        g = CSRGraph.from_edges([0], [1], symmetrize=False)
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert not g.is_symmetric()

    def test_self_loop_single_slot(self):
        g = CSRGraph.from_edges([2, 0], [2, 1], num_vertices=3)
        assert g.num_self_loops == 1
        assert g.num_undirected_edges == 2  # the loop + the edge

    def test_duplicate_edges_coalesce(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 1])
        assert g.num_undirected_edges == 1

    def test_duplicate_weights_sum(self):
        g = CSRGraph.from_edges(
            [0, 0], [1, 1], weights=[2.0, 3.0], symmetrize=False
        )
        assert g.edge_weight(0, 1) == 5.0

    def test_num_vertices_expansion(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphFormatError, match="smaller than max vertex"):
            CSRGraph.from_edges([0], [5], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([-1], [0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([0, 1], [1])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([0], [1], weights=[1.0, 2.0])

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0, 1]))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(GraphFormatError, match="non-decreasing"):
            CSRGraph(indptr=np.array([0, 2, 1, 3]), indices=np.array([0, 1, 2]))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(GraphFormatError, match="column indices"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0, 0]))

    def test_float_indices_rejected(self):
        with pytest.raises(GraphFormatError, match="integer"):
            CSRGraph.from_edges(np.array([0.5]), np.array([1.0]))


class TestProperties:
    def test_degrees_and_weighted_degrees(self, paper_graph):
        assert paper_graph.degrees().sum() == paper_graph.num_edges
        # Weighted degree of vertex 5 is just its one edge to 7.
        assert paper_graph.weighted_degrees()[5] == pytest.approx(0.7)

    def test_total_edge_weight_counts_each_edge_once(self, paper_graph):
        expected = sum(w for _, _, w in _paper_edges())
        assert paper_graph.total_edge_weight() == pytest.approx(expected)

    def test_total_edge_weight_with_loop(self):
        g = CSRGraph.from_edges([0, 0], [0, 1], weights=[3.0, 1.0])
        assert g.total_edge_weight() == pytest.approx(4.0)

    def test_neighbors_sorted(self, paper_graph):
        assert is_sorted_within_rows(paper_graph)
        assert paper_graph.neighbors(4).tolist() == [0, 2, 3, 6, 7]

    def test_edge_weight_lookup(self, paper_graph):
        assert paper_graph.edge_weight(2, 7) == pytest.approx(9.2)
        assert paper_graph.edge_weight(7, 2) == pytest.approx(9.2)
        assert paper_graph.edge_weight(0, 1) == 0.0

    def test_iter_edges_matches_edge_array(self, paper_graph):
        src, dst, w = paper_graph.edge_array()
        listed = list(paper_graph.iter_edges())
        assert len(listed) == paper_graph.num_edges
        assert listed[0] == (int(src[0]), int(dst[0]), float(w[0]))

    def test_check_invariants_pass(self, zoo_graph):
        check_csr_invariants(zoo_graph)


class TestTransformations:
    def test_reverse_of_symmetric_is_identity(self, paper_graph):
        r = paper_graph.reverse()
        assert np.array_equal(r.indptr, paper_graph.indptr)
        assert np.array_equal(r.indices, paper_graph.indices)

    def test_reverse_directed(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], symmetrize=False)
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert not r.has_edge(0, 1)

    def test_permute_identity(self, paper_graph):
        p = np.arange(paper_graph.num_vertices)
        g2 = paper_graph.permute(p)
        assert np.array_equal(g2.indices, paper_graph.indices)

    def test_permute_preserves_edge_weights(self, paper_graph):
        perm = random_permutation(paper_graph.num_vertices, rng=3)
        g2 = paper_graph.permute(perm)
        for u, v, w in _paper_edges():
            assert g2.edge_weight(int(perm[u]), int(perm[v])) == pytest.approx(w)

    def test_permute_preserves_degree_multiset(self, nonempty_zoo_graph):
        perm = random_permutation(nonempty_zoo_graph.num_vertices, rng=5)
        g2 = nonempty_zoo_graph.permute(perm)
        assert sorted(g2.degrees()) == sorted(nonempty_zoo_graph.degrees())

    def test_without_self_loops(self):
        g = CSRGraph.from_edges([0, 0], [0, 1])
        g2 = g.without_self_loops()
        assert g2.num_self_loops == 0
        assert g2.has_edge(0, 1)

    def test_subgraph_induced(self, paper_graph):
        sub, ids = paper_graph.subgraph([0, 2, 4, 7])
        assert sub.num_vertices == 4
        assert ids.tolist() == [0, 2, 4, 7]
        # Edges among {0,2,4,7}: 0-2, 0-4, 0-7, 2-4, 2-7, 4-7.
        assert sub.num_undirected_edges == 6

    def test_subgraph_out_of_range(self, paper_graph):
        with pytest.raises(GraphFormatError):
            paper_graph.subgraph([0, 99])

    def test_with_unit_weights(self, paper_graph_unweighted):
        g = paper_graph_unweighted.with_unit_weights()
        assert g.is_weighted
        assert g.edge_weights().sum() == g.num_edges

    def test_scipy_round_trip(self, paper_graph):
        back = CSRGraph.from_scipy(paper_graph.to_scipy())
        assert np.array_equal(back.indptr, paper_graph.indptr)
        assert np.array_equal(back.indices, paper_graph.indices)
        assert np.allclose(back.weights, paper_graph.weights)


class TestAccessorCaching:
    """row_of_slot / degrees / edge_weights are cached read-only arrays."""

    def test_row_of_slot_cached_and_readonly(self, paper_graph):
        first = paper_graph.row_of_slot()
        assert first is paper_graph.row_of_slot()  # same object: cached
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 99

    def test_degrees_cached_and_readonly(self, paper_graph):
        first = paper_graph.degrees()
        assert first is paper_graph.degrees()
        assert not first.flags.writeable
        assert np.array_equal(first, np.diff(paper_graph.indptr))

    def test_unit_weights_cached_and_readonly(self, paper_graph_unweighted):
        first = paper_graph_unweighted.edge_weights()
        assert first is paper_graph_unweighted.edge_weights()
        assert not first.flags.writeable
        assert first.sum() == paper_graph_unweighted.num_edges

    def test_weighted_graph_returns_weights_directly(self, paper_graph):
        assert paper_graph.edge_weights() is paper_graph.weights

    def test_edge_array_src_dst_are_writable_copies(self, paper_graph):
        src, dst, _ = paper_graph.edge_array()
        assert src.flags.writeable and dst.flags.writeable
        src[0] = -1  # must not corrupt the cache
        assert paper_graph.row_of_slot()[0] != -1

    def test_permuted_graph_does_not_share_cache(self, paper_graph):
        baseline = paper_graph.degrees()
        perm = random_permutation(paper_graph.num_vertices, rng=5)
        permuted = paper_graph.permute(perm)
        assert np.array_equal(np.sort(permuted.degrees()), np.sort(baseline))
        assert permuted.degrees() is not baseline


class TestMatvecOperator:
    """matvec_operator(): one cached, read-only scipy matrix per graph."""

    def test_cached(self, paper_graph):
        assert paper_graph.matvec_operator() is paper_graph.matvec_operator()

    def test_arrays_are_readonly(self, paper_graph):
        op = paper_graph.matvec_operator()
        for arr in (op.data, op.indices, op.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            op.data[0] = 99.0
        # The graph's own arrays keep their flags.
        assert paper_graph.weights.flags.writeable

    def test_to_scipy_stays_fresh_and_writable(self, paper_graph):
        op = paper_graph.matvec_operator()
        mat = paper_graph.to_scipy()
        assert mat is not op and mat is not paper_graph.to_scipy()
        for arr in (mat.data, mat.indices, mat.indptr):
            assert arr.flags.writeable
        assert (mat != op).nnz == 0

    def test_permuted_graph_builds_its_own(self, paper_graph):
        op = paper_graph.matvec_operator()
        perm = random_permutation(paper_graph.num_vertices, rng=5)
        permuted = paper_graph.permute(perm)
        assert permuted.matvec_operator() is not op
        assert np.array_equal(permuted.matvec_operator().indices, permuted.indices)

    def test_graph_only_paths_never_load_scipy(self):
        """Reordering, BFS and the serving daemon must not pay scipy's
        import (~22 MB of RSS): only an SpMV-family analysis loads it."""
        code = (
            "import sys\n"
            "import repro, repro.serve.daemon\n"
            "from repro.analysis import bfs\n"
            "from repro.graph.generators import rmat_graph\n"
            "from repro.rabbit import rabbit_order\n"
            "g = rmat_graph(8, rng=0)\n"
            "bfs(g.permute(rabbit_order(g).permutation), 0)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        proc = run_in_fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr


class TestCoalesce:
    def test_empty(self):
        s, d, w = coalesce_edges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert s.size == d.size == 0
        assert w is None

    def test_sorted_and_merged(self):
        src = np.array([1, 0, 1, 0], dtype=np.int64)
        dst = np.array([0, 1, 0, 2], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        s, d, ww = coalesce_edges(src, dst, w)
        assert s.tolist() == [0, 0, 1]
        assert d.tolist() == [1, 2, 0]
        assert ww.tolist() == [2.0, 4.0, 4.0]


class TestHypothesis:
    @settings(max_examples=50, deadline=None)
    @given(edge_lists())
    def test_from_edges_round_trip(self, data):
        n, edges = data
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        g = CSRGraph.from_edges(src, dst, num_vertices=n)
        assert g.num_vertices == n
        assert g.is_symmetric()
        assert is_sorted_within_rows(g)
        # Every input edge is present.
        for u, v in edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)

    @settings(max_examples=50, deadline=None)
    @given(edge_lists(), st.integers(0, 2**31 - 1))
    def test_permute_is_isomorphism(self, data, seed):
        n, edges = data
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        g = CSRGraph.from_edges(src, dst, num_vertices=n)
        perm = random_permutation(n, rng=seed)
        g2 = g.permute(perm)
        assert g2.num_edges == g.num_edges
        for u, v in edges:
            assert g2.has_edge(int(perm[u]), int(perm[v]))

    @settings(max_examples=50, deadline=None)
    @given(edge_lists())
    def test_double_reverse_is_identity(self, data):
        n, edges = data
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        g = CSRGraph.from_edges(src, dst, num_vertices=n, symmetrize=False)
        rr = g.reverse().reverse()
        assert np.array_equal(rr.indptr, g.indptr)
        assert np.array_equal(rr.indices, g.indices)


def raw_csr(draw_data):
    """A CSR taken as stored — rows may be unsorted and repeat slots —
    from a drawn ``(n, edges, weights, mode)``."""
    n, edges, weights, mode = draw_data
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = None if weights is None else np.array(weights[: len(edges)])
    if mode == "symmetric":
        return CSRGraph.from_edges(src, dst, num_vertices=n, weights=w)
    if mode == "doubled":  # symmetric multigraph: every edge twice over
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = None if w is None else np.concatenate([w, w])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst[order], None if w is None else w[order])


def raw_csrs(max_n=12, max_m=40):
    weights = st.one_of(
        st.none(),
        st.lists(
            st.floats(1e-6, 1e6, allow_nan=False), min_size=max_m, max_size=max_m
        ),
    )
    modes = st.sampled_from(["symmetric", "doubled", "raw"])
    return st.tuples(edge_lists(max_n, max_m), weights, modes).map(
        lambda t: (t[0][0], t[0][1], t[1], t[2])
    )


class TestSortFreeOracle:
    """``is_symmetric`` and ``permute`` against rebuilds through
    ``from_edges`` (the sorting implementations they replaced), on
    graphs with unsorted rows, duplicate slots and weights spread over
    twelve orders of magnitude."""

    @settings(max_examples=200, deadline=None)
    @given(raw_csrs())
    def test_is_symmetric_matches_reverse_rebuild(self, data):
        g = raw_csr(data)
        src, dst, w = g.edge_array()
        t = oracle.from_edges(
            dst, src, num_vertices=g.num_vertices,
            weights=g.weights, symmetrize=False,
        )
        expected = (
            np.array_equal(g.indptr, t.indptr)
            and np.array_equal(g.indices, t.indices)
            and np.allclose(g.edge_weights(), t.edge_weights())
        )
        assert g.is_symmetric() == expected

    @settings(max_examples=200, deadline=None)
    @given(raw_csrs(), st.integers(0, 2**31 - 1))
    def test_permute_matches_from_edges_rebuild(self, data, seed):
        g = raw_csr(data)
        perm = random_permutation(g.num_vertices, rng=seed)
        src, dst, w = g.edge_array()
        expected = oracle.from_edges(
            perm[src], perm[dst], num_vertices=g.num_vertices,
            weights=g.weights, symmetrize=False,
        )
        got = g.permute(perm)
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        if g.weights is None:
            assert got.weights is None
        else:
            assert got.weights.tobytes() == expected.weights.tobytes()

    def test_slot_keys_refuse_int64_overflow(self):
        from repro.graph.csr import _require_keyable

        _require_keyable(3_037_000_499)  # n² < 2⁶³
        with pytest.raises(GraphFormatError, match="overflow"):
            _require_keyable(3_037_000_500)

    def test_unallocatable_row_index_is_a_format_error(self, refuse_huge_arrays):
        """Two ids set n; a row index that cannot be allocated is the
        caller's typed error naming n, not a ``MemoryError``."""
        with pytest.raises(GraphFormatError, match="3000000001 vertices"):
            CSRGraph.from_edges([0], [3_000_000_000])


def _paper_edges():
    from tests.conftest import PAPER_EDGES

    return PAPER_EDGES
