"""The compiled setup pass, counting sort and ordering DFS against the
numpy and Python code they replace on the production path.

* ``rabbit_dfs`` (``native.dfs_visit_order``) must give
  ``Dendrogram.dfs_visit_order``'s order exactly, on dendrograms from
  real runs and on random forests, and both walks must fail closed, with
  the same error, on links that are not a forest.
* ``rabbit_setup`` (``native.setup_pass``) must reach
  ``CSRGraph.is_symmetric``'s verdict on every input, and its degrees
  must equal ``newman_degrees`` bit for bit.
* ``rabbit_counting_sort`` (``native.counting_argsort``) must equal
  ``np.argsort(kind="stable")``.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.community.modularity import newman_degrees
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import rmat_graph
from repro.rabbit import (
    community_detection_par,
    native,
    ordering_generation_seq,
    rabbit_order,
)
from tests.conftest import GRAPH_ZOO, make_paper_graph
from tests.rabbit.not_forests import NOT_FORESTS

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


def assert_walks_agree(dendrogram: Dendrogram) -> None:
    expected = dendrogram.dfs_visit_order()
    got = native.dfs_visit_order(dendrogram)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# rabbit_dfs
# ---------------------------------------------------------------------------
@st.composite
def forests(draw, max_n=40):
    """A random merge forest: vertices join a parent seen earlier in a
    random order, each parent's child chain in a random merge order,
    roots in a random order."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root_p = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rank = rng.permutation(n)
    parent = np.full(n, NO_VERTEX, dtype=np.int64)
    for i in range(1, n):
        if rng.random() >= root_p:
            parent[rank[i]] = rank[rng.integers(0, i)]
    child = np.full(n, NO_VERTEX, dtype=np.int64)
    sibling = np.full(n, NO_VERTEX, dtype=np.int64)
    for v in rng.permutation(n).tolist():
        p = parent[v]
        if p != NO_VERTEX:
            sibling[v] = child[p]
            child[p] = v
    roots = rng.permutation(np.flatnonzero(parent == NO_VERTEX))
    return Dendrogram(child=child, sibling=sibling, toplevel=roots)


class TestDFS:
    @settings(max_examples=300, deadline=None)
    @given(forests())
    def test_random_forests(self, dendrogram):
        assert_walks_agree(dendrogram)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_forest_and_singletons(self, n):
        assert_walks_agree(
            Dendrogram(
                child=np.full(n, NO_VERTEX, dtype=np.int64),
                sibling=np.full(n, NO_VERTEX, dtype=np.int64),
                toplevel=np.arange(n, dtype=np.int64)[::-1],
            )
        )

    def test_deep_chain(self):
        """A path of 10^5 merges: the stack stays within n."""
        n = 100_000
        child = np.arange(1, n + 1, dtype=np.int64)
        child[-1] = NO_VERTEX
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        d = Dendrogram(child=child, sibling=sibling, toplevel=np.array([0]))
        assert_walks_agree(d)
        assert native.dfs_visit_order(d)[0] == n - 1

    @pytest.mark.parametrize("seed", range(5))
    def test_rmat_runs(self, seed):
        assert_walks_agree(
            rabbit_order(rmat_graph(9, edge_factor=6, rng=seed)).dendrogram
        )

    @pytest.mark.parametrize("name", sorted(GRAPH_ZOO))
    def test_zoo_runs(self, name):
        assert_walks_agree(rabbit_order(GRAPH_ZOO[name]).dendrogram)

    def test_paper_graph_run(self):
        d = rabbit_order(make_paper_graph()).dendrogram
        assert_walks_agree(d)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threads", [1, 4])
    def test_parallel_model_runs(self, seed, threads):
        g = rmat_graph(8, edge_factor=6, rng=seed)
        res = community_detection_par(g, num_threads=threads,
                                      scheduler_seed=seed)
        assert_walks_agree(res.dendrogram)


@pytest.mark.usefixtures("alarm")
class TestFailClosed:
    @pytest.mark.parametrize("name", sorted(NOT_FORESTS))
    def test_both_walks_raise_the_same_error(self, name):
        case = NOT_FORESTS[name]
        with pytest.raises(GraphFormatError, match=case.phrase) as python:
            case.dendrogram.dfs_visit_order()
        with pytest.raises(GraphFormatError, match=case.phrase) as compiled:
            native.dfs_visit_order(case.dendrogram)
        assert str(python.value) == str(compiled.value)

    def test_rabbit_ordering_refuses_a_cycle(self):
        with pytest.raises(GraphFormatError, match="not a forest"):
            ordering_generation_seq(NOT_FORESTS["two-cycle"].dendrogram)

    def test_rabbit_ordering_refuses_unreached_vertices(self):
        """Vertex 2 is neither a root nor anyone's child: the walk is a
        bijection on two ids, which must not pass for π of three."""
        orphan = Dendrogram(
            child=np.full(3, NO_VERTEX, dtype=np.int64),
            sibling=np.full(3, NO_VERTEX, dtype=np.int64),
            toplevel=np.array([0, 1], dtype=np.int64),
        )
        with pytest.raises(GraphFormatError, match="reached 2 of 3"):
            ordering_generation_seq(orphan)

    def test_members_fails_closed(self):
        with pytest.raises(GraphFormatError, match="not a forest"):
            NOT_FORESTS["two-cycle"].dendrogram.members(0)


# ---------------------------------------------------------------------------
# rabbit_setup
# ---------------------------------------------------------------------------
#: Base weights, and the per-slot tweaks that put a slot's weight just
#: inside or outside np.isclose of its reverse's (rtol 1e-5, atol 1e-8).
BASE_WEIGHTS = [0.0, 1e-9, 1.0, 3.5, 1e6, 1e-300]
TWEAKS = {
    "same": lambda w: w,
    "atol-inside": lambda w: w + 1e-9,
    "atol-outside": lambda w: w + 2e-8,
    "rtol-inside": lambda w: w * (1 + 0.9e-5),
    "rtol-outside": lambda w: w * (1 + 3e-5) + 1e-7,
    "negated": lambda w: -w,
    "inf": lambda w: np.inf,
    "-inf": lambda w: -np.inf,
    "nan": lambda w: np.nan,
}


@st.composite
def near_symmetric_csrs(draw, max_n=9, max_m=30):
    """A symmetric graph (self-loops allowed), then perhaps one structural
    mutation (a row's slots swapped, a slot repeated, dropped or
    retargeted) and perhaps per-slot weights tweaked around np.isclose's
    boundary, including ±inf and NaN."""
    n = draw(st.integers(0, max_n))
    pairs = (
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                      max_size=max_m))
        if n else []
    )
    g = CSRGraph.from_edges(
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
        num_vertices=n,
    )
    rows = [g.neighbors(u).tolist() for u in range(n)]
    mutation = draw(
        st.sampled_from(["none", "none", "swap", "repeat", "drop", "retarget"])
    )
    full = [u for u in range(n) if rows[u]]
    if mutation != "none" and full:
        u = draw(st.sampled_from(full))
        k = draw(st.integers(0, len(rows[u]) - 1))
        if mutation == "swap" and len(rows[u]) > 1:
            j = (k + 1) % len(rows[u])
            rows[u][k], rows[u][j] = rows[u][j], rows[u][k]
        elif mutation == "repeat":
            rows[u].insert(k, rows[u][k])
        elif mutation == "drop":
            del rows[u][k]
        elif mutation == "retarget":
            rows[u][k] = draw(st.integers(0, n - 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([v for r in rows for v in r], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        base = draw(st.lists(st.sampled_from(BASE_WEIGHTS), min_size=n * n,
                             max_size=n * n))
        names = sorted(TWEAKS)
        tweak = draw(st.lists(
            st.sampled_from(["same"] * 8 + names), min_size=indices.size,
            max_size=indices.size,
        ))
        row = np.repeat(np.arange(n), np.diff(indptr))
        weights = np.array([
            TWEAKS[t](base[min(u, v) * n + max(u, v)])
            for t, u, v in zip(tweak, row.tolist(), indices.tolist())
        ], dtype=np.float64)
    return CSRGraph(indptr, indices, weights)


class TestSetup:
    @settings(max_examples=600, deadline=None)
    @given(near_symmetric_csrs())
    def test_verdict_matches_is_symmetric(self, g):
        symmetric, _, _ = native.setup_pass(g)
        assert symmetric == CSRGraph(g.indptr, g.indices, g.weights).is_symmetric()

    @pytest.mark.parametrize("forward", [0.0, 1.0, 1e6, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "delta", [0.0, 1e-9, 2e-8, 1e-5, 3e-5, np.inf, -np.inf, np.nan, "neg"]
    )
    def test_weight_pairs_at_the_isclose_boundary(self, forward, delta):
        """One edge whose two slots' weights straddle np.isclose's
        boundary, including +inf against -inf (|x - y| = atol + rtol*|y|
        = inf: close only without the finiteness test)."""
        backward = -forward if delta == "neg" else forward * (1 + delta) + delta
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([forward, backward]))
        assert native.setup_pass(g)[0] == g.is_symmetric()

    @settings(max_examples=300, deadline=None)
    @given(near_symmetric_csrs(), st.integers(0, 2**32 - 1))
    def test_degrees_bit_equal_newman_degrees(self, g, seed):
        """Weights over twelve orders of magnitude, so any other summation
        order changes low bits; loops are counted twice."""
        if g.weights is not None:
            rng = np.random.default_rng(seed)
            w = 10.0 ** rng.uniform(-6, 6, size=g.num_edges)
            g = CSRGraph(g.indptr, g.indices, w)
        _, deg, loop_w = native.setup_pass(g)
        assert deg.tobytes() == newman_degrees(g).tobytes()
        loops = g.indices == g.row_of_slot()
        if g.weights is None:
            assert loop_w == float(np.count_nonzero(loops))
        else:
            assert loop_w == pytest.approx(float(g.weights[loops].sum()))

    @pytest.mark.parametrize("name", sorted(GRAPH_ZOO))
    def test_zoo(self, name):
        g = GRAPH_ZOO[name]
        symmetric, deg, loop_w = native.setup_pass(g)
        assert symmetric and g.is_symmetric()
        assert deg.tobytes() == newman_degrees(g).tobytes()
        m = (g.num_edges - loop_w) / 2.0 + loop_w
        if g.weights is None:
            assert m == g.total_edge_weight()

    def test_weighted_rmat_with_loops(self):
        g = rmat_graph(10, edge_factor=6, rng=9)
        src, dst, _ = g.edge_array()
        keep = src <= dst
        src = np.concatenate([src[keep], np.arange(0, g.num_vertices, 7)])
        dst = np.concatenate([dst[keep], np.arange(0, g.num_vertices, 7)])
        w = 10.0 ** np.random.default_rng(9).uniform(-6, 6, size=src.size)
        g = CSRGraph.from_edges(src, dst, weights=w)
        symmetric, deg, _ = native.setup_pass(g)
        assert symmetric and g.num_self_loops > 0
        assert deg.tobytes() == newman_degrees(g).tobytes()

    def test_asymmetric_graph_is_refused_as_before(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], symmetrize=False)
        with pytest.raises(GraphFormatError, match="requires an undirected"):
            rabbit_order(g)


# ---------------------------------------------------------------------------
# rabbit_counting_sort
# ---------------------------------------------------------------------------
class TestCountingSort:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=200))
    def test_equals_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(
            native.counting_argsort(keys), np.argsort(keys, kind="stable")
        )

    def test_rmat_degrees(self):
        deg = rmat_graph(12, edge_factor=8, rng=5).degrees()
        assert np.array_equal(
            native.counting_argsort(deg), np.argsort(deg, kind="stable")
        )

    def test_negative_key_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            native.counting_argsort(np.array([2, -1, 0]))
