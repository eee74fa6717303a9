"""``from_edges`` and ``coalesce_edges`` against the lexsort oracle.

Both sort the int64 slot key ``src * n + dst`` once; the oracle
(:mod:`tests.graph.oracle`) is the two-key ``np.lexsort`` build they
replaced.  Equality is byte for byte, weights included: duplicate
weights must be summed in the same order, so even the sign of a zero
sum and the rounding of a long sum agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, coalesce_edges
from tests.graph import oracle

# Weights over many magnitudes and both signs, with signed zeros, so a
# different summation order would show in the bytes.
weights = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e300, 0.1, 0.2, 0.3]),
)


@st.composite
def edge_sets(draw, max_n=12, max_m=50):
    """``(src, dst, w, num_vertices)``: duplicates and loops likely, ids
    below ``n``, ``num_vertices`` absent or at or above ``n``."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = np.array(draw(ids), dtype=np.int64), np.array(draw(ids), dtype=np.int64)
    w = None
    if draw(st.booleans()):
        w = np.array(draw(st.lists(weights, min_size=m, max_size=m)), dtype=np.float64)
    num_vertices = draw(st.one_of(st.none(), st.integers(n, n + 3)))
    return src, dst, w, num_vertices


def assert_same_bytes(got: CSRGraph, expected: CSRGraph) -> None:
    assert got.indptr.dtype == expected.indptr.dtype == np.int64
    assert got.indices.dtype == expected.indices.dtype == np.int64
    assert got.indptr.tobytes() == expected.indptr.tobytes()
    assert got.indices.tobytes() == expected.indices.tobytes()
    if expected.weights is None:
        assert got.weights is None
    else:
        assert got.weights.tobytes() == expected.weights.tobytes()


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(edge_sets(), st.booleans(), st.booleans())
    def test_from_edges_equals_lexsort_build(self, edges, symmetrize, coalesce):
        src, dst, w, num_vertices = edges
        kwargs = dict(num_vertices=num_vertices, weights=w,
                      symmetrize=symmetrize, coalesce=coalesce)
        assert_same_bytes(
            CSRGraph.from_edges(src, dst, **kwargs),
            oracle.from_edges(src, dst, **kwargs),
        )

    @settings(max_examples=200, deadline=None)
    @given(edge_sets())
    def test_coalesce_edges_equals_lexsort(self, edges):
        src, dst, w, _ = edges
        got, expected = coalesce_edges(src, dst, w), oracle.coalesce_edges(src, dst, w)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        if w is None:
            assert got[2] is None
        else:
            assert got[2].tobytes() == expected[2].tobytes()

    def test_inputs_are_not_modified(self):
        src = np.array([2, 0, 1, 0], dtype=np.int64)
        dst = np.array([0, 2, 0, 2], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        before = src.copy(), dst.copy(), w.copy()
        CSRGraph.from_edges(src, dst, weights=w)
        coalesce_edges(src, dst, w)
        for arr, orig in zip((src, dst, w), before):
            assert np.array_equal(arr, orig)


class TestSlotKeyGuard:
    """Slot keys ``src * n + dst`` need ``n² < 2⁶³``: larger graphs are
    refused before anything of size ``n`` is allocated (the sizes below
    would otherwise ask ``bincount`` for terabytes)."""

    def test_large_ids_refused(self):
        with pytest.raises(GraphFormatError, match="overflow the int64 slot key"):
            CSRGraph.from_edges([0], [2**40])

    def test_large_num_vertices_refused(self):
        with pytest.raises(GraphFormatError, match="overflow the int64 slot key"):
            CSRGraph.from_edges([0], [1], num_vertices=2**62)

    def test_coalesce_edges_refuses_large_ids(self):
        with pytest.raises(GraphFormatError, match="overflow"):
            coalesce_edges(np.array([2**40]), np.array([0]))

    def test_coalesce_edges_refuses_negative_ids(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            coalesce_edges(np.array([-1]), np.array([0]))
