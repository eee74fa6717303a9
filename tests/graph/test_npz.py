"""Binary .npz graph archives."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, load_npz, save_npz


class TestNpz:
    def test_round_trip_unweighted(self, tmp_path, paper_graph_unweighted):
        p = tmp_path / "g.npz"
        save_npz(paper_graph_unweighted, p)
        back = load_npz(p)
        assert np.array_equal(back.indptr, paper_graph_unweighted.indptr)
        assert np.array_equal(back.indices, paper_graph_unweighted.indices)
        assert back.weights is None

    def test_round_trip_weighted(self, tmp_path, paper_graph):
        p = tmp_path / "g.npz"
        save_npz(paper_graph, p)
        back = load_npz(p)
        assert np.allclose(back.weights, paper_graph.weights)

    def test_round_trip_empty(self, tmp_path):
        p = tmp_path / "empty.npz"
        save_npz(CSRGraph.empty(7), p)
        back = load_npz(p)
        assert back.num_vertices == 7
        assert back.num_edges == 0

    def test_missing_marker_rejected(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, foo=np.arange(3))
        with pytest.raises(GraphFormatError, match="not a repro graph"):
            load_npz(p)

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(GraphFormatError):
            load_npz(p)

    def test_missing_indices_rejected(self, tmp_path):
        p = tmp_path / "partial.npz"
        np.savez(
            p,
            format_version=np.array([1], dtype=np.int64),
            indptr=np.array([0], dtype=np.int64),
        )
        with pytest.raises(GraphFormatError, match="indices"):
            load_npz(p)

    def test_empty_format_version_rejected(self, tmp_path):
        p = tmp_path / "noversion.npz"
        np.savez(
            p,
            format_version=np.empty(0, dtype=np.int64),
            indptr=np.array([0], dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(GraphFormatError):
            load_npz(p)

    def test_bare_npy_array_rejected(self, tmp_path):
        p = tmp_path / "array.npz"
        with p.open("wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(GraphFormatError):
            load_npz(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "future.npz"
        np.savez(
            p,
            format_version=np.array([999], dtype=np.int64),
            indptr=np.array([0], dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(GraphFormatError, match="version"):
            load_npz(p)
