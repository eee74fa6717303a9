"""Binary .npz graph archives."""

import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro import ioutil
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, load_npz, save_npz
from tests.conftest import UNALLOCATABLE, forge_graph_npz, rewrite_npz


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


def set_inflated_size(archive: bytes, name: str, size: int) -> bytes:
    """*archive* with member *name*'s uncompressed size in the central
    directory, the one ``zipfile`` reads, set to *size*."""
    data = bytearray(archive)
    at = data.find(b"PK\x01\x02")
    while at >= 0:
        name_len = struct.unpack_from("<H", data, at + 28)[0]
        if data[at + 46 : at + 46 + name_len] == name.encode():
            struct.pack_into("<I", data, at + 24, size)
            return bytes(data)
        at = data.find(b"PK\x01\x02", at + 46 + name_len)
    raise KeyError(name)


class TestNpzHeaders:
    """``load_npz`` reads every member's npy header before ``np.load``,
    which allocates the shape a header declares before reading a byte."""

    @pytest.fixture
    def archive(self, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(CSRGraph.from_edges([0, 1, 2], [1, 2, 0]), path)
        return path

    def test_huge_claim_in_a_deflated_member_rejected(self, archive):
        forge_graph_npz(archive)
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="declares shape"):
                load_npz(archive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_claim_in_a_stored_member_rejected(self, archive):
        archive.write_bytes(rewrite_npz(
            archive.read_bytes(), claim=("indices", UNALLOCATABLE)
        ))
        with pytest.raises(GraphFormatError, match="declares shape"):
            load_npz(archive)

    def test_stored_and_deflated_members_load(self, archive):
        expected = load_npz(archive)
        for compress in (False, True):
            archive.write_bytes(rewrite_npz(archive.read_bytes(), compress=compress))
            back = load_npz(archive)
            assert np.array_equal(back.indptr, expected.indptr)
            assert np.array_equal(back.indices, expected.indices)

    def test_other_compression_rejected(self, archive):
        with np.load(archive) as data:
            arrays = {name: data[name] for name in data.files}
        with zipfile.ZipFile(archive, "w", zipfile.ZIP_BZIP2) as out:
            for name, array in arrays.items():
                npy = io.BytesIO()
                np.save(npy, array)
                out.writestr(f"{name}.npy", npy.getvalue())
        with pytest.raises(GraphFormatError, match="compressed"):
            load_npz(archive)

    def test_member_expanding_past_deflate_rejected(self, archive, monkeypatch):
        """A member may claim no more bytes than its compressed bytes
        can inflate to."""
        monkeypatch.setattr(ioutil, "DEFLATE_MAX_RATIO", 1)
        with pytest.raises(GraphFormatError, match="claims"):
            load_npz(archive)

    def test_member_claiming_its_deflate_limit_is_a_format_error(
        self, archive, monkeypatch
    ):
        """A deflated member may claim up to DEFLATE_MAX_RATIO times its
        compressed bytes, and np.load allocates what its header declares
        before it reads: the short read is a GraphFormatError, and so is
        the allocation failing, as it does once the archive is a few MB."""
        forged = rewrite_npz(
            archive.read_bytes(), claim=("format_version", (1000,)), compress=True
        )
        with zipfile.ZipFile(io.BytesIO(forged)) as zf:
            stored = zf.getinfo("format_version.npy").compress_size
        archive.write_bytes(set_inflated_size(
            forged, "format_version.npy", stored * ioutil.DEFLATE_MAX_RATIO
        ))
        with open(archive, "rb") as fh:
            ioutil.require_npz_fits(fh, deflated=True)  # within the limit
        with pytest.raises(GraphFormatError, match="EOF"):
            load_npz(archive)

        def allocation_fails(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(np.lib.format, "read_array", allocation_fails)
        with pytest.raises(GraphFormatError, match="Unable to allocate"):
            load_npz(archive)
