"""The compiled graph file readers against the numpy readers.

For every input the compiled reader either returns exactly the numpy
reader's arrays or declines, and then the numpy reader returns or raises
what it does alone.  Mutated writer output (CR, NUL, control and
non-ASCII bytes, signs, 19-digit and longer ids, short lines,
truncation) must load equal on both engines, or fail with an equal
exception type and message.  Headers are never trusted for sizes.
"""

import io
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, graph_fingerprint, native
from repro.graph.generators import rmat_graph, road_lattice_graph
from repro.graph.io import read_edge_list, read_metis, write_edge_list, write_metis
from repro.obs import trace
from tests.graph.test_io_fuzz import SETTINGS, assert_same, documents, render

pytestmark = pytest.mark.skipif(
    native.library() is None, reason="compiled library unavailable"
)

READERS = {"edge_list": read_edge_list, "metis": read_metis}
#: The characters the compiled readers take.
SUBSET = {chr(c) for c in range(0x20, 0x7F)} | {"\t", "\n"}


@contextmanager
def numpy_readers():
    """The numpy readers alone, as without a compiler."""
    with mock.patch.dict(native._STATE, {"lib": None, "reason": "no-compiler"}):
        yield


def load(read, source, **kwargs):
    """``(graph or exception, engine)`` of one read of *source*."""
    if isinstance(source, str):
        source = io.StringIO(source)
    with trace.capture() as cap:
        try:
            result = read(source, **kwargs)
        except Exception as exc:  # compared by type and message
            result = exc
    reads = cap.find("graph.read")
    return result, reads[0].attrs.get("engine") if reads else None


def assert_equal_outcome(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected), (got, expected)
    else:
        assert not isinstance(got, Exception), got
        assert_same(got, expected)


def both_engines(read, source, **kwargs):
    """``(compiled outcome, numpy outcome, engine that served the first)``.
    A read that fails while tokenising records no engine; only the numpy
    reader fails there, so that is reported as ``"numpy"``."""
    got, engine = load(read, source, **kwargs)
    with numpy_readers():
        expected, numpy_engine = load(read, source, **kwargs)
    assert numpy_engine in ("numpy", None)
    return got, expected, engine or "numpy"


MUTATIONS = ["cr", "nul", "control", "non-ascii", "sign", "long id", "short line",
             "truncate"]


def mutate(text: str, kind: str, draw) -> str:
    """*text* with one mutation of *kind* at a drawn place."""
    at = draw(st.integers(0, len(text)))
    if kind == "cr":
        return text[:at] + "\r" + text[at:]
    if kind == "nul":
        return text[:at] + "\x00" + text[at:]
    if kind == "control":
        return text[:at] + draw(st.sampled_from(["\x0b", "\x0c", "\x1f", "\x7f"])) + text[at:]
    if kind == "non-ascii":
        return text[:at] + draw(st.sampled_from(["é", "\xa0", " ", "٣"])) + text[at:]
    if kind == "truncate":
        return text[:at]
    digits = [i for i, c in enumerate(text) if c.isdigit() and (i == 0 or not text[i - 1].isdigit())]
    if not digits:
        return text
    start = draw(st.sampled_from(digits))
    end = start
    while end < len(text) and text[end].isdigit():
        end += 1
    if kind == "sign":
        return text[:start] + draw(st.sampled_from("+-")) + text[start:]
    if kind == "long id":
        run = draw(st.text("0123456789", min_size=19, max_size=25))
        return text[:start] + run + text[end:]
    # short line: drop the rest of the line from this token on
    stop = text.find("\n", end)
    return text[:start] + (text[stop:] if stop >= 0 else "")


@pytest.mark.parametrize("fmt", sorted(READERS))
class TestDifferential:
    @SETTINGS
    @given(data=st.data())
    def test_mutated_writer_output(self, fmt, data, tmp_path):
        doc = data.draw(documents(fmt))
        text = render(doc.lines, crlf=False)
        for _ in range(data.draw(st.integers(0, 2))):
            text = mutate(text, data.draw(st.sampled_from(MUTATIONS)), data.draw)
        kwargs = {"undirected": data.draw(st.booleans())} if fmt == "edge_list" else {}
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        for source in (text, path):
            got, expected, _ = both_engines(READERS[fmt], source, **kwargs)
            assert_equal_outcome(got, expected)

    @SETTINGS
    @given(data=st.data())
    def test_clean_unweighted_output_is_read_natively(self, fmt, data, tmp_path):
        doc = data.draw(documents(fmt))
        if doc.weighted and fmt == "metis":
            return  # weighted METIS is the numpy reader's
        text = render(doc.lines, crlf=False)
        if not set(text) <= SUBSET:
            return  # a non-ASCII or control byte declines
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("ascii"))
        for source in (text, path):
            got, expected, engine = both_engines(READERS[fmt], source)
            assert engine == "native"
            assert_equal_outcome(got, expected)


class TestEngineChoice:
    """Which inputs the compiled readers take; all others go to numpy."""

    @pytest.mark.parametrize(
        "text,kwargs,engine",
        [
            ("0 1\n", {}, "native"),
            ("0\t1 extra 7 # c\n", {}, "native"),
            ("% c\n0 1\n", {"comment": "%"}, "native"),
            ("0 1\n", {"comment": "//"}, "numpy"),
            ("0 1 2.5\n", {"weighted": True}, "numpy"),
            ("+0 1\n", {}, "numpy"),
            ("0 1 é\n", {}, "numpy"),
            ("0 " + "1" * 19 + "\n", {}, "numpy"),
            ("0 " + "1" * 18 + "\n", {}, "native"),
        ],
    )
    def test_edge_list(self, text, kwargs, engine):
        got, expected, served = both_engines(read_edge_list, text, **kwargs)
        assert served == engine
        assert_equal_outcome(got, expected)

    @pytest.mark.parametrize("comment", ["#", "%", "-", "~", "!", "0", "7", " ", "\t",
                                         "\x7f", "é"])
    def test_edge_list_comment_character(self, comment, tmp_path):
        """Every one-character comment string reaches the compiled
        reader, which takes printable ASCII other than a digit."""
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 {comment} x\n{comment}\n1 2\n", encoding="utf-8")
        got, expected, served = both_engines(read_edge_list, path, comment=comment)
        printable = "!" <= comment <= "~" and not comment.isdigit()
        assert served == ("native" if printable else "numpy")
        assert_equal_outcome(got, expected)

    @pytest.mark.parametrize(
        "text,engine",
        [
            ("2 1\n2\n1\n", "native"),
            ("% c\n\n 2\t1 00\n2 2\n% c\n1\n\n\n", "native"),
            ("2 1 1\n2 1.0\n1 1.0\n", "numpy"),
            ("2 1 0 extra\n2\n1\n", "numpy"),
            ("2 1\n2\n1\n1\n", "numpy"),
            ("3 1\n2\n1\n", "numpy"),
            ("2 1\n3\n1\n", "numpy"),
            ("2 1\n0\n1\n", "numpy"),
            ("2 1\n2 %x\n1\n", "numpy"),
            ("2 1 0\n2\n1", "native"),
            ("2 1\t00 \n2\n1\n", "native"),
            ("2 1 000\n2\n1\n", "numpy"),
            ("2 1 0 0\n2\n1\n", "numpy"),
            ("2\t\n2\n1\n", "numpy"),
            ("0 0", "native"),
            ("% c\n", "numpy"),
            ("1" * 19 + " 1\n", "numpy"),
            ("2 " + "1" * 19 + "\n2\n1\n", "numpy"),
        ],
    )
    def test_metis(self, text, engine):
        got, expected, served = both_engines(read_metis, text)
        assert served == engine
        assert_equal_outcome(got, expected)

    def test_carriage_returns_in_a_file_go_to_numpy(self, tmp_path):
        """A stream's text arrives with its line ends translated (as the
        numpy reader reads it), a file's bytes as they are."""
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\r\n1 2\r3 4\n")
        got, expected, served = both_engines(read_edge_list, path)
        assert served == "numpy"
        assert_equal_outcome(got, expected)
        got, expected, served = both_engines(read_edge_list, "0 1\r\n1 2\r3 4\n")
        assert served == "native"
        assert_equal_outcome(got, expected)

    def test_compressed_suffix_goes_to_numpy(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        path.write_bytes(b"0 1\n")
        got, expected, served = both_engines(read_edge_list, path)
        assert served == "numpy"
        assert_equal_outcome(got, expected)


class TestFailClosed:
    def test_huge_metis_header_allocates_nothing(self, refuse_huge_arrays):
        text = f"{2**40} 1\n2\n1\n"
        got, expected, served = both_engines(read_metis, text)
        assert served == "numpy"
        assert isinstance(expected, GraphFormatError)
        assert "declares 1099511627776 vertices but file has 2" in str(expected)
        assert_equal_outcome(got, expected)

    def test_metis_edges_wants_every_declared_list(self):
        assert native.metis_edges(b"3 1\n2\n1\n") is None
        n, m, src, dst = native.metis_edges(b"3 1\n2\n1\n\n")
        assert (n, m, src.tolist(), dst.tolist()) == (3, 1, [0, 1], [1, 0])

    @pytest.mark.parametrize("token", ["99999999999999999999", "1" * 19])
    def test_long_edge_list_id_is_the_numpy_readers(self, token):
        got, expected, served = both_engines(read_edge_list, f"{token} 1\n")
        assert served == "numpy"
        assert_equal_outcome(got, expected)
        assert "out of range" in str(got) or "allocate" in str(got) or "overflow" in str(got)

    def test_beyond_int64_is_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 1: .*out of range"):
            read_edge_list(io.StringIO("99999999999999999999 1\n"))

    @pytest.mark.parametrize("cut", range(0, 12))
    def test_every_truncation(self, cut):
        text = "% c\n3 2\n2 3\n1\n1\n"[:cut]
        got, expected, _ = both_engines(read_metis, text)
        assert_equal_outcome(got, expected)


def _snap(graph: CSRGraph) -> str:
    """An edge list as SNAP ships one: '#' header lines, tab-separated
    ``u < v`` pairs."""
    src, dst, _ = graph.edge_array()
    keep = src < dst
    lines = ["# Undirected graph", f"# Nodes: {graph.num_vertices}"]
    lines += [f"{u}\t{v}" for u, v in zip(src[keep].tolist(), dst[keep].tolist())]
    return "\n".join(lines) + "\n"


class TestWorkloadShapedInputs:
    """SNAP edge lists and METIS files as the benchmark writes them, on
    ten seeds each: read natively, equal arrays, equal fingerprints."""

    @pytest.mark.parametrize("seed", range(10))
    def test_snap_edge_list(self, seed, tmp_path):
        g = rmat_graph(9, edge_factor=8, rng=seed)
        path = tmp_path / "g.txt"
        path.write_text(_snap(g))
        got, expected, engine = both_engines(read_edge_list, path)
        assert engine == "native"
        assert_equal_outcome(got, expected)
        assert graph_fingerprint(got) == graph_fingerprint(expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_metis(self, seed, tmp_path):
        g = road_lattice_graph(20, 20, rng=seed)
        path = tmp_path / "g.graph"
        write_metis(g, path)
        got, expected, engine = both_engines(read_metis, path)
        assert engine == "native"
        assert_equal_outcome(got, expected)
        assert np.array_equal(got.indptr, g.indptr)
        assert np.array_equal(got.indices, g.indices)
        assert graph_fingerprint(got) == graph_fingerprint(expected)

    def test_edge_list_writer_round_trip(self):
        g = rmat_graph(8, edge_factor=16, rng=1)
        buf = io.StringIO()
        write_edge_list(g, buf)
        got, expected, engine = both_engines(
            read_edge_list, buf.getvalue(), undirected=False
        )
        assert engine == "native"
        assert_equal_outcome(got, expected)
