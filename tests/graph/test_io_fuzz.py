"""Fuzzing the three text readers against the per-line oracle parsers.

Writer output with injected comment lines, blank lines, tabs, CRLF line
ends, leading whitespace and extra columns must load byte-identical to
the oracle (:mod:`tests.graph.oracle`, the readers this package had
before it tokenised whole files), from a stream and from a path.  A
single mutated token must raise :class:`GraphFormatError` naming the
mutated physical line.  The error path's token grammar must be numpy's.
"""

import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph import io as gio
from tests.graph import oracle

FORMATS = {
    "edge_list": (gio.write_edge_list, gio.read_edge_list, oracle.read_edge_list),
    "metis": (gio.write_metis, gio.read_metis, oracle.read_metis),
    "matrix_market": (
        gio.write_matrix_market, gio.read_matrix_market, oracle.read_matrix_market,
    ),
}
COMMENT = {"edge_list": "#", "metis": "%", "matrix_market": "%"}
SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

special = [0.0, -0.0, 0.1, 1e-300, 5e-324, 1e300]
spaces = st.sampled_from(["", " ", "\t", "  ", " \t"])
gaps = st.sampled_from([" ", "\t", "  ", "\t\t", " \t "])
comment_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=12,
)
extra_tokens = st.lists(st.sampled_from(["x", "7", "-1", "1.5e3", "a_b", "é"]), max_size=2)


@st.composite
def graphs(draw, symmetric):
    """A graph to write.  METIS needs it symmetric, and the writer checks
    that with ``allclose``: its duplicate weights, summed in two orders,
    stay non-negative and finite so the sums cannot cancel or turn NaN."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, 20))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ids), draw(ids)
    if symmetric:
        weight = st.one_of(st.floats(0, 1e300), st.sampled_from(special))
    else:  # summed duplicates neither overflow nor meet inf - inf
        weight = st.one_of(
            st.floats(-1e300, 1e300),
            st.sampled_from(special + [-1e300, float("inf"), float("nan")]),
        )
    w = draw(st.one_of(st.none(), st.lists(weight, min_size=m, max_size=m)))
    return CSRGraph.from_edges(
        src, dst, num_vertices=n, weights=w,
        symmetrize=symmetric or draw(st.booleans()),
    )


@dataclass
class Document:
    """A written graph split into lines, with noise injected."""

    lines: list
    #: token list of each line the writer wrote (``None`` for noise)
    tokens: list
    #: lines holding an edge list row, a METIS adjacency list or a
    #: MatrixMarket entry
    entries: list
    weighted: bool
    num_vertices: int
    kwargs: dict


@st.composite
def documents(draw, fmt):
    graph = draw(graphs(symmetric=fmt == "metis"))
    write = FORMATS[fmt][0]
    buf = io.StringIO()
    write(graph, buf)
    written = buf.getvalue().split("\n")[:-1]
    comment = COMMENT[fmt]
    lines, data = [], []

    def noise(before_header):
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()) and (before_header or fmt != "metis"):
                lines.append(draw(spaces))  # blank (a vertex in a METIS body)
            else:
                lines.append(draw(spaces) + comment + draw(comment_text))
            data.append(None)

    for i, raw in enumerate(written):
        if fmt == "matrix_market" and i == 0:
            lines.append(raw)  # the banner must open the file
            data.append(None)
            continue
        header = fmt == "metis" and i == 0
        noise(before_header=header or (fmt == "matrix_market" and i == 1))
        tokens = raw.split()
        extra = []
        if fmt == "edge_list" or (fmt == "matrix_market" and i > 1):
            extra = draw(extra_tokens)
            if fmt == "matrix_market":  # '%' would start a comment
                extra = [t for t in extra if "%" not in t]
        lines.append(draw(spaces) + "".join(
            t + draw(gaps) for t in tokens + extra).rstrip(" \t") + draw(spaces))
        data.append(tokens)
    if fmt != "metis":
        noise(before_header=False)
    kwargs = {}
    if fmt == "edge_list":
        kwargs = {"undirected": False, "weighted": graph.is_weighted}
    written_lines = [i for i, d in enumerate(data) if d is not None]
    skip = {"edge_list": 0, "metis": 1, "matrix_market": 1}[fmt]
    return Document(lines, data, written_lines[skip:], graph.is_weighted,
                    graph.num_vertices, kwargs)


def render(lines, crlf):
    return "".join(line + ("\r\n" if crlf else "\n") for line in lines)


def assert_same(got, expected):
    assert got.indptr.tobytes() == expected.indptr.tobytes()
    assert got.indices.tobytes() == expected.indices.tobytes()
    if expected.weights is None:
        assert got.weights is None
    else:
        assert got.weights.tobytes() == expected.weights.tobytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestNoisyWriterOutput:
    @SETTINGS
    @given(data=st.data())
    def test_loads_like_the_oracle(self, fmt, data, tmp_path):
        doc = data.draw(documents(fmt))
        text = render(doc.lines, crlf=data.draw(st.booleans()))
        _, read, read_oracle = FORMATS[fmt]
        expected = read_oracle(io.StringIO(text), **doc.kwargs)
        assert_same(read(io.StringIO(text), **doc.kwargs), expected)
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_same(read(path, **doc.kwargs), expected)


# (format, mutation) -> phrase the error must carry besides "line N".
MUTATIONS = {
    ("edge_list", "non-digit"): "non-integer",
    ("edge_list", "negative"): "negative",
    ("edge_list", "beyond int64"): "out of range",
    ("edge_list", "dropped column"): "expected",
    ("edge_list", "bad weight"): "non-numeric",
    ("metis", "non-digit"): "non-integer",
    ("metis", "negative"): "out of range",
    ("metis", "beyond int64"): "out of range",
    ("metis", "out of range"): "out of range",
    ("metis", "odd pair"): "odd token",
    ("metis", "bad weight"): "non-numeric",
    ("matrix_market", "non-digit"): "non-integer",
    ("matrix_market", "negative"): "out of the declared",
    ("matrix_market", "beyond int64"): "out of the declared",
    ("matrix_market", "out of range"): "out of the declared",
    ("matrix_market", "dropped column"): "entry",
    ("matrix_market", "bad weight"): "non-numeric",
    ("matrix_market", "beyond nnz"): "more entries than the declared nnz",
}
NON_DIGITS = ["x", "1x", "1.5", "0x1", "1e3", "1_0", "٣", "+", "-", "１"]
BAD_WEIGHTS = ["x", "1_0", "1.5.2", "0x1p3", "nan(1)", "٣", "1,5", "--1"]


def mutate(fmt, kind, doc, draw):
    """Apply *kind* to one entry line of *doc*; returns the 1-based
    number of the mutated (or, for ``beyond nnz``, added) line."""
    lines, entries = doc.lines, doc.entries
    if kind == "beyond nnz":
        at = entries[-1] + 1 if entries else len(lines)
        lines.insert(at, "1 1 1.0" if doc.weighted else "1 1")
        return at + 1
    if fmt == "metis":  # an isolated vertex's empty list has no token
        entries = [i for i in entries if doc.tokens[i]]
    if not entries:
        return None
    i = draw(st.sampled_from(entries))
    tokens = list(doc.tokens[i])
    if fmt != "metis":
        ids, weights = [0, 1], [2]
    elif doc.weighted:
        ids, weights = range(0, len(tokens), 2), range(1, len(tokens), 2)
    else:
        ids, weights = range(len(tokens)), []
    if kind == "non-digit":
        tokens[draw(st.sampled_from(ids))] = draw(st.sampled_from(NON_DIGITS))
    elif kind == "negative":
        tokens[draw(st.sampled_from(ids))] = str(-draw(st.integers(1, 9)))
    elif kind == "beyond int64":
        tokens[draw(st.sampled_from(ids))] = str(draw(st.integers(2**63, 2**70)))
    elif kind == "out of range":
        tokens[draw(st.sampled_from(ids))] = str(doc.num_vertices + draw(st.integers(1, 3)))
    elif kind == "dropped column":
        del tokens[(2 if doc.weighted else 1):]
    elif kind == "odd pair":
        del tokens[-1]
    elif kind == "bad weight":
        tokens[draw(st.sampled_from(weights))] = draw(st.sampled_from(BAD_WEIGHTS))
    lines[i] = " ".join(tokens)
    return i + 1


@pytest.mark.parametrize("fmt,kind", sorted(MUTATIONS))
class TestMutatedToken:
    @settings(SETTINGS, max_examples=75)
    @given(data=st.data())
    def test_error_names_the_line(self, fmt, kind, data):
        doc = data.draw(documents(fmt))
        if kind in ("bad weight", "odd pair") and not doc.weighted:
            return
        lineno = mutate(fmt, kind, doc, data.draw)
        if lineno is None:
            return
        text = render(doc.lines, crlf=data.draw(st.booleans()))
        with pytest.raises(GraphFormatError, match=rf"line {lineno}\b") as err:
            FORMATS[fmt][1](io.StringIO(text), **doc.kwargs)
        assert MUTATIONS[fmt, kind] in str(err.value)


class TestEmptyInputs:
    """Empty and comment-only inputs are a 0-vertex graph, with no
    warning from numpy (which warns on a body without data)."""

    @pytest.mark.parametrize("text", ["", "\n\n", "# a\n  # b\n\n", "#"])
    def test_edge_list(self, text, recwarn):
        g = gio.read_edge_list(io.StringIO(text))
        assert g.num_vertices == 0 and not recwarn.list

    @pytest.mark.parametrize("text", ["0 0\n", "% a\n\n0 0\n% b\n", "0 0"])
    def test_metis(self, text, recwarn):
        g = gio.read_metis(io.StringIO(text))
        assert g.num_vertices == 0 and not recwarn.list

    @pytest.mark.parametrize("body", ["0 0 0\n", "% a\n0 0 0\n% b\n\n", "0 0 0"])
    def test_matrix_market(self, body, recwarn):
        text = "%%MatrixMarket matrix coordinate real general\n" + body
        g = gio.read_matrix_market(io.StringIO(text))
        assert g.num_vertices == 0 and not recwarn.list

    def test_empty_file_path(self, tmp_path, recwarn):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert gio.read_edge_list(path).num_vertices == 0
        assert not recwarn.list


bare_tokens = st.text(
    st.sampled_from(list("0123456789+-._eEinfatyx٣１ ")), min_size=1, max_size=25
).map(str.strip).filter(bool).filter(lambda t: " " not in t)


class TestErrorPathGrammar:
    """The error path names the line with its own token checks; they
    must accept exactly what ``np.loadtxt`` (and the METIS tokenizer)
    accept, or a malformed line would go unnamed."""

    @settings(max_examples=400, deadline=None)
    @given(bare_tokens)
    def test_integer_grammar_is_numpys(self, token):
        try:
            parsed = int(np.loadtxt([token], dtype=np.int64, ndmin=1)[0])
        except ValueError:
            parsed = None
        value = gio._integer(token)
        if value is not None and not -(2**63) <= value < 2**63:
            value = None
        assert parsed == value

    @settings(max_examples=400, deadline=None)
    @given(bare_tokens)
    def test_float_grammar_is_numpys(self, token):
        try:
            parsed = np.loadtxt([token], dtype=np.float64, ndmin=1)[0]
        except ValueError:
            parsed = None
        assert (parsed is not None) == gio._is_float(token)
        if parsed is not None:
            assert parsed.tobytes() == np.float64(float(token)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(bare_tokens, min_size=1, max_size=6), st.integers(0, 40))
    def test_metis_integers_match(self, toks, zeros):
        toks = toks + ["0" * zeros + "7", "-" + "0" * zeros + "1" + "0" * 20]
        data = " ".join(toks).encode("utf-8")
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.cumsum([len(t.encode("utf-8")) + 1 for t in toks]) - 1
        starts = ends - [len(t.encode("utf-8")) for t in toks]
        value, ok = gio._integers(buf, starts, ends)
        for token, v, good in zip(toks, value.tolist(), ok.tolist()):
            expected = gio._integer(token)
            assert good == (expected is not None)
            if expected is not None and abs(expected) < 10**18:
                assert v == expected
            elif expected is not None:
                assert abs(v) == 2**63 - 1
