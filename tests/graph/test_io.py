"""Graph serialisation round-trips and malformed-input handling."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.io import (
    read_edge_list,
    read_matrix_market,
    read_metis,
    write_edge_list,
    write_matrix_market,
    write_metis,
)
from tests.conftest import make_paper_graph


def _round_trip(write_fn, read_fn, graph, **read_kwargs):
    buf = io.StringIO()
    write_fn(graph, buf)
    buf.seek(0)
    return read_fn(buf, **read_kwargs)


class TestEdgeList:
    def test_round_trip_unweighted(self):
        g = make_paper_graph(weighted=False)
        back = _round_trip(write_edge_list, read_edge_list, g, undirected=False)
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)

    def test_round_trip_weighted(self, paper_graph):
        buf = io.StringIO()
        write_edge_list(paper_graph, buf)
        buf.seek(0)
        back = read_edge_list(buf, undirected=False, weighted=True)
        assert np.allclose(back.weights, paper_graph.weights)

    def test_comments_and_blank_lines_skipped(self):
        g = read_edge_list(io.StringIO("# header\n\n0 1\n1 2\n"))
        assert g.num_undirected_edges == 2

    def test_file_path_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        back = read_edge_list(path, undirected=False, weighted=True)
        assert back.num_edges == paper_graph.num_edges

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            read_edge_list(io.StringIO("0\n"))

    def test_non_integer_vertex(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))

    def test_negative_vertex(self):
        with pytest.raises(GraphFormatError, match="negative"):
            read_edge_list(io.StringIO("-1 0\n"))

    def test_missing_weight(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("0 1\n"), weighted=True)

    def test_bad_weight(self):
        with pytest.raises(GraphFormatError, match="non-numeric"):
            read_edge_list(io.StringIO("0 1 x\n"), weighted=True)


class TestMetis:
    def test_round_trip_unweighted(self):
        g = make_paper_graph(weighted=False)
        back = _round_trip(write_metis, read_metis, g)
        assert np.array_equal(back.indices, g.indices)

    def test_round_trip_weighted(self, paper_graph):
        back = _round_trip(write_metis, read_metis, paper_graph)
        assert np.allclose(back.weights, paper_graph.weights)

    def test_comment_lines(self):
        g = read_metis(io.StringIO("% comment\n2 1\n2\n1\n"))
        assert g.num_undirected_edges == 1

    def test_write_rejects_asymmetric(self):
        g = CSRGraph.from_edges([0], [1], symmetrize=False)
        with pytest.raises(GraphFormatError, match="symmetric"):
            write_metis(g, io.StringIO())

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="no header"):
            read_metis(io.StringIO(""))

    def test_wrong_vertex_count(self):
        with pytest.raises(GraphFormatError, match="adjacency lines"):
            read_metis(io.StringIO("3 1\n2\n1\n"))

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError, match="declares"):
            read_metis(io.StringIO("2 5\n2\n1\n"))

    def test_vertex_weights_unsupported(self):
        with pytest.raises(GraphFormatError, match="fmt"):
            read_metis(io.StringIO("2 1 11\n2 1\n1 1\n"))

    def test_neighbour_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            read_metis(io.StringIO("2 1\n3\n1\n"))

    def test_isolated_vertices_round_trip(self):
        """Blank adjacency lines are isolated vertices, not noise
        (regression: the parser used to skip them and mis-count)."""
        g = CSRGraph.from_edges([0], [1], num_vertices=5)
        back = _round_trip(write_metis, read_metis, g)
        assert back.num_vertices == 5
        assert back.degrees().tolist() == [1, 1, 0, 0, 0]

    def test_loops_dropped_on_write(self):
        g = CSRGraph.from_edges([0, 0], [0, 1])
        back = _round_trip(write_metis, read_metis, g)
        assert back.num_self_loops == 0


class TestMatrixMarket:
    def test_round_trip_pattern(self):
        g = make_paper_graph(weighted=False)
        back = _round_trip(write_matrix_market, read_matrix_market, g)
        assert np.array_equal(back.indices, g.indices)

    def test_round_trip_real(self, paper_graph):
        back = _round_trip(write_matrix_market, read_matrix_market, paper_graph)
        assert np.allclose(back.weights, paper_graph.weights)

    def test_symmetric_expansion(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.5\n3 2 2.5\n"
        g = read_matrix_market(io.StringIO(text))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.edge_weight(2, 1) == pytest.approx(2.5)

    def test_missing_banner(self):
        with pytest.raises(GraphFormatError, match="banner"):
            read_matrix_market(io.StringIO("1 1 0\n"))

    def test_non_square(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 0\n"
        with pytest.raises(GraphFormatError, match="square"):
            read_matrix_market(io.StringIO(text))

    def test_nnz_mismatch(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n"
        with pytest.raises(GraphFormatError, match="nnz"):
            read_matrix_market(io.StringIO(text))

    def test_unsupported_field(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
        with pytest.raises(GraphFormatError, match="field"):
            read_matrix_market(io.StringIO(text))

    def test_unsupported_symmetry(self):
        text = "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"
        with pytest.raises(GraphFormatError, match="symmetry"):
            read_matrix_market(io.StringIO(text))


class TestMetisHardening:
    """Malformed tokens must surface as GraphFormatError with a line
    number, never as raw ValueError/IndexError."""

    def test_non_integer_neighbour_token(self):
        with pytest.raises(GraphFormatError, match="line 2.*non-integer"):
            read_metis(io.StringIO("2 1\nx\n1\n"))

    def test_non_integer_header(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_metis(io.StringIO("two 1\n2\n1\n"))

    def test_negative_header_counts(self):
        with pytest.raises(GraphFormatError, match="negative"):
            read_metis(io.StringIO("-2 1\n"))

    def test_non_numeric_edge_weight(self):
        with pytest.raises(GraphFormatError, match="non-numeric"):
            read_metis(io.StringIO("2 1 1\n2 bad\n1 1.0\n"))

    def test_odd_weighted_tokens_report_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*odd token"):
            read_metis(io.StringIO("2 1 1\n2\n1 1.0\n"))


class TestMatrixMarketHardening:
    def test_short_entry_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n"
        with pytest.raises(GraphFormatError, match="line 3"):
            read_matrix_market(io.StringIO(text))

    def test_non_integer_entry_index(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\na 2\n"
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_matrix_market(io.StringIO(text))

    def test_row_index_out_of_declared_range(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n"
        with pytest.raises(GraphFormatError, match="out of the declared"):
            read_matrix_market(io.StringIO(text))

    def test_zero_index_rejected(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n"
        with pytest.raises(GraphFormatError, match="out of the declared"):
            read_matrix_market(io.StringIO(text))

    def test_non_numeric_value(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 z\n"
        with pytest.raises(GraphFormatError, match="non-numeric"):
            read_matrix_market(io.StringIO(text))

    def test_short_size_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2\n"
        with pytest.raises(GraphFormatError, match="size line"):
            read_matrix_market(io.StringIO(text))

    def test_non_integer_size_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 x\n"
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_matrix_market(io.StringIO(text))

    def test_negative_size_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 -1\n"
        with pytest.raises(GraphFormatError, match="negative"):
            read_matrix_market(io.StringIO(text))

    def test_entry_line_numbers_count_from_file_start(self):
        """Line numbers in errors refer to the actual file line (the
        banner is line 1), not an offset restarted mid-file."""
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n"
            "2 2 2\n"
            "1 2\n"
            "9 1\n"
        )
        with pytest.raises(GraphFormatError, match="line 5"):
            read_matrix_market(io.StringIO(text))


class TestFailClosed:
    """Inputs that once escaped as bare numpy/Python errors, or asked for
    memory in proportion to a header field."""

    def test_edge_list_id_beyond_int64(self):
        with pytest.raises(GraphFormatError, match="line 1: .*out of range"):
            read_edge_list(io.StringIO("99999999999999999999 1\n"))

    def test_matrix_market_nnz_allocates_nothing(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 100000000000000\n"
            "1 2\n"
        )
        with pytest.raises(GraphFormatError, match="parsed 1 entries"):
            read_matrix_market(io.StringIO(text))

    def test_matrix_market_huge_dimension(self):
        text = f"%%MatrixMarket matrix coordinate pattern general\n{2**62} {2**62} 0\n"
        with pytest.raises(GraphFormatError, match="overflow"):
            read_matrix_market(io.StringIO(text))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        with pytest.raises(GraphFormatError, match="UTF-8"):
            read_edge_list(path)


class TestTokenGrammar:
    """Deliberate differences from ``int()``/``float()`` (docs/API.md):
    every reader uses numpy's token grammar."""

    @pytest.mark.parametrize("token", ["1_0", "٣", "１", "0x1", "1.0"])
    def test_integers_are_ascii_digits(self, token):
        with pytest.raises(GraphFormatError, match="line 2: .*non-integer"):
            read_edge_list(io.StringIO(f"0 1\n{token} 1\n"))
        with pytest.raises(GraphFormatError, match="line 3: .*non-integer"):
            read_metis(io.StringIO(f"2 1\n% c\n{token}\n1\n"))
        mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"
        with pytest.raises(GraphFormatError, match="line 3: .*non-integer"):
            read_matrix_market(io.StringIO(mm + f"{token} 1\n"))

    @pytest.mark.parametrize("token", ["1_0.5", "١.٥"])
    def test_weights_take_no_digit_separators(self, token):
        with pytest.raises(GraphFormatError, match="line 1: non-numeric"):
            read_edge_list(io.StringIO(f"0 1 {token}\n"), weighted=True)
        with pytest.raises(GraphFormatError, match="line 2: .*non-numeric"):
            read_metis(io.StringIO(f"2 1 1\n2 {token}\n1 1\n"))

    def test_headers_share_the_integer_grammar(self):
        with pytest.raises(GraphFormatError, match="line 1: non-integer"):
            read_metis(io.StringIO("2_0 1\n"))
        mm = "%%MatrixMarket matrix coordinate pattern general\n1_0 10 0\n"
        with pytest.raises(GraphFormatError, match="line 2: non-integer"):
            read_matrix_market(io.StringIO(mm))

    def test_comment_partway_through_a_line(self):
        g = read_edge_list(io.StringIO("0 1# tail\n1 2 # tail\n"))
        assert g.indices.tolist() == [1, 0, 2, 1]
        mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2% tail\n"
        assert read_matrix_market(io.StringIO(mm)).indices.tolist() == [1]

    def test_lone_carriage_return_ends_a_line(self):
        g = read_edge_list(io.StringIO("0 1\r2 3\n"))
        assert g.num_undirected_edges == 2

    def test_metis_whitespace_is_ascii(self):
        with pytest.raises(GraphFormatError, match="line 2: .*non-integer"):
            read_metis(io.StringIO("2 1\n2\xa0\n1\n"))
        g = read_metis(io.StringIO("2 1\n\x0c2\x0b\n1\n"))
        assert g.num_undirected_edges == 1

    def test_empty_comment_string_refused(self):
        with pytest.raises(ValueError, match="comment"):
            read_edge_list(io.StringIO("0 1\n"), comment="")


class TestReadSpans:
    """A load is one ``graph.read`` span split into tokenising and CSR
    build; ``from_edges`` alone opens no span."""

    @pytest.mark.parametrize(
        "fmt,write,read",
        [
            ("edge_list", write_edge_list, read_edge_list),
            ("metis", write_metis, read_metis),
            ("matrix_market", write_matrix_market, read_matrix_market),
        ],
    )
    def test_one_read_span_per_load(self, fmt, write, read, tmp_path, paper_graph):
        from repro.obs import trace

        path = tmp_path / "g.txt"
        write(paper_graph, path)
        with trace.capture() as cap:
            graph = read(path)
        (root,) = cap.roots
        assert root.name == "graph.read"
        assert [c.name for c in root.children] == ["graph.tokenize", "graph.csr_build"]
        assert root.attrs == {
            "format": fmt,
            "bytes": path.stat().st_size,
            "slots": graph.num_edges,
        }

    def test_from_edges_opens_no_span(self):
        from repro.obs import trace

        with trace.capture() as cap:
            CSRGraph.from_edges([0, 1], [1, 2])
        assert cap.roots == []
