"""Wire-protocol framing, request validation, and graph materialisation."""

import base64
import json
import struct
import tracemalloc

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serve import protocol


class TestFraming:
    def test_round_trip(self):
        message = {"op": "status", "id": 7, "tenant": "t"}
        line = protocol.encode_message(message)
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == message

    def test_encode_is_compact_and_sorted(self):
        line = protocol.encode_message({"b": 1, "a": 2})
        assert line == b'{"a":2,"b":1}\n'

    def test_encode_rejects_unserialisable(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"x": object()})

    def test_encode_rejects_oversized(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.encode_message({"data": "y" * 64})

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            protocol.decode_message(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_message(b"[1, 2]\n")

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            protocol.decode_message(b'{"a": "\xff"}\n')

    def test_decode_accepts_str(self):
        assert protocol.decode_message('{"op": "status"}') == {"op": "status"}


class TestParseRequest:
    def test_valid_ops(self):
        for op in protocol.OPS:
            message = {"op": op, "analysis": "pagerank"}
            assert protocol.parse_request(message) is message

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown or missing op"):
            protocol.parse_request({"op": "transmogrify"})

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request({})

    def test_bad_id_type(self):
        with pytest.raises(ProtocolError, match="request id"):
            protocol.parse_request({"op": "status", "id": [1]})

    def test_bad_tenant(self):
        with pytest.raises(ProtocolError, match="tenant"):
            protocol.parse_request({"op": "status", "tenant": ""})

    def test_analyze_requires_known_analysis(self):
        with pytest.raises(ProtocolError, match="analysis"):
            protocol.parse_request({"op": "analyze", "analysis": "quantum"})


class TestBuildGraph:
    def test_inline_edges(self):
        graph = protocol.build_graph(
            {"graph": {"edges": [[0, 1], [1, 2]], "num_vertices": 4}}
        )
        assert graph.num_vertices == 4
        assert graph.is_symmetric()
        assert graph.has_edge(1, 0)

    def test_inline_weighted_edges(self):
        graph = protocol.build_graph(
            {"graph": {"edges": [[0, 1, 2.5], [1, 2]]}}
        )
        assert graph.is_weighted
        assert graph.edge_weight(0, 1) == 2.5

    def test_requires_exactly_one_source(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.build_graph({})
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.build_graph(
                {"graph": {"edges": []}, "graph_path": "/tmp/x"}
            )

    def test_malformed_edges(self):
        for edges in ([[0]], [[0, 1, 2, 3]], [["a", 1]], [[0, -1]], [[0, 1, "w"]]):
            with pytest.raises(ProtocolError):
                protocol.build_graph({"graph": {"edges": edges}})

    def test_bad_num_vertices(self):
        with pytest.raises(ProtocolError, match="num_vertices"):
            protocol.build_graph(
                {"graph": {"edges": [[0, 1]], "num_vertices": -1}}
            )

    def test_graph_path_npz(self, tmp_path):
        from repro.graph.csr import CSRGraph
        from repro.graph.npz import save_npz

        g = CSRGraph.from_edges([0, 1], [1, 2], symmetrize=True)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = protocol.build_graph({"graph_path": str(path)})
        assert loaded.num_vertices == g.num_vertices
        assert np.array_equal(loaded.indices, g.indices)

    def test_graph_path_missing_file(self, tmp_path):
        with pytest.raises(ProtocolError, match="cannot load"):
            protocol.build_graph({"graph_path": str(tmp_path / "no.npz")})

    def test_graph_path_must_be_string(self):
        with pytest.raises(ProtocolError, match="graph_path"):
            protocol.build_graph({"graph_path": 42})


class TestPackedEdges:
    def test_pack_edges_is_little_endian_int64_base64(self):
        text = protocol.pack_edges(np.array([[1, 2]], dtype=np.int32))
        assert base64.b64decode(text) == struct.pack("<qq", 1, 2)
        assert len(protocol.pack_edges(np.zeros((3, 2), dtype=np.int64))) == 64

    @pytest.mark.parametrize("pairs", [
        [[0, 1, 2]], [0, 1], np.array([[0.0, 1.0]]), [["a", "b"]],
        np.array([[0, 2**63]], dtype=np.uint64),
    ])
    def test_pack_edges_needs_integer_pairs(self, pairs):
        with pytest.raises(ProtocolError, match="pack_edges"):
            protocol.pack_edges(pairs)

    def test_packed_graph_equals_list_graph(self):
        edges = [[0, 1], [1, 2], [2, 2], [1, 0]]
        listed = protocol.build_graph(
            {"graph": {"edges": edges, "num_vertices": 5}}
        )
        packed = protocol.build_graph(
            {"graph": {"edges_b64": protocol.pack_edges(edges), "num_vertices": 5}}
        )
        assert packed.indptr.tobytes() == listed.indptr.tobytes()
        assert packed.indices.tobytes() == listed.indices.tobytes()
        assert packed.weights is None

    @pytest.mark.parametrize("graph, match", [
        ({"edges_b64": 7}, "base64 string"),
        ({"edges_b64": "AAA"}, "not base64"),
        ({"edges_b64": "AA AA"}, "not base64"),
        ({"edges_b64": "A" * 64 + "="}, "excess"),
        ({"edges_b64": "A" * 22 + "==="}, "not base64"),
        ({"edges_b64": "AAAA"}, "whole number"),
        ({"edges_b64": "AAAA", "edges": []}, "both"),
    ])
    def test_malformed_packed_edges(self, graph, match):
        with pytest.raises(ProtocolError, match=match) as excinfo:
            protocol.build_graph({"graph": graph})
        assert excinfo.value.code == protocol.BAD_REQUEST

    def test_negative_packed_id(self):
        text = protocol.pack_edges([[0, -3]])
        with pytest.raises(ProtocolError, match="non-negative"):
            protocol.build_graph({"graph": {"edges_b64": text}})


class TestInlineVertexBound:
    """An inline graph's vertex count is bounded before anything of its
    size is allocated, whichever encoding carries it."""

    BIG = 20_000_000

    @pytest.mark.parametrize("graph", [
        {"edges": [[0, 1]], "num_vertices": BIG},
        {"edges": [[0, BIG]]},
        {"edges_b64": protocol.pack_edges([[0, 1]]), "num_vertices": BIG},
        {"edges_b64": protocol.pack_edges([[BIG, 1]])},
        {"edges_b64": protocol.pack_edges([[0, 2**62]])},
        {"edges": [[1, 2**63]]},
        {"edges": [[2**70, 1]]},
    ], ids=["list-n", "list-id", "packed-n", "packed-id", "packed-huge-id",
            "list-id-uint64", "list-id-past-uint64"])
    def test_over_bound_frame_refused_without_allocating(self, graph):
        line = protocol.encode_message({"op": "reorder", "id": 1, "graph": graph})
        assert len(line) < 200
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="vertex bound") as excinfo:
                protocol.build_graph(protocol.decode_message(line))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.code == protocol.BAD_REQUEST
        assert peak < 1 << 20

    def test_bound_follows_the_line_ceiling(self):
        assert protocol.MAX_INLINE_VERTICES == protocol.MAX_LINE_BYTES // 8
        n = protocol.MAX_INLINE_VERTICES + 1
        for graph in ({"edges": [], "num_vertices": n}, {"edges": [[0, n - 1]]}):
            with pytest.raises(ProtocolError, match="vertex bound"):
                protocol.build_graph({"graph": graph})


class TestResponses:
    def test_ok_response(self):
        assert protocol.ok_response(3, n=5) == {"ok": True, "id": 3, "n": 5}

    def test_error_response_shape(self):
        response = protocol.error_response(
            "r1", protocol.QUOTA_EXCEEDED, "quota", "slow down",
            retry_after_s=1.5,
        )
        assert response["ok"] is False
        assert response["error"]["code"] == 429
        assert response["error"]["retry_after_s"] == 1.5
        # The response must survive the wire format.
        assert json.loads(protocol.encode_message(response)) == response
