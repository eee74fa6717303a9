"""Fuzzing the packed inline-graph form (``edges_b64``) against the list form.

The same integer edges sent as a JSON edge list and as packed int64
pairs must build byte-identical CSR arrays with one fingerprint key.  A
packed frame damaged in any of the ways below must end in
:class:`~repro.errors.ProtocolError` and nothing else: no
``binascii.Error``, no ``ValueError`` from numpy, no graph.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
from repro.serve import protocol

SETTINGS = settings(max_examples=150, deadline=None)

#: Characters ``b64decode`` skips or refuses: none is in the alphabet.
NOT_ALPHABET = [" ", "\n", "\t", "*", "-", "_", ".", "\x00", "é", "€"]


def serve_frame(frame: dict):
    """The daemon's steps for one request line, up to its graph."""
    line = json.dumps(frame).encode("utf-8")
    return protocol.build_graph(protocol.parse_request(protocol.decode_message(line)))


def frame_for(graph: dict) -> dict:
    return {"op": "reorder", "id": 1, "graph": graph}


@st.composite
def edge_lists(draw):
    """``(edges, num_vertices)``: integer pairs with loops and
    duplicates likely, ``num_vertices`` absent, tight or above the
    largest id."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=60))
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))  # duplicates
    top = max((max(e) for e in edges), default=-1) + 1
    num_vertices = draw(st.one_of(st.none(), st.integers(top, top + 5)))
    return [list(e) for e in edges], num_vertices


def with_n(graph: dict, num_vertices) -> dict:
    if num_vertices is not None:
        graph["num_vertices"] = num_vertices
    return graph


class TestBothFormsAgree:
    @SETTINGS
    @given(edge_lists())
    def test_same_csr_and_key(self, case):
        edges, num_vertices = case
        listed = serve_frame(frame_for(with_n({"edges": edges}, num_vertices)))
        packed_text = protocol.pack_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        packed = serve_frame(frame_for(with_n({"edges_b64": packed_text}, num_vertices)))
        assert packed.indptr.tobytes() == listed.indptr.tobytes()
        assert packed.indices.tobytes() == listed.indices.tobytes()
        assert listed.weights is None and packed.weights is None
        assert fingerprint_key(graph_fingerprint(packed)) == fingerprint_key(
            graph_fingerprint(listed)
        )

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(), st.integers()), max_size=8),
           st.one_of(st.none(), st.integers(0, 2**70)))
    def test_any_integer_ids_end_in_a_graph_or_a_400(self, edges, num_vertices):
        """Ids of any size, in either form: negative ones, ones past
        int64 and ones past the vertex bound are refused as a 400."""
        forms = [{"edges": [list(e) for e in edges]}]
        if all(-(2**63) <= i < 2**63 for e in edges for i in e):
            forms.append({"edges_b64": protocol.pack_edges(
                np.asarray(edges, dtype=np.int64).reshape(-1, 2))})
        for graph in forms:
            try:
                built = serve_frame(frame_for(with_n(graph, num_vertices)))
            except ProtocolError as exc:
                assert exc.code == protocol.BAD_REQUEST
            else:
                assert built.num_vertices <= protocol.MAX_INLINE_VERTICES

    def test_empty_edge_list(self):
        for num_vertices in (None, 0, 5):
            listed = serve_frame(frame_for(with_n({"edges": []}, num_vertices)))
            packed = serve_frame(frame_for(with_n({"edges_b64": ""}, num_vertices)))
            assert packed.num_vertices == listed.num_vertices == (num_vertices or 0)
            assert packed.num_edges == listed.num_edges == 0


@st.composite
def packed_texts(draw):
    """Canonical ``edges_b64`` text of 1-20 random non-negative pairs."""
    m = draw(st.integers(1, 20))
    ids = draw(st.lists(st.integers(0, 1000), min_size=2 * m, max_size=2 * m))
    return protocol.pack_edges(np.asarray(ids, dtype=np.int64).reshape(m, 2))


def refused(graph: dict) -> None:
    with pytest.raises(ProtocolError) as excinfo:
        serve_frame(frame_for(graph))
    assert excinfo.value.code == protocol.BAD_REQUEST


class TestDamagedFramesAreRefused:
    @SETTINGS
    @given(packed_texts(), st.data())
    def test_truncated(self, text, data):
        # A prefix whose length is a multiple of 64 characters is itself
        # the canonical text of whole pairs (48 bytes); any other is not.
        keep = data.draw(
            st.integers(0, len(text) - 1).filter(lambda k: k % 64 != 0)
        )
        refused({"edges_b64": text[:keep]})

    @SETTINGS
    @given(packed_texts(), st.integers(0, 3))
    def test_repadded(self, text, pad):
        repadded = text.rstrip("=") + "=" * pad
        if repadded != text:
            refused({"edges_b64": repadded})

    @SETTINGS
    @given(packed_texts(), st.sampled_from(NOT_ALPHABET), st.data())
    def test_non_alphabet_character(self, text, char, data):
        at = data.draw(st.integers(0, len(text)))
        refused({"edges_b64": text[:at] + char + text[at:]})

    @SETTINGS
    @given(st.binary(max_size=100).filter(lambda b: len(b) % 16 != 0))
    def test_length_not_a_whole_number_of_pairs(self, raw):
        refused({"edges_b64": base64.b64encode(raw).decode("ascii")})

    @SETTINGS
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=40)
           .filter(lambda ids: len(ids) % 2 == 0 and min(ids) < 0))
    def test_negative_id(self, ids):
        text = protocol.pack_edges(np.asarray(ids, dtype=np.int64).reshape(-1, 2))
        refused({"edges_b64": text})

    @SETTINGS
    @given(packed_texts(), edge_lists())
    def test_both_fields(self, text, case):
        refused({"edges_b64": text, "edges": case[0]})

    @pytest.mark.parametrize("value", [None, 5, 1.5, True, [], ["AAAA"], {}])
    def test_not_a_string(self, value):
        refused({"edges_b64": value})

    @SETTINGS
    @given(st.text(max_size=80))
    def test_random_text(self, text):
        """Random text is refused unless it is strict base64 of whole
        non-negative pairs, which then decodes to exactly those pairs."""
        try:
            graph = serve_frame(frame_for({"edges_b64": text}))
        except ProtocolError as exc:
            assert exc.code == protocol.BAD_REQUEST
            return
        raw = base64.b64decode(text, validate=True)
        assert len(text) == -(-len(raw) // 3) * 4
        pairs = np.frombuffer(raw, dtype="<i8").reshape(-1, 2)
        expected = CSRGraph.from_edges(pairs[:, 0], pairs[:, 1], symmetrize=True)
        assert graph.indptr.tobytes() == expected.indptr.tobytes()
        assert graph.indices.tobytes() == expected.indices.tobytes()
