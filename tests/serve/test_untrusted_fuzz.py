"""Fuzzing the daemon's untrusted inputs beyond graph files.

Request frames (both inline edge forms) go through the daemon's steps
(``decode_message`` -> ``parse_request`` -> ``build_graph``) after byte
flips, truncation and JSON-value swaps.  Sealed envelopes (a checkpoint
and a ``PermutationCache`` entry) go through their readers after byte
flips, truncation, and the forgeries of ``tests/conftest.py``.  Every
case must end in success or in its typed error (``ProtocolError``,
``CheckpointError``, ``ServeError``), and no array may be sized from a
header or a field: ``refuse_huge_arrays`` records every allocation it
refuses, and must refuse none.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ProtocolError, ServeError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from repro.resilience.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    load_checkpoint,
)
from repro.rabbit.seq import community_detection_seq
from repro.serve import protocol
from repro.serve.cache import entry_path, load_entry, save_entry
from tests.conftest import (
    SEAL_HEADER,
    UNALLOCATABLE,
    reseal,
    reseal_members,
    reseal_meta,
)

SETTINGS = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: JSON values a swap puts in place of any value of a frame.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([10**400, -(10**400), 2**63, 2**64, -1, 0])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def frames(draw):
    """A valid request frame, its graph in either inline form."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=20))
    if draw(st.booleans()):
        graph = {"edges_b64": protocol.pack_edges(np.array(edges, dtype=np.int64))}
    elif draw(st.booleans()):
        graph = {"edges": [[u, v, draw(st.floats(0.1, 5.0))] for u, v in edges]}
    else:
        graph = {"edges": [[u, v] for u, v in edges]}
    if draw(st.booleans()):
        graph["num_vertices"] = n + draw(st.integers(0, 3))
    frame = {"op": "reorder", "id": draw(st.integers(0, 99)), "graph": graph}
    if draw(st.booleans()):
        frame.update(op="analyze", analysis=draw(st.sampled_from(protocol.ANALYSES)))
    return frame


def paths(value, prefix=()):
    """Every place in a JSON value, as a key/index path."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from paths(child, prefix + (i,))


def swapped(frame, path, value):
    if not path:
        return value
    frame = json.loads(json.dumps(frame))
    node = frame
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return frame


def serve_line(line: bytes):
    """The daemon's steps for one request line, up to its graph; a
    ``ProtocolError`` is the one failure allowed."""
    try:
        graph = protocol.build_graph(
            protocol.parse_request(protocol.decode_message(line))
        )
    except ProtocolError:
        return None
    assert isinstance(graph, CSRGraph)
    return graph


class TestFrames:
    @SETTINGS
    @given(frame=frames(), data=st.data())
    def test_byte_flips(self, frame, data, refuse_huge_arrays):
        line = bytearray(json.dumps(frame).encode("utf-8"))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(line) - 1))
            line[at] = data.draw(st.integers(0, 255))
        serve_line(bytes(line))
        assert refuse_huge_arrays == []

    @SETTINGS
    @given(frame=frames(), data=st.data())
    def test_truncations(self, frame, data, refuse_huge_arrays):
        line = json.dumps(frame).encode("utf-8")
        serve_line(line[: data.draw(st.integers(0, len(line)))])
        assert refuse_huge_arrays == []

    @SETTINGS
    @given(frame=frames(), data=st.data())
    def test_json_value_swaps(self, frame, data, refuse_huge_arrays):
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(paths(frame))))
            frame = swapped(frame, path, data.draw(json_values))
        serve_line(json.dumps(frame).encode("utf-8"))
        assert refuse_huge_arrays == []

    def test_weight_past_float_range_is_a_protocol_error(self):
        line = b'{"op": "reorder", "graph": {"edges": [[0, 1, 1' + b"0" * 400 + b"]]}}"
        with pytest.raises(ProtocolError, match=r"edges\[0\]: weight"):
            protocol.build_graph(protocol.parse_request(protocol.decode_message(line)))


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """One checkpoint and one cache entry, as bytes."""
    tmp = tmp_path_factory.mktemp("sealed")
    g = erdos_renyi_graph(40, 0.15, rng=3)
    ck = Checkpointer(CheckpointConfig(directory=tmp / "ckpt", every=10, keep=1))
    community_detection_seq(g, checkpoint=ck)
    entry = entry_path(tmp, "k")
    save_entry(entry, "k", {"n": 40}, np.random.default_rng(0).permutation(40))
    return {"checkpoint": ck.saved[-1].read_bytes(), "entry": entry.read_bytes()}


READERS = {
    "checkpoint": (load_checkpoint, CheckpointError),
    "entry": (lambda path: load_entry(path, expect_key="k"), ServeError),
}
FORGERIES = ["flip", "truncate", "reseal", "reseal_meta", "huge-claim", "deflate"]


def forge(path, how, data):
    raw = bytearray(path.read_bytes())
    if how == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
    elif how == "truncate":
        path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw) - 1))]))
    elif how == "reseal":
        payload = raw[SEAL_HEADER.size:]
        for _ in range(data.draw(st.integers(1, 4))):
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(
                st.integers(0, 255))
        reseal(path, bytes(payload))
    elif how == "reseal_meta":
        reseal_meta(path, data.draw(json_values))
    elif how == "huge-claim":
        member = data.draw(st.sampled_from(
            ["order", "dest", "child"] if path.suffix == ".rbk" else ["permutation"]))
        reseal_members(path, claim=(member, UNALLOCATABLE))
    else:
        reseal_members(path, compress=True)


@pytest.mark.parametrize("kind", sorted(READERS))
class TestSealedEnvelopes:
    @SETTINGS
    @given(data=st.data())
    def test_forged(self, kind, data, sealed, tmp_path, refuse_huge_arrays):
        path = tmp_path / ("f.rbk" if kind == "checkpoint" else "f.rbp")
        path.write_bytes(sealed[kind])
        forge(path, data.draw(st.sampled_from(FORGERIES)), data)
        read, error = READERS[kind]
        try:
            read(path)
        except error:
            pass
        assert refuse_huge_arrays == []
