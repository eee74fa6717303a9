"""Shared fixtures: the paper's running-example graph and a small zoo of
structurally diverse graphs used by generic contract tests."""

from __future__ import annotations

import io
import json
import os
import signal
import struct
import subprocess
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    hierarchical_community_graph,
    road_lattice_graph,
    rmat_graph,
)

#: The weighted graph of the paper's Figure 1(a) / Figure 4.
PAPER_EDGES = [
    (0, 2, 1.4),
    (0, 4, 5.1),
    (0, 7, 2.6),
    (1, 3, 8.4),
    (1, 6, 4.2),
    (2, 4, 8.0),
    (2, 7, 9.2),
    (3, 4, 0.5),
    (3, 6, 3.1),
    (4, 6, 1.3),
    (4, 7, 7.9),
    (5, 7, 0.7),
]

#: Ground-truth communities of the paper's example (Figure 1(b)).
PAPER_COMMUNITIES = ({0, 2, 4, 5, 7}, {1, 3, 6})


def make_paper_graph(weighted: bool = True) -> CSRGraph:
    src = [e[0] for e in PAPER_EDGES]
    dst = [e[1] for e in PAPER_EDGES]
    w = [e[2] for e in PAPER_EDGES] if weighted else None
    return CSRGraph.from_edges(src, dst, weights=w, symmetrize=True)


@pytest.fixture
def paper_graph() -> CSRGraph:
    return make_paper_graph(weighted=True)


@pytest.fixture
def paper_graph_unweighted() -> CSRGraph:
    return make_paper_graph(weighted=False)


def _graph_zoo() -> dict[str, CSRGraph]:
    rng = np.random.default_rng(7)
    zoo = {
        "empty": CSRGraph.empty(0),
        "isolated": CSRGraph.empty(5),
        "single_edge": CSRGraph.from_edges([0], [1]),
        "self_loop": CSRGraph.from_edges([0, 0], [0, 1]),
        "triangle": CSRGraph.from_edges([0, 1, 2], [1, 2, 0]),
        "path": CSRGraph.from_edges(np.arange(9), np.arange(1, 10)),
        "star": CSRGraph.from_edges(np.zeros(8, dtype=int), np.arange(1, 9)),
        "two_components": CSRGraph.from_edges([0, 1, 3, 4], [1, 2, 4, 5]),
        "paper": make_paper_graph(),
        "er": erdos_renyi_graph(60, 0.1, rng=rng),
        "rmat": rmat_graph(7, edge_factor=4, rng=rng),
        "hier": hierarchical_community_graph(200, levels=2, rng=rng).graph,
        "road": road_lattice_graph(8, 8, rng=rng),
    }
    return zoo


GRAPH_ZOO = _graph_zoo()


@pytest.fixture(params=sorted(GRAPH_ZOO))
def zoo_graph(request) -> CSRGraph:
    return GRAPH_ZOO[request.param]


@pytest.fixture(
    params=[k for k, g in sorted(GRAPH_ZOO.items()) if g.num_vertices > 0]
)
def nonempty_zoo_graph(request) -> CSRGraph:
    return GRAPH_ZOO[request.param]


#: Seconds a test using the ``alarm`` fixture may run.
ALARM_S = 10


@pytest.fixture
def alarm():
    """Fail the test with ``TimeoutError`` after ``ALARM_S`` seconds
    instead of letting a walk that never ends hang the suite (SIGALRM,
    delivered to the main thread, where pytest runs tests)."""

    def expired(signum, frame):
        raise TimeoutError(f"test ran past its {ALARM_S} s alarm")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: An edge list whose largest id asks ``CSRGraph.from_edges`` for a
#: 3,000,000,002-entry (22.4 GiB) row index.
HUGE_ID_EDGE_LIST = "0 3000000000\n"


@pytest.fixture
def refuse_huge_arrays(monkeypatch):
    """``np.zeros`` of more than 2**31 elements raises ``MemoryError``,
    as numpy does when the allocation fails, and never attempts it."""
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=np.float64) > 2**31:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)


def to_networkx(graph: CSRGraph):
    """Convert to networkx for oracle comparisons (tests only)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(graph.num_vertices))
    src, dst, w = graph.edge_array()
    for u, v, ww in zip(src.tolist(), dst.tolist(), w.tolist()):
        G.add_edge(u, v, weight=ww)
    return G


def run_in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run *code* with ``python -c`` in a new interpreter that imports
    this checkout's ``repro``: what ``sys.modules`` holds there depends
    only on what *code* imports."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


#: Header of a sealed file: magic, schema version, payload CRC32, length.
SEAL_HEADER = struct.Struct("<8sIIQ")


def reseal(path: Path, payload: bytes) -> None:
    """Replace the payload of the sealed file (checkpoint or cache entry)
    at *path*, keeping its magic and version and writing a valid CRC —
    the damage a reader must catch past the header checks."""
    magic, version, _, _ = SEAL_HEADER.unpack_from(path.read_bytes())
    header = SEAL_HEADER.pack(magic, version, zlib.crc32(payload), len(payload))
    path.write_bytes(header + payload)


def reseal_meta(path: Path, meta) -> None:
    """Rewrite the sealed file at *path* with its arrays kept and its
    JSON meta blob replaced by *meta* (any JSON value)."""
    payload = path.read_bytes()[SEAL_HEADER.size :]
    with np.load(io.BytesIO(payload)) as data:
        arrays = {name: data[name] for name in data.files if name != "meta_json"}
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays, meta_json=blob)
    reseal(path, buf.getvalue())


#: A shape no host can allocate as int64 (256 TiB, past a 47-bit user
#: address space): a reader that trusts an npy header fails at once
#: rather than mapping the array lazily.
UNALLOCATABLE = (2**45,)


def rewrite_npz(archive: bytes, *, claim=None, compress: bool = False) -> bytes:
    """The npz *archive* rewritten with its members' data kept.

    ``claim=(name, shape)`` gives member *name* an npy header declaring
    *shape* over its original bytes; ``compress`` deflates every member.
    """
    buf = io.BytesIO()
    compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with np.load(io.BytesIO(archive)) as data, zipfile.ZipFile(
        buf, "w", compression
    ) as out:
        for name in data.files:
            array = data[name]
            npy = io.BytesIO()
            if claim is not None and name == claim[0]:
                header = {
                    "descr": np.lib.format.dtype_to_descr(array.dtype),
                    "fortran_order": False,
                    "shape": claim[1],
                }
                np.lib.format.write_array_header_1_0(npy, header)
                npy.write(array.tobytes())
            else:
                np.save(npy, array)
            out.writestr(f"{name}.npy", npy.getvalue())
    return buf.getvalue()


def reseal_members(path: Path, *, claim=None, compress: bool = False) -> None:
    """Rewrite the sealed file at *path* with its members' data kept
    (:func:`rewrite_npz` says what *claim* and *compress* do)."""
    payload = path.read_bytes()[SEAL_HEADER.size :]
    reseal(path, rewrite_npz(payload, claim=claim, compress=compress))


def forge_graph_npz(path: Path) -> None:
    """Rewrite the :func:`~repro.graph.npz.save_npz` archive at *path*,
    deflated as it writes it, with a ``format_version`` member whose npy
    header declares :data:`UNALLOCATABLE`."""
    path.write_bytes(rewrite_npz(
        path.read_bytes(), claim=("format_version", UNALLOCATABLE), compress=True
    ))
