"""Wire protocol of the reorder service: newline-delimited JSON.

One request or response per line, UTF-8 JSON objects, ``\\n``-terminated
— trivially debuggable with ``nc``/``socat`` and language-agnostic.  The
same frames travel over TCP and unix sockets.

Requests
--------
::

    {"op": "reorder", "id": "r1", "tenant": "team-a",
     "graph": {"edges": [[0, 1], [1, 2, 0.5]], "num_vertices": 3}}
    {"op": "reorder", "id": "r2", "graph": {"edges_b64": "AAAA...AAA="}}
    {"op": "reorder", "id": "r3", "graph_path": "/data/g.npz"}
    {"op": "analyze", "id": "r4", "analysis": "pagerank", "graph_path": ...}
    {"op": "status", "id": "r5"}

``id`` is an opaque client token echoed back verbatim (responses on one
connection arrive in request order, but clients that pipeline still get
unambiguous matching).  ``tenant`` defaults to ``"default"`` and selects
the token bucket the request is charged to.  Graphs arrive either inline
(``graph``, symmetrised exactly like
:meth:`~repro.graph.csr.CSRGraph.from_edges`) or by reference
(``graph_path``: any format the CLI reads — ``.npz``/``.graph``/
``.mtx``/edge list — which must be readable by the *server* process).

An inline graph carries its edges in one of two forms:

* ``edges``: a JSON list of ``[u, v]`` or ``[u, v, w]``; the only form
  for weighted edges, and the one a JSON-only client (``nc``) writes.
* ``edges_b64``: base64 (standard alphabet, ``=`` padding) of the
  little-endian int64 ``(u, v)`` pairs, 16 bytes or 21⅓ characters per
  edge; :func:`pack_edges` writes it, and the daemon reads it with
  ``np.frombuffer``, with no per-edge loop.  A field that is not a
  string, text with a character outside the alphabet or with ``=``
  padding missing, misplaced or in excess, a byte count that is not a
  multiple of 16, a negative id, or a graph carrying both ``edges`` and
  ``edges_b64`` is a 400.

Both forms of the same edges build the same CSR, so they share one
fingerprint, one cache entry and one permutation.  An inline graph may
have at most :data:`MAX_INLINE_VERTICES` vertices (``num_vertices`` or
the largest id plus one, whichever is larger), whatever the op and
``include_permutation``.  A larger one is a 400, refused before anything
of its size is allocated; pass it by ``graph_path``.

Responses
---------
Success: ``{"ok": true, "id": ..., ...op-specific fields}``.  Failure::

    {"ok": false, "id": ..., "error": {"code": 429, "kind": "quota",
     "message": "...", "retry_after_s": 0.12}}

``code`` follows HTTP semantics so clients can triage generically:
``400`` malformed request, ``404`` unknown op/analysis, ``413`` response
over the line ceiling (the permutation of a ``graph_path`` graph of more
than about :data:`MAX_INLINE_VERTICES` vertices: retry with
``include_permutation: false``), ``429`` quota rejection (with
``retry_after_s``),
``500`` internal failure, ``503`` draining (the daemon is shutting down
and no longer accepts work).
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.errors import GraphFormatError, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_INLINE_VERTICES",
    "OPS",
    "ANALYSES",
    "encode_message",
    "decode_message",
    "parse_request",
    "build_graph",
    "pack_edges",
    "ok_response",
    "error_response",
    "BAD_REQUEST",
    "NOT_FOUND",
    "RESPONSE_TOO_LARGE",
    "QUOTA_EXCEEDED",
    "INTERNAL_ERROR",
    "DRAINING",
]

PROTOCOL_VERSION = 1

#: Hard per-line ceiling (requests and responses): a graph bigger than
#: this must be passed by ``graph_path``, not inline.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Most vertices an inline graph may have, for every op.  A ``reorder``
#: reply carries one id per vertex, and ids below this bound take at most
#: 8 bytes each with their comma, so this is about the most one reply line
#: can hold.  No frame under the ceiling gives an edge to more than about
#: 7.6 million vertices (``[0,1],[2,3],...``), so a larger inline graph
#: has at least 800,000 vertices with no edge; an ``analyze`` of one, or a
#: ``reorder`` with ``include_permutation: false``, is refused as well.
MAX_INLINE_VERTICES = MAX_LINE_BYTES // 8

#: Operations the daemon accepts.
OPS = ("reorder", "analyze", "status")

#: Analyses the ``analyze`` op can run on the reordered graph.
ANALYSES = ("pagerank", "bfs", "components")

# HTTP-style error codes.
BAD_REQUEST = 400
NOT_FOUND = 404
RESPONSE_TOO_LARGE = 413
QUOTA_EXCEEDED = 429
INTERNAL_ERROR = 500
DRAINING = 503


def encode_message(message: dict[str, Any]) -> bytes:
    """Render one protocol frame: compact JSON plus the line terminator."""
    try:
        line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serialisable: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"encoded message is {len(data)} bytes, over the "
            f"{MAX_LINE_BYTES}-byte line ceiling; pass large graphs by "
            "graph_path instead of inline"
        )
    return data


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; anything but a JSON object is a
    :class:`~repro.errors.ProtocolError`."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"line of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte ceiling"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_request(message: dict[str, Any]) -> dict[str, Any]:
    """Validate the request envelope (op, analysis, id, tenant); returns
    *message*.  An op or analysis the daemon does not serve raises a 404
    :class:`~repro.errors.ProtocolError`, any other fault a 400.

    Field-level validation of graph payloads happens in
    :func:`build_graph` so the daemon can charge the quota *before*
    doing any expensive parsing.
    """
    op = message.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            f"unknown or missing op: unknown op {op!r}; expected one of "
            f"{', '.join(OPS)}",
            code=NOT_FOUND, kind="unknown-op",
        )
    if op == "analyze":
        analysis = message.get("analysis")
        if not isinstance(analysis, str) or analysis not in ANALYSES:
            raise ProtocolError(
                f"unknown or missing analysis {analysis!r}; expected one of "
                f"{', '.join(ANALYSES)}",
                code=NOT_FOUND, kind="unknown-analysis",
            )
    req_id = message.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise ProtocolError(f"request id must be a string or int, got {req_id!r}")
    tenant = message.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
    return message


def build_graph(message: dict[str, Any]):
    """Materialise the request's graph (inline edges or ``graph_path``).

    This performs file IO for ``graph_path`` payloads — the daemon calls
    it through its blocking-work executor, never on the event loop.
    """
    inline = message.get("graph")
    path = message.get("graph_path")
    if (inline is None) == (path is None):
        raise ProtocolError(
            "request must carry exactly one of 'graph' (inline edges) or "
            "'graph_path' (server-readable file)"
        )
    if path is not None:
        if not isinstance(path, str):
            raise ProtocolError(f"graph_path must be a string, got {path!r}")
        from repro.graph.io import read_graph

        try:
            return read_graph(path)
        except (OSError, GraphFormatError) as exc:
            raise ProtocolError(f"cannot load graph_path {path!r}: {exc}") from exc
    if not isinstance(inline, dict):
        raise ProtocolError(
            f"inline graph must be an object, got {type(inline).__name__}"
        )
    if "edges_b64" in inline:
        if "edges" in inline:
            raise ProtocolError(
                "inline graph carries both 'edges' and 'edges_b64'; send one"
            )
        pairs = _unpack_edges(inline["edges_b64"])
        src, dst, weights = pairs[:, 0], pairs[:, 1], None
    else:
        src, dst, weights = _list_edges(inline.get("edges"))
    return _inline_csr(src, dst, weights, inline.get("num_vertices"))


def pack_edges(pairs) -> str:
    """The ``edges_b64`` text of *pairs*, an ``(m, 2)`` integer array (or
    anything ``np.asarray`` turns into one) whose ids fit int64: base64
    of the little-endian int64 pairs, 21⅓ characters per edge."""
    arr = np.asarray(pairs)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ProtocolError(
            f"pack_edges needs an (m, 2) integer array, got shape "
            f"{arr.shape} of {arr.dtype}"
        )
    if arr.size and arr.max() > np.iinfo(np.int64).max:  # uint64 would wrap
        raise ProtocolError(
            f"pack_edges needs ids that fit int64, got {int(arr.max())}"
        )
    return base64.b64encode(arr.astype("<i8", copy=False).tobytes()).decode("ascii")


def _unpack_edges(text: Any) -> np.ndarray:
    """The ``(m, 2)`` pairs of an ``edges_b64`` field, read in place."""
    if not isinstance(text, str):
        raise ProtocolError(
            f"edges_b64 must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ProtocolError(f"edges_b64 is not base64: {exc}") from exc
    if len(text) != -(-len(raw) // 3) * 4:
        # validate=True still takes '=' after a whole 4-character group.
        raise ProtocolError("edges_b64 is not base64: excess '=' padding")
    if len(raw) % 16:
        raise ProtocolError(
            f"edges_b64 holds {len(raw)} bytes, not a whole number of "
            "16-byte (u, v) pairs"
        )
    # Negative ids are refused by from_edges, before anything n-sized.
    return np.frombuffer(raw, dtype="<i8").reshape(-1, 2)


def _list_edges(edges: Any) -> tuple[list[int], list[int], list[float] | None]:
    """``(src, dst, weights)`` of an ``edges`` list; ``weights`` is
    ``None`` unless some edge carries one."""
    if not isinstance(edges, list):
        raise ProtocolError("inline graph needs 'edges': a list of [u, v] or [u, v, w]")
    src: list[int] = []
    dst: list[int] = []
    weights: list[float] = []
    weighted = False
    for i, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise ProtocolError(
                f"edges[{i}]: expected [u, v] or [u, v, w], got {edge!r}"
            )
        u, v = edge[0], edge[1]
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise ProtocolError(
                f"edges[{i}]: endpoints must be non-negative ints, got {edge!r}"
            )
        src.append(u)
        dst.append(v)
        if len(edge) == 3:
            weighted = True
            if not isinstance(edge[2], (int, float)) or isinstance(edge[2], bool):
                raise ProtocolError(
                    f"edges[{i}]: weight must be a number, got {edge[2]!r}"
                )
            weights.append(float(edge[2]))
        else:
            weights.append(1.0)
    return src, dst, weights if weighted else None


def _inline_csr(src, dst, weights, num_vertices: Any):
    """The tail both edge forms share: ``num_vertices`` and the vertex
    bound, then ``CSRGraph.from_edges(..., symmetrize=True)``."""
    # Local import: protocol stays importable without the full graph
    # stack for lightweight clients.
    from repro.graph.csr import CSRGraph

    if num_vertices is not None and (
        not isinstance(num_vertices, int) or num_vertices < 0
    ):
        raise ProtocolError(
            f"num_vertices must be a non-negative int, got {num_vertices!r}"
        )
    src, dst = np.asarray(src), np.asarray(dst)
    n = num_vertices or 0
    if src.size:  # not max(initial=-1): ids past int64 may make a uint64 array
        n = max(n, int(src.max()) + 1, int(dst.max()) + 1)
    if n > MAX_INLINE_VERTICES:
        raise ProtocolError(
            f"inline graph has {n} vertices, over the {MAX_INLINE_VERTICES}"
            "-vertex bound of an inline graph (about the most ids one reply "
            "line can carry); pass it by graph_path"
        )
    try:
        return CSRGraph.from_edges(
            src, dst, weights=weights, num_vertices=num_vertices, symmetrize=True
        )
    except GraphFormatError as exc:
        raise ProtocolError(f"inline graph is malformed: {exc}") from exc


def ok_response(req_id: Any, **fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True, "id": req_id}
    response.update(fields)
    return response


def error_response(
    req_id: Any, code: int, kind: str, message: str, **extra: Any
) -> dict[str, Any]:
    error: dict[str, Any] = {"code": int(code), "kind": kind, "message": message}
    error.update(extra)
    return {"ok": False, "id": req_id, "error": error}
