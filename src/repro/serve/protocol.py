"""Wire protocol of the reorder service: newline-delimited JSON.

One request or response per line, UTF-8 JSON objects, ``\\n``-terminated
— trivially debuggable with ``nc``/``socat`` and language-agnostic.  The
same frames travel over TCP and unix sockets.

Requests
--------
::

    {"op": "reorder", "id": "r1", "tenant": "team-a",
     "graph": {"edges": [[0, 1], [1, 2, 0.5]], "num_vertices": 3}}
    {"op": "reorder", "id": "r2", "graph_path": "/data/g.npz"}
    {"op": "analyze", "id": "r3", "analysis": "pagerank", "graph_path": ...}
    {"op": "status", "id": "r4"}

``id`` is an opaque client token echoed back verbatim (responses on one
connection arrive in request order, but clients that pipeline still get
unambiguous matching).  ``tenant`` defaults to ``"default"`` and selects
the token bucket the request is charged to.  Graphs arrive either inline
(``graph``: an edge list, symmetrised exactly like
:meth:`~repro.graph.csr.CSRGraph.from_edges`) or by reference
(``graph_path``: any format the CLI reads — ``.npz``/``.graph``/
``.mtx``/edge list — which must be readable by the *server* process).

Responses
---------
Success: ``{"ok": true, "id": ..., ...op-specific fields}``.  Failure::

    {"ok": false, "id": ..., "error": {"code": 429, "kind": "quota",
     "message": "...", "retry_after_s": 0.12}}

``code`` follows HTTP semantics so clients can triage generically:
``400`` malformed request, ``404`` unknown op/analysis, ``413`` response
over the line ceiling (retry with ``include_permutation: false`` or a
smaller graph), ``429`` quota rejection (with ``retry_after_s``),
``500`` internal failure, ``503`` draining (the daemon is shutting down
and no longer accepts work).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ANALYSES",
    "encode_message",
    "decode_message",
    "parse_request",
    "build_graph",
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
    # Local import: protocol stays importable without the full graph
    # stack for lightweight clients.
    from repro.graph.csr import CSRGraph

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
        from repro.errors import GraphFormatError
        from repro.graph.io import read_graph

        try:
            return read_graph(path)
        except (OSError, GraphFormatError) as exc:
            raise ProtocolError(f"cannot load graph_path {path!r}: {exc}") from exc
    if not isinstance(inline, dict):
        raise ProtocolError(
            f"inline graph must be an object, got {type(inline).__name__}"
        )
    edges = inline.get("edges")
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
    num_vertices = inline.get("num_vertices")
    if num_vertices is not None and (
        not isinstance(num_vertices, int) or num_vertices < 0
    ):
        raise ProtocolError(
            f"num_vertices must be a non-negative int, got {num_vertices!r}"
        )
    from repro.errors import GraphFormatError

    try:
        return CSRGraph.from_edges(
            src,
            dst,
            weights=weights if weighted else None,
            num_vertices=num_vertices,
            symmetrize=True,
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
