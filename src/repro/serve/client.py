"""Synchronous client for the reorder daemon.

Deliberately boring: one socket, blocking line IO, no asyncio — the
common consumer is a script or a test that wants a permutation, not an
event loop.  Speaks the protocol of :mod:`repro.serve.protocol` over a
unix socket or TCP, raising the matching :mod:`repro.errors` class for
error responses (:class:`~repro.errors.QuotaExceededError` for 429s,
:class:`~repro.errors.ServeError` otherwise).

::

    with ServeClient(unix_path="/run/reorder.sock", tenant="team-a") as c:
        perm = c.reorder(edges=[(0, 1), (1, 2)])
        stats = c.status()

Inline edges that are integer pairs (a list, a tuple, a generator or an
integer ``(m, 2)`` ndarray) travel packed
(:func:`~repro.serve.protocol.pack_edges`, 21⅓ bytes per edge), which
the daemon decodes with no per-edge loop.  Weighted or malformed edges
go as the JSON edge list, so the daemon's per-edge error names the
faulty edge.  So do ids past int64 (the daemon refuses them as over
its vertex bound), and pairs whose packed frame would pass the line
ceiling: the list takes about 10 bytes per edge when ids are under
10⁴, so it may still fit.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ProtocolError, QuotaExceededError, ServeError
from repro.serve import protocol

__all__ = ["ServeClient"]


def _integer_pairs(edges: Sequence[Any] | np.ndarray) -> np.ndarray | None:
    """*edges* as one ``(m, 2)`` integer array when every edge is a pair
    of integers in ``[0, 2**63)``, else ``None``."""
    try:
        pairs = np.asarray(edges)
    except (TypeError, ValueError):  # ragged: some edge is not a pair
        return None
    if (
        pairs.ndim != 2
        or pairs.shape[1] != 2
        or pairs.dtype.kind not in "iu"
        or (pairs.size and (pairs.min() < 0 or pairs.max() > np.iinfo(np.int64).max))
    ):
        return None
    return pairs


class ServeClient:
    """One connection to a reorder daemon.  Not thread-safe (requests on
    one connection are serialised by the protocol); open one client per
    thread."""

    def __init__(
        self,
        *,
        unix_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        tenant: str = "default",
        timeout_s: float = 60.0,
    ):
        if (unix_path is None) == (host is None):
            raise ServeError(
                "client needs exactly one of unix_path or host/port"
            )
        self.tenant = tenant
        if unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            try:
                self._sock.connect(unix_path)
            except OSError as exc:
                self._sock.close()
                raise ServeError(
                    f"cannot connect to daemon at {unix_path}: {exc}"
                ) from exc
        else:
            if port is None:
                raise ServeError("TCP client needs a port")
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout_s
                )
            except OSError as exc:
                raise ServeError(
                    f"cannot connect to daemon at {host}:{port}: {exc}"
                ) from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- transport -------------------------------------------------------
    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request, return the raw response object (``ok`` true
        or false — no exception mapping; the convenience wrappers below
        do that)."""
        return self._exchange(*self._encode(op, fields))

    def _encode(self, op: str, fields: dict[str, Any]) -> tuple[int, bytes]:
        """A fresh request id and its frame; raises ``ProtocolError``,
        before anything is sent, for a frame over the line ceiling."""
        self._next_id += 1
        message: dict[str, Any] = {
            "op": op, "id": self._next_id, "tenant": self.tenant,
        }
        message.update(fields)
        return self._next_id, protocol.encode_message(message)

    def _exchange(self, req_id: int, frame: bytes) -> dict[str, Any]:
        try:
            self._file.write(frame)
            self._file.flush()
            line = self._file.readline(protocol.MAX_LINE_BYTES + 2)
        except OSError as exc:
            raise ServeError(f"daemon connection failed: {exc}") from exc
        if not line:
            raise ServeError("daemon closed the connection mid-request")
        response = protocol.decode_message(line)
        if response.get("id") != req_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {req_id}"
            )
        return response

    @staticmethod
    def _checked(response: dict[str, Any]) -> dict[str, Any]:
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        code = error.get("code")
        message = error.get("message", json.dumps(error))
        if code == protocol.QUOTA_EXCEEDED:
            raise QuotaExceededError(
                message, retry_after_s=float(error.get("retry_after_s", 0.0))
            )
        raise ServeError(f"daemon error {code}: {message}")

    # -- convenience verbs -----------------------------------------------
    def _graph_request(
        self,
        op: str,
        edges: Iterable[Sequence[float]] | np.ndarray | None,
        num_vertices: int | None,
        graph_path: str | None,
        **fields: Any,
    ) -> dict[str, Any]:
        """One ``reorder``/``analyze`` round trip, the graph in the wire
        form the module docstring describes."""
        if (edges is None) == (graph_path is None):
            raise ServeError("pass exactly one of edges= or graph_path=")
        if graph_path is not None:
            return self._checked(self.request(op, graph_path=graph_path, **fields))
        graph: dict[str, Any] = {}
        if num_vertices is not None:
            graph["num_vertices"] = num_vertices
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)  # a generator is read once
        pairs = _integer_pairs(edges)
        frame = None
        if pairs is not None:
            packed = {**graph, "edges_b64": protocol.pack_edges(pairs)}
            try:
                frame = self._encode(op, {"graph": packed, **fields})
            except ProtocolError:
                # Over the line ceiling: with small ids the list form
                # takes about half the bytes, so it may still fit.
                edges = pairs.tolist()
        if frame is None:
            if isinstance(edges, np.ndarray):
                edges = edges.tolist()  # numpy integers are not JSON
            graph["edges"] = [list(e) for e in edges]
            frame = self._encode(op, {"graph": graph, **fields})
        return self._checked(self._exchange(*frame))

    def reorder(
        self,
        *,
        edges: Iterable[Sequence[float]] | np.ndarray | None = None,
        num_vertices: int | None = None,
        graph_path: str | None = None,
        full_response: bool = False,
    ):
        """Request the Rabbit Order permutation of a graph.

        Returns the permutation as a list of ints (``perm[old] = new``),
        or the whole response object when *full_response* (which carries
        ``cache``: ``memory``/``disk``/``computed``/``coalesced``)."""
        response = self._graph_request("reorder", edges, num_vertices, graph_path)
        return response if full_response else response["permutation"]

    def analyze(
        self,
        analysis: str,
        *,
        edges: Iterable[Sequence[float]] | np.ndarray | None = None,
        num_vertices: int | None = None,
        graph_path: str | None = None,
        include_permutation: bool = False,
    ) -> dict[str, Any]:
        """Reorder (through the cache) and run *analysis* on the
        reordered graph; returns the full response object."""
        return self._graph_request(
            "analyze", edges, num_vertices, graph_path,
            analysis=analysis, include_permutation=include_permutation,
        )

    def status(self) -> dict[str, Any]:
        """Daemon status: uptime, cache stats, counters, drain state."""
        return self._checked(self.request("status"))

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
