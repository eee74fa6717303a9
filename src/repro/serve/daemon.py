"""The reorder daemon: asyncio server with cache, coalescing, quotas.

Request lifecycle for ``reorder``/``analyze``::

    admission (drain check, tenant token bucket)
      └─ graph materialisation        (executor: file IO / edge parsing)
      └─ fingerprint → cache lookup   (executor: disk tier IO)
           ├─ hit  → answer in O(1)
           └─ miss → coalesce on the fingerprint key:
                ├─ first arrival computes via supervised_rabbit_order
                │  (budgets + degradation ladder) and stores the result
                └─ every concurrent duplicate awaits the same future —
                   one detection run fans out to all waiters

Everything blocking (graph loading, cache IO, community detection)
runs through a bounded thread-pool executor; the event loop itself only
shuffles frames, so thousands of idle connections are cheap and a
``status`` probe stays responsive while a big graph is being reordered.
The daemon listens on a unix socket and/or TCP; both speak the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.

Shutdown is a *graceful drain*: SIGTERM/SIGINT stop the listeners and
flip the daemon into draining mode — new work is rejected with a 503
(``kind="draining"``) while requests already in flight run to
completion (bounded by ``drain_timeout_s``).
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ProtocolError, QuotaExceededError, ReproError, ServeError
from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
from repro.obs.metrics import get_registry
from repro.serve import protocol
from repro.serve.cache import PermutationCache
from repro.serve.quotas import TokenBucketQuotas

__all__ = ["ServerConfig", "ReorderServer", "ServerThread", "run_server"]


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`ReorderServer` needs, as pure data."""

    #: unix-socket path; ``None`` disables the unix listener.
    unix_path: str | None = None
    #: TCP bind host; ``None`` disables the TCP listener.
    host: str | None = None
    port: int = 0
    #: disk tier directory; ``None`` = memory-only cache.
    cache_dir: str | None = None
    cache_memory_entries: int = 128
    cache_disk_entries: int = 1024
    #: quota spec as accepted by :meth:`TokenBucketQuotas.from_spec`.
    quotas: dict[str, Any] | None = None
    #: degradation ladder for cache misses; every rung computes the same
    #: permutation, so cached entries never depend on the rung.
    ladder_spec: str = "fastseq,dict"
    #: per-attempt wall-clock budget for supervised runs (None = unlimited).
    time_budget_s: float | None = None
    merge_threshold: float = 0.0
    #: blocking-work executor width (also bounds concurrent detections).
    compute_workers: int = 4
    #: how long shutdown waits for in-flight requests before giving up.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.unix_path is None and self.host is None:
            raise ServeError("server needs a unix_path and/or a host to listen on")
        if self.compute_workers < 1:
            raise ServeError(
                f"compute_workers must be >= 1, got {self.compute_workers}"
            )
        if self.drain_timeout_s < 0:
            raise ServeError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        # Checked at boot: a bad budget would otherwise fail every cache
        # miss, and NaN compares false everywhere (a NaN budget never
        # trips, a NaN threshold merges every vertex).
        budget = self.time_budget_s
        if budget is not None and not 0 < budget < math.inf:
            raise ServeError(
                f"time_budget_s must be positive and finite, got {budget}"
            )
        if math.isnan(self.merge_threshold):
            raise ServeError("merge_threshold must be a number, got nan")


@dataclass
class _Inflight:
    """One coalesced computation: the future every waiter shares."""

    future: asyncio.Future
    waiters: int = 1
    meta: dict[str, Any] = field(default_factory=dict)


class ReorderServer:
    """See the module docstring.  Create, then :meth:`serve_until_stopped`
    (or drive :meth:`start`/:meth:`drain` yourself from an event loop)."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.cache = PermutationCache(
            config.cache_dir,
            memory_entries=config.cache_memory_entries,
            disk_entries=config.cache_disk_entries,
        )
        self.quotas = TokenBucketQuotas.from_spec(config.quotas)
        self._metrics = get_registry()
        self._executor = ThreadPoolExecutor(
            max_workers=config.compute_workers, thread_name_prefix="serve-compute"
        )
        self._inflight: dict[str, _Inflight] = {}
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stop = asyncio.Event()
        self._servers: list[asyncio.AbstractServer] = []
        self._started_at = time.monotonic()
        self.endpoints: list[str] = []

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the configured listeners (idempotent per server)."""
        self._started_at = time.monotonic()
        cfg = self.config
        if cfg.unix_path is not None:
            path = Path(cfg.unix_path)
            # A stale socket file from a crashed daemon would make bind
            # fail; an *active* one is a real conflict the bind reports.
            if path.exists():
                probe = asyncio.open_unix_connection(str(path))
                try:
                    _, writer = await asyncio.wait_for(probe, timeout=0.25)
                except (ConnectionError, asyncio.TimeoutError, OSError):
                    path.unlink(missing_ok=True)
                else:
                    writer.close()
                    raise ServeError(
                        f"another daemon is already listening on {path}"
                    )
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path),
                limit=protocol.MAX_LINE_BYTES,
            )
            self._servers.append(server)
            self.endpoints.append(f"unix:{path}")
        if cfg.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=cfg.host, port=cfg.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            self._servers.append(server)
            for sock in server.sockets:
                host, port = sock.getsockname()[:2]
                self.endpoints.append(f"tcp:{host}:{port}")
        self._metrics.counter("serve.started").inc()

    async def serve_until_stopped(self, *, install_signal_handlers: bool = False):
        """Run until :meth:`request_stop` (or SIGTERM/SIGINT when
        *install_signal_handlers*), then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_stop)
        try:
            await self._stop.wait()
        finally:
            if install_signal_handlers:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(sig)
            await self.drain()

    def request_stop(self) -> None:
        """Flip into draining mode and wake :meth:`serve_until_stopped`.
        Safe to call from a signal handler or another thread via
        ``loop.call_soon_threadsafe``."""
        self._draining = True
        self._stop.set()

    async def drain(self) -> None:
        """Stop listeners, wait (bounded) for in-flight work, shut down."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            self._metrics.counter("serve.drain.timeout").inc()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.config.unix_path is not None:
            Path(self.config.unix_path).unlink(missing_ok=True)
        self._metrics.counter("serve.stopped").inc()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._metrics.counter("serve.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        protocol.error_response(
                            None, protocol.BAD_REQUEST, "protocol",
                            f"request line over the {protocol.MAX_LINE_BYTES}"
                            "-byte ceiling",
                        ),
                    )
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                try:
                    await self._send(writer, response)
                except ProtocolError as exc:
                    # Response over the line ceiling (e.g. the permutation
                    # of a multi-million-vertex graph_path graph).  The
                    # error frame itself is small — tell the client instead
                    # of dropping the connection mid-request.
                    self._metrics.counter("serve.errors.response_too_large").inc()
                    await self._send(
                        writer,
                        protocol.error_response(
                            response.get("id"),
                            protocol.RESPONSE_TOO_LARGE,
                            "response-too-large",
                            str(exc),
                        ),
                    )
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        # JSON-encoding a permutation response can be tens of MB of work;
        # keep it off the event loop so status probes stay responsive.
        # Everything else (status, errors, analysis summaries) is tiny and
        # encodes inline — it must not queue behind busy compute threads.
        if "permutation" in message:
            loop = asyncio.get_running_loop()
            try:
                data = await loop.run_in_executor(
                    self._executor, protocol.encode_message, message
                )
            except RuntimeError:
                # Executor already shut down (connection outliving a
                # drain): encode inline rather than dropping the frame.
                data = protocol.encode_message(message)
        else:
            data = protocol.encode_message(message)
        writer.write(data)
        await writer.drain()

    async def _handle_line(self, line: bytes) -> dict[str, Any]:
        started = time.monotonic()
        op = "unknown"
        self._metrics.counter("serve.requests").inc()
        self._active_requests += 1
        self._idle.clear()
        try:
            message: dict[str, Any] = {}
            try:
                message = protocol.decode_message(line)
                request = protocol.parse_request(message)
            except ProtocolError as exc:
                return protocol.error_response(
                    message.get("id"), exc.code, exc.kind, str(exc)
                )
            op = request["op"]
            req_id = request.get("id")
            try:
                return await self._dispatch(op, request)
            except ProtocolError as exc:
                return protocol.error_response(
                    req_id, exc.code, exc.kind, str(exc)
                )
            except QuotaExceededError as exc:
                self._metrics.counter("serve.quota.rejected").inc()
                return protocol.error_response(
                    req_id, protocol.QUOTA_EXCEEDED, "quota", str(exc),
                    retry_after_s=exc.retry_after_s,
                )
            except ReproError as exc:
                self._metrics.counter("serve.errors.internal").inc()
                return protocol.error_response(
                    req_id, protocol.INTERNAL_ERROR, type(exc).__name__, str(exc)
                )
        finally:
            self._metrics.histogram(f"serve.latency.{op}_s").observe(
                time.monotonic() - started
            )
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()

    async def _dispatch(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        req_id = request.get("id")
        if op == "status":
            # Status is never drained and never charged: it is the probe
            # an operator uses to watch the drain itself.
            return protocol.ok_response(req_id, **self.status())
        if self._draining:
            self._metrics.counter("serve.draining.rejected").inc()
            return protocol.error_response(
                req_id, protocol.DRAINING, "draining",
                "daemon is draining and no longer accepts work",
            )
        self.quotas.check(request.get("tenant", "default"))
        loop = asyncio.get_running_loop()
        graph = await loop.run_in_executor(
            self._executor, protocol.build_graph, request
        )
        # Fingerprinting hashes every CSR byte — executor work, like
        # everything else that scales with graph size.
        fingerprint = await loop.run_in_executor(
            self._executor,
            lambda: graph_fingerprint(
                graph, merge_threshold=self.config.merge_threshold
            ),
        )
        key = fingerprint_key(fingerprint)
        permutation, source = await self._permutation_for(key, fingerprint, graph)
        fields: dict[str, Any] = {
            "key": key,
            "n": int(graph.num_vertices),
            "cache": source,
        }
        if op == "analyze":
            analysis = request["analysis"]
            summary = await loop.run_in_executor(
                self._executor, _run_analysis, analysis, graph, permutation
            )
            fields["analysis"] = analysis
            fields["result"] = summary
        if request.get("include_permutation", op == "reorder"):
            # ndarray → list[int] is O(n) and can take seconds for big
            # graphs; never do it on the event loop.
            fields["permutation"] = await loop.run_in_executor(
                self._executor, permutation.tolist
            )
        return protocol.ok_response(req_id, **fields)

    # -- the cache/coalesce/compute pipeline ------------------------------
    async def _permutation_for(
        self, key: str, fingerprint: dict[str, Any], graph
    ) -> tuple[np.ndarray, str]:
        """Resolve *key* to a permutation: cache hit, coalesced wait, or
        a fresh supervised computation.  Returns ``(perm, source)`` with
        ``source`` one of ``memory | disk | computed | coalesced``."""
        loop = asyncio.get_running_loop()
        hit = await loop.run_in_executor(self._executor, self.cache.get, key)
        if hit is not None:
            return hit[0], hit[1]
        existing = self._inflight.get(key)
        if existing is not None:
            # Coalesce: ride the computation already in flight.  shield()
            # keeps a cancelled waiter (dropped connection) from
            # cancelling the shared future under everyone else.
            existing.waiters += 1
            self._metrics.counter("serve.coalesced").inc()
            perm = await asyncio.shield(existing.future)
            return perm, "coalesced"
        entry = _Inflight(future=loop.create_future())
        self._inflight[key] = entry
        # The entry stays inflight until the result is *stored*, so a
        # request landing after compute but before the cache write still
        # coalesces instead of recomputing.
        try:
            try:
                perm = await loop.run_in_executor(
                    self._executor, self._compute_sync, graph
                )
            except BaseException as exc:
                if not entry.future.done():
                    entry.future.set_exception(exc)
                    # Every waiter gets the exception; if nobody else was
                    # waiting, mark it retrieved so the loop does not warn.
                    if entry.waiters == 1:
                        entry.future.exception()
                raise
            if not entry.future.done():
                entry.future.set_result(perm)
            await loop.run_in_executor(
                self._executor, self.cache.put, key, fingerprint, perm
            )
            return perm, "computed"
        finally:
            self._inflight.pop(key, None)

    def _compute_sync(self, graph) -> np.ndarray:
        """Blocking cache-miss path, runs on an executor thread."""
        # Lazy import: pulling the resilience stack at daemon-import time
        # would make lightweight clients pay for it.
        from repro.resilience.policy import Budgets, SupervisorPolicy, parse_ladder
        from repro.resilience.supervisor import supervised_rabbit_order

        policy = SupervisorPolicy(
            budgets=Budgets(time_s=self.config.time_budget_s),
            ladder=parse_ladder(self.config.ladder_spec),
        )
        self._metrics.counter("serve.compute.runs").inc()
        with self._metrics_span("serve.compute_s"):
            result, _report = supervised_rabbit_order(
                graph,
                policy=policy,
                merge_threshold=self.config.merge_threshold,
            )
        return np.ascontiguousarray(result.permutation, dtype=np.int64)

    def _metrics_span(self, name: str):
        metrics = self._metrics

        class _Span:
            def __enter__(self):
                self._t0 = time.monotonic()
                return self

            def __exit__(self, *exc_info):
                metrics.histogram(name).observe(time.monotonic() - self._t0)
                return False

        return _Span()

    # -- introspection ---------------------------------------------------
    def status(self) -> dict[str, Any]:
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining,
            "endpoints": list(self.endpoints),
            "inflight": len(self._inflight),
            "active_requests": self._active_requests,
            "cache": self.cache.stats(),
            "counters": self._metrics.counter_values("serve."),
        }


def _run_analysis(analysis: str, graph, permutation: np.ndarray) -> dict[str, Any]:
    """Run *analysis* on the reordered graph; blocking, executor-only.

    Returns a JSON-sized summary, never the full per-vertex arrays —
    the service exists to hand out *permutations*; analyses are a
    convenience for measuring their effect.
    """
    reordered = graph.permute(permutation)
    if analysis == "pagerank":
        from repro.analysis.pagerank import pagerank

        result = pagerank(
            reordered, max_iterations=200, raise_on_no_convergence=False
        )
        return {
            "iterations": int(result.iterations),
            "residual": float(result.residual),
            "converged": bool(result.converged),
            "top_score": float(result.scores.max()) if result.scores.size else 0.0,
        }
    if analysis == "bfs":
        from repro.analysis.traversal import bfs

        if reordered.num_vertices == 0:
            return {"reached": 0, "max_level": -1}
        result = bfs(reordered, 0)
        reached = int((result.level >= 0).sum())
        return {
            "reached": reached,
            "max_level": int(result.level.max()) if reached else -1,
        }
    if analysis == "components":
        from repro.analysis.components import connected_components

        result = connected_components(reordered)
        sizes = result.component_sizes()
        return {
            "num_components": int(result.num_components),
            "largest": int(sizes.max()) if sizes.size else 0,
        }
    raise ProtocolError(f"unknown analysis {analysis!r}")  # parse_request guards


class ServerThread:
    """A :class:`ReorderServer` on a background thread with its own event
    loop — the harness tests and the load generator use this to host an
    in-process daemon.  Use as a context manager::

        with ServerThread(ServerConfig(unix_path=...)) as server:
            ...  # server.endpoints is populated once __enter__ returns
    """

    def __init__(self, config: ServerConfig):
        self.server = ReorderServer(config)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind failures to __enter__
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server._stop.wait()
        await self.server.drain()

    def __enter__(self) -> ReorderServer:
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ServeError("server thread failed to start within 30s")
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=30.0)


def run_server(config: ServerConfig) -> int:
    """Blocking daemon entry point (the ``repro serve`` verb).

    Prints one ``listening on ...`` line once bound — scripts wait for
    it — then serves until SIGTERM/SIGINT and drains.
    """
    server = ReorderServer(config)

    async def _amain() -> None:
        await server.start()
        print(f"listening on {' '.join(server.endpoints)}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.request_stop)
        try:
            await server._stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            print("draining", flush=True)
            await server.drain()

    asyncio.run(_amain())
    return 0
