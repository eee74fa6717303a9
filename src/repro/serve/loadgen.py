"""Load generator + latency suite for the reorder daemon.

Hosts an in-process daemon (:class:`~repro.serve.daemon.ServerThread`
on a unix socket in a temp directory) and drives the three request
regimes whose latency profiles the service exists to separate:

* **cold-miss** — every request is a previously-unseen graph: full
  admission → fingerprint → supervised detection → store pipeline;
* **warm-hit** — one primed graph requested repeatedly: the O(1)
  content-addressed cache path;
* **coalesced** — per round, several clients fire the *same* unseen
  graph concurrently: one detection fans out to all waiters.

Each regime becomes one result cell of the ``serve`` bench suite
(``BENCH_serve.json``, schema v2): per-request latency percentiles
(p50/p95/p99) in ``percentiles.latency_s``, the ``serve.*`` counter
deltas (hits, misses, coalesced, compute runs), and the deterministic
locality of the returned ordering.  Because the daemon is in-process,
counters land in the same metrics registry the bench runner snapshots.
"""

from __future__ import annotations

import concurrent.futures
import tempfile
import time
from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators.rmat import rmat_graph
from repro.metrics.locality import average_neighbor_gap
from repro.obs.metrics import counter_delta, get_registry
from repro.serve.client import ServeClient
from repro.serve.daemon import ServerConfig, ServerThread

__all__ = ["run_serve_suite", "LOADGEN_SCALE", "LOADGEN_EDGE_FACTOR"]

#: Workload shape: small R-MATs so the suite is CI-sized; the regimes
#: differ by cache behaviour, not graph size.
LOADGEN_SCALE = 6
LOADGEN_EDGE_FACTOR = 4.0

_COLD_REQUESTS = 6
_WARM_REQUESTS = 12
_COALESCE_ROUNDS = 2
_COALESCE_CLIENTS = 4


def _workload_graph(seed: int) -> CSRGraph:
    return rmat_graph(LOADGEN_SCALE, LOADGEN_EDGE_FACTOR, rng=seed)


def _inline_edges(graph: CSRGraph) -> np.ndarray:
    """The ``(m, 2)`` int64 edges a client sends, packed, for *graph*."""
    src, dst, _ = graph.edge_array()
    mask = src <= dst  # one entry per undirected edge; from_edges symmetrises
    return np.stack([src[mask], dst[mask]], axis=1)


def _request_once(
    unix_path: str, edges: np.ndarray, num_vertices: int
) -> tuple[float, list[int]]:
    """One connect→reorder→close round trip; returns (latency_s, perm)."""
    t0 = time.perf_counter()
    with ServeClient(unix_path=unix_path, tenant="loadgen") as client:
        perm = client.reorder(edges=edges, num_vertices=num_vertices)
    return time.perf_counter() - t0, perm


def _cell(
    scenario: str,
    graph: CSRGraph,
    permutation: list[int],
    latencies: list[float],
    counters: dict[str, float],
    repeats: int,
) -> dict[str, Any]:
    # Lazy import: repro.obs.bench registers the serve suite whose runner
    # imports this module — module-level would be an import cycle.
    from repro.obs.bench import percentile_summary

    pct = percentile_summary(latencies)
    reordered = graph.permute(np.asarray(permutation, dtype=np.int64))
    return {
        "graph": f"rmat-s{LOADGEN_SCALE}",
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_undirected_edges),
        "ordering": scenario,
        "repeats": int(repeats),
        "phases": {
            "reorder_s": pct["p50"],
            "analysis_s": {"rpc": pct["p50"]},
            "analysis_total_s": pct["p50"],
        },
        "total_s": float(sum(latencies)),
        "spans": {},
        "locality": {
            "average_neighbor_gap": float(average_neighbor_gap(reordered)),
        },
        "counters": counters,
        "percentiles": {"latency_s": pct},
    }


def run_serve_suite(repeats: int = 1) -> list[dict[str, Any]]:
    """Run the three regimes against a fresh in-process daemon; returns
    the schema-valid ``results`` list of the ``serve`` bench suite."""
    repeats = max(1, int(repeats))
    registry = get_registry()
    results: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        unix_path = f"{tmp}/daemon.sock"
        config = ServerConfig(
            unix_path=unix_path,
            cache_dir=f"{tmp}/cache",
            ladder_spec="fastseq,dict",
        )
        with ServerThread(config):
            # -- cold-miss: every request a distinct unseen graph -------
            latencies: list[float] = []
            before = registry.counter_values("serve.")
            last_graph = _workload_graph(0)
            last_perm: list[int] = []
            for i in range(_COLD_REQUESTS * repeats):
                graph = _workload_graph(1000 + i)
                lat, perm = _request_once(
                    unix_path, _inline_edges(graph), graph.num_vertices
                )
                latencies.append(lat)
                last_graph, last_perm = graph, perm
            results.append(_cell(
                "cold-miss", last_graph, last_perm, latencies,
                counter_delta(before, registry.counter_values("serve.")),
                repeats,
            ))

            # -- warm-hit: one primed graph, repeated -------------------
            warm_graph = _workload_graph(42)
            warm_edges = _inline_edges(warm_graph)
            _request_once(unix_path, warm_edges, warm_graph.num_vertices)  # prime
            latencies = []
            before = registry.counter_values("serve.")
            for _ in range(_WARM_REQUESTS * repeats):
                lat, perm = _request_once(
                    unix_path, warm_edges, warm_graph.num_vertices
                )
                latencies.append(lat)
            results.append(_cell(
                "warm-hit", warm_graph, perm, latencies,
                counter_delta(before, registry.counter_values("serve.")),
                repeats,
            ))

            # -- coalesced: concurrent clients on the same unseen graph -
            latencies = []
            before = registry.counter_values("serve.")
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=_COALESCE_CLIENTS
            ) as pool:
                for round_index in range(_COALESCE_ROUNDS * repeats):
                    graph = _workload_graph(5000 + round_index)
                    edges = _inline_edges(graph)
                    futures = [
                        pool.submit(
                            _request_once, unix_path, edges, graph.num_vertices
                        )
                        for _ in range(_COALESCE_CLIENTS)
                    ]
                    for future in futures:
                        lat, perm = future.result()
                        latencies.append(lat)
            results.append(_cell(
                "coalesced", graph, perm, latencies,
                counter_delta(before, registry.counter_values("serve.")),
                repeats,
            ))
    return results
