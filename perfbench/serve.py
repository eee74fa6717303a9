"""Client process of the serve-zipf workload.

``python3 perfbench/serve.py --dir DIR --seconds S --trace 0|1`` boots
``python -m repro serve`` in its own process (unix socket, disk cache
tier, a memory tier of ``CACHE_MEMORY`` entries, smaller than the
catalogue's popular set) and drives it from ``CONNECTIONS`` closed-loop
connections, each with one ``ServeClient.reorder(..., full_response=True)``
in flight, through the request sequence ``inputs.py`` drew from the
seed.  Every response must be ``ok`` and carry a bijection, identical
bit for bit to every other response for the same graph.

Untraced: the daemon is booted ``BOOTS`` times before the first round
(``setup_s`` is the median boot time, up to the ``listening`` line);
rounds, each on a fresh daemon and cache directory, repeat until ``S``
seconds have been spent in request phases.  Traced: an untraced round
as the overhead baseline, a round with a benchmark span per request
(one id per request), then an in-process replay of the daemon's public
steps on the same payloads, each timed per request.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import common

BOOTS = 5
CACHE_MEMORY = 8
CONNECTIONS = 2
MAX_ROUNDS = 4
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
TIERS = ("memory", "disk", "computed", "coalesced")


class Daemon:
    """One ``repro serve`` process on a unix socket in the work dir."""

    def __init__(self, tag: str):
        # Relative paths: the work dir is the cwd, and unix socket paths
        # are limited to ~100 bytes.
        self.sock = f"{tag}.sock"
        log = open(f"{tag}.log", "wb")
        start = common.clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.sock,
             "--cache-dir", f"{tag}-cache", "--cache-memory", str(CACHE_MEMORY)],
            stdout=subprocess.PIPE, stderr=log, env=common.child_env(),
        )
        log.close()
        try:
            self._wait_listening(start + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = common.clock() - start

    def _wait_listening(self, deadline: float) -> None:
        out = self.proc.stdout
        while True:
            left = deadline - common.clock()
            if left <= 0:
                raise TimeoutError("daemon did not print its listening line")
            ready, _, _ = select.select([out], [], [], left)
            if ready:
                line = out.readline()
                if not line:
                    raise RuntimeError(
                        f"daemon exited with code {self.proc.wait()} before listening")
                if line.startswith(b"listening on"):
                    return

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Workload:
    def __init__(self, workdir: Path, ops: common.Ops):
        spec = json.loads((workdir / "catalogue.json").read_text())
        self.graphs = spec["graphs"]
        self.requests = spec["requests"]
        self.ops = ops
        self.served: dict[int, np.ndarray] = {}
        # The catalogue's edge lists are ~10^6 long-lived objects; keep
        # the collector from walking them before every timed call.
        gc.collect()
        gc.freeze()

    def check(self, i: int, record) -> bool:
        """Request ``i``: no error, a bijection, equal to earlier responses
        for the same graph.  Counts as one operation."""
        idx = self.requests[i]
        _, response, error = record or (None, None, "connection thread died")
        if response is None:
            return self.ops.record(False, f"request {i}: {error}")
        perm = np.asarray(response.get("permutation"), dtype=np.int64)
        if not common.is_bijection(perm, self.graphs[idx]["n"]):
            return self.ops.record(False, f"request {i}: not a bijection")
        first = self.served.setdefault(idx, perm)
        return self.ops.record(
            np.array_equal(first, perm),
            f"request {i}: {response.get('cache')} permutation of graph {idx} "
            "differs from an earlier response")

    def round(self, tag: str) -> dict:
        """Boot a daemon, run the request sequence once, stop it."""
        from repro.obs.trace import span
        from repro.serve.client import ServeClient

        daemon = Daemon(tag)
        try:
            with ServeClient(unix_path=daemon.sock) as c:
                before = c.status()["counters"]
            records: list = [None] * len(self.requests)
            cursor = iter(range(len(self.requests)))
            lock = threading.Lock()

            def connection(conn: int) -> None:
                client = ServeClient(unix_path=daemon.sock,
                                     timeout_s=REQUEST_TIMEOUT_S)
                try:
                    while True:
                        with lock:
                            i = next(cursor, None)
                        if i is None:
                            return
                        g = self.graphs[self.requests[i]]
                        t0 = common.clock()
                        try:
                            with span("bench.request", request=i, connection=conn):
                                resp = client.reorder(
                                    edges=g["edges"], num_vertices=g["n"],
                                    full_response=True)
                            records[i] = (common.clock() - t0, resp, None)
                        except Exception as exc:  # error frame or timeout
                            records[i] = (common.clock() - t0, None, repr(exc))
                            client.close()
                            client = ServeClient(unix_path=daemon.sock,
                                                 timeout_s=REQUEST_TIMEOUT_S)
                finally:
                    client.close()

            gc.collect()
            threads = [threading.Thread(target=connection, args=(k,))
                       for k in range(CONNECTIONS)]
            start = common.clock()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = common.clock() - start
            with ServeClient(unix_path=daemon.sock) as c:
                after = c.status()["counters"]
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        latencies = {tier: [] for tier in TIERS}
        all_latencies = []
        for i, record in enumerate(records):
            if self.check(i, record):
                all_latencies.append(record[0])
                latencies.setdefault(record[1].get("cache"), []).append(record[0])
        counters = {k: after.get(k, 0) - before.get(k, 0)
                    for k in set(before) | set(after)}
        return {"boot_s": daemon.boot_s, "wall_s": wall, "rss_mb": rss,
                "latencies": all_latencies, "by_tier": latencies,
                "counters": counters}


def summarize(rounds: list[dict], boots: list[float]) -> tuple[dict, dict]:
    latencies = [t for r in rounds for t in r["latencies"]]
    computed = [t for r in rounds for t in r["by_tier"]["computed"]]
    n = len(rounds[0]["latencies"])
    counters: dict[str, int] = {}
    for r in rounds:
        for k, v in r["counters"].items():
            counters[k] = counters.get(k, 0) + v
    e2e = {
        "setup_s": common.median(boots),
        "reorder_s": common.median(computed),
        "query_p50_s": common.median(latencies),
        "end_to_end_s": common.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    extra = {
        "rounds": len(rounds),
        "requests_per_round": n,
        "boot_samples": boots,
        "request_p50_s": common.median(latencies),
        "request_p95_s": common.percentile(latencies, 95),
        "requests_beyond_p95": sum(
            t > common.percentile(latencies, 95) for t in latencies),
        "requests_per_s": common.median(n / r["wall_s"] for r in rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_p50_s": [common.median(r["latencies"]) for r in rounds],
        "responses_by_tier": {
            tier: sum(len(r["by_tier"][tier]) for r in rounds) for tier in TIERS},
        "counters": counters,
    }
    return e2e, extra


def untraced(work: Workload, seconds: float) -> dict:
    boots = []
    for k in range(BOOTS - 1):
        daemon = Daemon(f"boot{k}")
        boots.append(daemon.boot_s)
        daemon.stop()
    rounds = []
    start = common.clock()
    while True:
        rounds.append(work.round(f"round{len(rounds)}"))
        boots.append(rounds[-1]["boot_s"])
        if common.clock() - start >= seconds or len(rounds) >= MAX_ROUNDS:
            break
    e2e, extra = summarize(rounds, boots)
    return {"e2e": e2e, "extra": extra}


def replay(work: Workload) -> dict:
    """The daemon's public steps, in process, on the run's payloads."""
    from repro.graph.csr import CSRGraph
    from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
    from repro.obs import trace
    from repro.resilience.policy import Budgets, SupervisorPolicy, parse_ladder
    from repro.resilience.supervisor import supervised_rabbit_order
    from repro.serve import protocol
    from repro.serve.cache import PermutationCache
    from repro.serve.daemon import ServerConfig

    config = ServerConfig(unix_path="replay.sock")
    cache = PermutationCache("replay-cache", memory_entries=CACHE_MEMORY)
    steps = {k: [] for k in ("client_encode", "decode", "build_graph",
                             "csr_build", "fingerprint", "cache_get",
                             "cache_put", "compute", "encode")}
    shapes = []
    stats = []

    def step(name, fn, *args):
        out, seconds = common.timed(fn, *args)
        steps[name].append(seconds)
        return out

    with trace.capture() as cap:
        for i, idx in enumerate(work.requests):
            g = work.graphs[idx]
            line = step("client_encode", lambda: protocol.encode_message({
                "op": "reorder", "id": i, "tenant": "default",
                "graph": {"edges": [list(e) for e in g["edges"]],
                          "num_vertices": g["n"]}}))
            message = step("decode", lambda: protocol.parse_request(
                protocol.decode_message(line)))
            graph = step("build_graph", protocol.build_graph, message)
            edges = np.asarray(g["edges"], dtype=np.int64).reshape(-1, 2)
            step("csr_build", lambda: CSRGraph.from_edges(
                edges[:, 0], edges[:, 1], num_vertices=g["n"]))
            shapes.append((graph.num_edges, graph.indptr.nbytes
                           + graph.indices.nbytes))
            fp = step("fingerprint", lambda: graph_fingerprint(
                graph, merge_threshold=config.merge_threshold))
            key = fingerprint_key(fp)
            hit = step("cache_get", cache.get, key)
            if hit is None:
                policy = SupervisorPolicy(
                    budgets=Budgets(time_s=config.time_budget_s),
                    ladder=parse_ladder(config.ladder_spec))
                result, _ = step("compute", lambda: supervised_rabbit_order(
                    graph, policy=policy,
                    merge_threshold=config.merge_threshold))
                stats.append(result.stats)
                perm = np.ascontiguousarray(result.permutation, dtype=np.int64)
                step("cache_put", cache.put, key, fp, perm)
                tier = "computed"
            else:
                perm, tier = hit
            work.ops.record(
                idx in work.served and np.array_equal(work.served[idx], perm),
                f"graph {idx}: in-process replay differs from the daemon")
            step("encode", lambda: protocol.encode_message(protocol.ok_response(
                i, key=key, n=int(graph.num_vertices), cache=tier,
                permutation=perm.tolist())))
    return {"steps": steps, "shapes": shapes, "stats": stats, "roots": cap.roots}


def locality(work: Workload) -> dict:
    """Mean neighbour gap over the requested graphs, per order."""
    from repro.cache.config import paper_machine
    from repro.cache.costmodel import spmv_iteration_cycles
    from repro.graph.csr import CSRGraph
    from repro.metrics.locality import average_neighbor_gap

    gaps = {"original": [], "rabbit": [], "random": []}
    cycles = {"original": [], "rabbit": []}
    machine = paper_machine()
    for idx in sorted(work.served):
        g = work.graphs[idx]
        edges = np.asarray(g["edges"], dtype=np.int64).reshape(-1, 2)
        graph = CSRGraph.from_edges(edges[:, 0], edges[:, 1], num_vertices=g["n"])
        shuffle = np.random.default_rng(idx).permutation(g["n"])
        orders = {"original": graph, "rabbit": graph.permute(work.served[idx]),
                  "random": graph.permute(shuffle)}
        for name, h in orders.items():
            gaps[name].append(average_neighbor_gap(h))
            if name in cycles:
                cycles[name].append(
                    spmv_iteration_cycles(h, machine).cycles_per_iteration)
    return {
        **{f"locality.avg_gap.{k}": float(np.mean(v)) for k, v in gaps.items()},
        **{f"cache.sim_cycles_per_iter.{k}": float(np.mean(v))
           for k, v in cycles.items()},
    }


def traced(work: Workload) -> dict:
    from repro.obs import trace

    baseline = work.round("baseline")
    with trace.capture() as cap:
        measured = work.round("traced")
    requests = [s for s in cap.roots if s.name == "bench.request"]
    work.ops.record(
        len(requests) == len(work.requests)
        and len({s.attrs["request"] for s in requests}) == len(work.requests),
        "traced round lost request spans")
    _, extra = summarize([measured], [measured["boot_s"]])
    r = replay(work)
    roots = r["roots"]
    med = {k: common.median(v) if v else 0.0 for k, v in r["steps"].items()}
    by_tier = measured["by_tier"]
    counters = measured["counters"]
    hits = counters.get("serve.cache.hit.memory", 0) + counters.get(
        "serve.cache.hit.disk", 0)
    # The daemon's graph load is build_graph on the inline edge list.
    layer = {
        "graph.load_s": med["build_graph"],
        "graph.csr_build_s": med["csr_build"],
        "graph.slots": common.median(s for s, _ in r["shapes"]),
        "graph.csr_bytes": common.median(b for _, b in r["shapes"]),
        **common.rabbit_layer(roots, r["stats"]),
        **locality(work),
        **{f"serve.latency_p50_s.{t}": common.median(by_tier[t]) if by_tier[t]
           else 0.0 for t in TIERS},
        "serve.hit_ratio": hits / len(work.requests),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.compute_runs": counters.get("serve.compute.runs", 0),
        "serve.errors": sum(v for k, v in counters.items()
                            if k.startswith("serve.errors.")),
        **{f"serve.{k}_s": med[k] for k in (
            "decode", "build_graph", "fingerprint", "cache_get", "cache_put",
            "compute", "encode", "client_encode")},
        "obs.trace_overhead": measured["wall_s"] / baseline["wall_s"] - 1.0,
    }
    extra.update(untraced_wall_s=baseline["wall_s"], traced_wall_s=measured["wall_s"],
                 self_time_s=common.self_times_by_name(roots))
    return {"layer": layer, "extra": extra}


def main() -> None:
    args = common.worker_args(__doc__)
    common.import_program()
    os.chdir(args.dir)
    ops = common.Ops()
    work = Workload(Path("."), ops)
    report = traced(work) if args.trace else untraced(work, args.seconds)
    report.update(kind="serve", attempted=ops.attempted, failed=ops.failed,
                  errors=ops.errors)
    common.emit(report)


if __name__ == "__main__":
    main()
