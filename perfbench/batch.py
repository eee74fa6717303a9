"""Pipeline process of the batch workloads (social-rwr, road-bfs).

``python3 perfbench/batch.py --dir DIR --seconds S --trace 0|1`` reads the
inputs that ``inputs.py`` wrote to ``DIR`` and plays one user's session:
load the graph file, reorder it with Rabbit Order, permute it, and
answer the workload's queries, each query also on the graph as loaded
("analysis alone") so the two orders are compared one query at a time.

Untraced (``--trace 0``): the file is loaded ``SETUP_REPEATS`` times
(``setup_s`` is the median), then rounds of reorder -> permute ->
queries repeat until ``S`` seconds have been spent in them; each round
starts from a fresh ``CSRGraph`` over the loaded arrays, so every
``rabbit_order`` pays the symmetry check a user pays once per loaded
graph.  Traced (``--trace 1``): one untraced round as the overhead
baseline, then the same round, the Random-order queries, a load and a
CSR build under ``repro.obs.trace.capture()``, with a benchmark span
around every call into the program; the deterministic layer report
(Rabbit counts, locality gaps, simulated cycles) follows, untimed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import common

SETUP_REPEATS = 3
MAX_ROUNDS = 6
#: RWR parameters (the paper's second SpMV workload).
RWR_RESTART = 0.15
RWR_TOLERANCE = 1e-10
#: Largest L1 distance allowed between RWR scores of two orders.
RWR_L1_LIMIT = 1e-9


class Session:
    """One workload's graph, queries and program entry points."""

    def __init__(self, workdir: Path, ops: common.Ops):
        from repro.graph.io import read_edge_list, read_metis

        self.dir = workdir
        self.ops = ops
        spec = json.loads((workdir / "queries.json").read_text())
        self.kind = spec["kind"]
        self.n = int(spec["n"])
        self.undirected_edges = int(spec["undirected_edges"])
        self.sources = np.asarray(spec["sources"], dtype=np.int64)
        if self.kind == "rwr":
            self.path, self.reader = workdir / "graph.txt", read_edge_list
        else:
            self.path, self.reader = workdir / "graph.graph", read_metis

    # -- program calls ---------------------------------------------------
    def call(self, name: str, fn, *args, **attrs):
        """Time one call into the program inside a benchmark span."""
        from repro.obs.trace import span

        with span(name, **attrs):
            return common.timed(fn, *args)

    def load(self):
        graph, seconds = self.call("bench.load", self.reader, str(self.path))
        self.ops.record(
            graph.num_vertices == self.n
            and graph.num_edges == 2 * self.undirected_edges,
            f"loaded graph has n={graph.num_vertices} slots={graph.num_edges}, "
            f"expected n={self.n} slots={2 * self.undirected_edges}",
        )
        return graph, seconds

    def query(self, graph, source: int, order: str, qid: int):
        from repro.analysis.rwr import random_walk_with_restart
        from repro.analysis.traversal import bfs

        if self.kind == "rwr":
            fn = lambda g, s: random_walk_with_restart(  # noqa: E731
                g, s, restart=RWR_RESTART, tolerance=RWR_TOLERANCE)
        else:
            fn = bfs
        return self.call("bench.query", fn, graph, int(source),
                         order=order, query=qid)

    def steps(self, result) -> int:
        """SpMV applications (RWR) or BFS levels of one query."""
        if self.kind == "rwr":
            return int(result.iterations)
        return int(result.level.max()) + 1

    def agree(self, base, other, perm, what: str) -> bool:
        """``other`` (on the graph permuted by ``perm``) equals ``base``
        (on the graph as loaded) mapped through ``perm``."""
        if self.kind == "rwr":
            dist = float(np.abs(other.scores[perm] - base.scores).sum())
            return self.ops.record(
                dist <= RWR_L1_LIMIT, f"{what}: RWR L1 distance {dist:.3e}")
        same = (
            base.num_reached == other.num_reached
            and np.array_equal(other.level[perm], base.level)
        )
        return self.ops.record(same, f"{what}: BFS levels differ")

    # -- one measured round ------------------------------------------------
    def round(self, graph) -> dict:
        from repro.graph.csr import CSRGraph
        from repro.rabbit import rabbit_order

        fresh = CSRGraph(graph.indptr, graph.indices, graph.weights)
        result, reorder_s = self.call("bench.reorder", rabbit_order, fresh)
        perm = np.asarray(result.permutation)
        if not self.ops.record(common.is_bijection(perm, self.n),
                               "rabbit_order permutation is not a bijection"):
            raise RuntimeError("no valid permutation to measure")
        reordered, permute_s = self.call("bench.permute", fresh.permute, perm,
                                         order="rabbit")
        # The original order starts from the same lazy-cache state as the
        # freshly permuted graph.
        original = CSRGraph(graph.indptr, graph.indices, graph.weights)
        per_query = {"original": [], "rabbit": []}
        first_original = None
        steps = 0
        for i, src in enumerate(self.sources):
            runs = [("original", original, src), ("rabbit", reordered, perm[src])]
            if i % 2:
                runs.reverse()
            out = {}
            for order, g, s in runs:
                out[order], seconds = self.query(g, s, order, i)
                per_query[order].append(seconds)
            self.agree(out["original"], out["rabbit"], perm, f"query {i} rabbit")
            steps += self.steps(out["rabbit"])
            if first_original is None:
                first_original = out["original"]
        analysis_s = sum(per_query["rabbit"])
        return {
            "reorder_s": reorder_s,
            "permute_s": permute_s,
            "analysis_s": analysis_s,
            "analysis_original_s": sum(per_query["original"]),
            "end_to_end_s": reorder_s + permute_s + analysis_s,
            "per_query": per_query,
            "steps": steps,
            "result": result,
            "reordered": reordered,
            "first_original": first_original,
        }

    def random_order(self, graph, first_original, all_queries: bool):
        """Queries on the seeded Random order, checked against the
        original order; returns (seconds per query, permuted graph)."""
        perm = np.load(self.dir / "random_perm.npy")
        shuffled, _ = self.call("bench.permute", graph.permute, perm,
                                order="random")
        sources = self.sources if all_queries else self.sources[:1]
        times = []
        for i, src in enumerate(sources):
            out, seconds = self.query(shuffled, perm[src], "random", i)
            times.append(seconds)
            if i == 0:
                self.agree(first_original, out, perm, "query 0 random")
        return times, shuffled

    def bytes_per_iter(self, graph) -> int:
        """Computed bytes one SpMV (RWR) or one full BFS (road) moves over
        the CSR arrays: indptr, indices, one 8-byte vertex-value load per
        slot, one write per vertex, plus the slot values SpMV reads."""
        n, m = graph.num_vertices, graph.num_edges
        base = 8 * (n + 1) + 8 * m + 8 * m + 8 * n
        return base + (8 * m if self.kind == "rwr" else 0)


def untraced(session: Session, seconds: float) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        graph, t = session.load()
        setup.append(t)
    rounds = []
    start = common.clock()
    while True:
        r = session.round(graph)
        # Keep only the numbers: a round's graphs held across rounds
        # would make peak RSS grow with the number of rounds.
        first_original = r.pop("first_original")
        del r["result"], r["reordered"]
        rounds.append(r)
        if common.clock() - start >= seconds or len(rounds) >= MAX_ROUNDS:
            break
    session.random_order(graph, first_original, all_queries=False)
    rabbit_queries = [t for r in rounds for t in r["per_query"]["rabbit"]]
    pick = lambda key: common.median(r[key] for r in rounds)  # noqa: E731
    return {
        "e2e": {
            "setup_s": common.median(setup),
            "reorder_s": pick("reorder_s"),
            "query_p50_s": common.median(rabbit_queries),
            "end_to_end_s": pick("end_to_end_s"),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "extra": {
            "rounds": len(rounds),
            "round_reorder_s": [r["reorder_s"] for r in rounds],
            "round_end_to_end_s": [r["end_to_end_s"] for r in rounds],
            "queries_per_round": len(session.sources),
            "setup_samples": setup,
            "permute_s": pick("permute_s"),
            "analysis_s": pick("analysis_s"),
            "analysis_original_s": pick("analysis_original_s"),
        },
    }


def traced(session: Session) -> dict:
    from repro.cache.config import paper_machine
    from repro.cache.costmodel import spmv_iteration_cycles
    from repro.graph.csr import CSRGraph
    from repro.metrics.locality import average_neighbor_gap
    from repro.obs import trace

    graph, _ = session.load()
    # The untraced baseline round and the traced round run back to back
    # on the same loaded graph, so only tracing differs between them.
    baseline_s = session.round(graph)["end_to_end_s"]
    edges = np.load(session.dir / "edges.npy")
    with trace.capture() as cap:
        r = session.round(graph)
        random_times, shuffled = session.random_order(
            graph, r["first_original"], all_queries=True)
        loaded, load_s = session.load()
        built, csr_build_s = session.call(
            "bench.csr_build",
            lambda s, d: CSRGraph.from_edges(s, d, num_vertices=session.n),
            edges[0], edges[1])
    session.ops.record(
        np.array_equal(built.indptr, loaded.indptr)
        and np.array_equal(built.indices, loaded.indices),
        "CSRGraph.from_edges and the file reader built different graphs")
    roots = cap.roots
    machine = paper_machine()
    cycles = {
        name: spmv_iteration_cycles(g, machine).cycles_per_iteration
        for name, g in (("original", graph), ("rabbit", r["reordered"]))
    }
    layer = {
        "graph.load_s": load_s,
        "graph.csr_build_s": csr_build_s,
        "graph.slots": graph.num_edges,
        "graph.csr_bytes": graph.indptr.nbytes + graph.indices.nbytes
        + (0 if graph.weights is None else graph.weights.nbytes),
        "graph.permute_s": r["permute_s"],
        **common.rabbit_layer(roots, [r["result"].stats]),
        "analysis.steps": r["steps"],
        "analysis.per_query_s.rabbit": common.median(r["per_query"]["rabbit"]),
        "analysis.per_query_s.original": common.median(
            r["per_query"]["original"]),
        "analysis.random_s": sum(random_times),
        "analysis.bytes_per_iter": session.bytes_per_iter(graph),
        "locality.avg_gap.original": average_neighbor_gap(graph),
        "locality.avg_gap.rabbit": average_neighbor_gap(r["reordered"]),
        "locality.avg_gap.random": average_neighbor_gap(shuffled),
        "cache.sim_cycles_per_iter.original": cycles["original"],
        "cache.sim_cycles_per_iter.rabbit": cycles["rabbit"],
        "obs.trace_overhead": r["end_to_end_s"] / baseline_s - 1.0,
    }
    return {
        "layer": layer,
        "extra": {
            "reorder_s": r["reorder_s"],
            "permute_s": r["permute_s"],
            "analysis_s": r["analysis_s"],
            "analysis_original_s": r["analysis_original_s"],
            "end_to_end_s": r["end_to_end_s"],
            "untraced_end_to_end_s": baseline_s,
            "queries_per_round": len(session.sources),
            "self_time_s": common.self_times_by_name(roots),
        },
    }


def main() -> None:
    args = common.worker_args(__doc__)
    common.import_program()
    ops = common.Ops()
    session = Session(args.dir, ops)
    report = traced(session) if args.trace else untraced(session, args.seconds)
    report.update(kind=session.kind, attempted=ops.attempted,
                  failed=ops.failed, errors=ops.errors)
    common.emit(report)


if __name__ == "__main__":
    main()
