"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reorder``
    Read a graph, compute a permutation with any Table III algorithm,
    write the permutation and/or the reordered graph.
``analyze``
    Run an analysis (pagerank/bfs/dfs/scc/diameter/kcore/components) and
    print summary statistics.
``stats``
    Structural and locality statistics of a graph (plus an optional
    ASCII spy plot).
``generate``
    Emit a synthetic graph (registry dataset or raw generator).
``stress``
    Fault-injection stress sweep of the parallel pipeline (seeds × fault
    plans, audited); exits non-zero if any run fails its audit.
``bench``
    Run a benchmark suite and emit a schema-versioned ``BENCH_*.json``
    baseline; ``--compare OLD.json`` judges the fresh run against a
    committed baseline and exits non-zero on regression.
``check``
    Run the project lint rules (:mod:`repro.check`) over source trees;
    exits non-zero on any finding.  ``--list-rules`` catalogues the
    rules; suppression syntax and rationale live in ``docs/CHECKS.md``.
``serve``
    Run the reorder daemon: newline-delimited JSON over a unix socket
    and/or TCP, with the content-addressed permutation cache, request
    coalescing, and tenant quotas (``docs/SERVING.md``).
``client``
    One-shot client for a running daemon: request a reorder/analysis
    of a graph file, or print the daemon's status.

``reorder``/``analyze`` time their work through the span tracer
(:mod:`repro.obs.trace`); ``--verbose`` prints the per-phase breakdown.

Graphs are read/written by extension: ``.npz`` (binary), ``.graph``
(METIS), ``.mtx`` (MatrixMarket), anything else as a whitespace edge
list.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs import trace

__all__ = ["main"]


def _save_graph(graph, path: str) -> None:
    from repro.graph.io import write_edge_list, write_matrix_market, write_metis
    from repro.graph.npz import save_npz

    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        save_npz(graph, path)
    elif suffix == ".graph":
        write_metis(graph, path)
    elif suffix == ".mtx":
        write_matrix_market(graph, path)
    else:
        write_edge_list(graph, path)


def _save_permutation(path: str, permutation) -> None:
    from repro.ioutil import atomic_numpy_save

    dest = Path(path)
    if not dest.name.endswith(".npy"):  # np.save's own suffix rule
        dest = dest.with_name(dest.name + ".npy")
    atomic_numpy_save(dest, lambda buf: np.save(buf, permutation))


def _require_positive(args, *names: str) -> None:
    """Reject non-positive worker counts (``--threads 0`` is never a
    sequential run, it is a typo) with a :class:`ReproError` so every
    command fails the same way: ``error: ...`` on stderr, exit code 2."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise ReproError(f"{flag} must be >= 1, got {value}")


def _resilience_flags(args) -> bool:
    return any(
        getattr(args, name, None) is not None
        for name in ("checkpoint_dir", "resume", "time_budget",
                     "mem_budget")
    )


def _reorder_resilient(args, graph):
    """Handle ``reorder`` when any resilience flag is present.

    With budgets: run under the :class:`RunSupervisor` on the default
    ladder (the checkpoint directory, when given, carries progress across
    degraded rungs), which picks the engines itself, so only ``Rabbit``
    combines with a budget.  With only checkpoint/resume flags: plain
    :func:`~repro.rabbit.order.rabbit_order` with snapshotting, on the
    engine the algorithm's name implies.  Returns the
    :class:`~repro.rabbit.order.RabbitResult`.
    """
    from repro.order.rabbit_adapter import RABBIT_ENGINES
    from repro.rabbit.order import rabbit_order
    from repro.resilience import (
        Budgets,
        CheckpointConfig,
        SupervisorPolicy,
        supervised_rabbit_order,
    )

    checkpoint = None
    if args.checkpoint_dir is not None:
        checkpoint = CheckpointConfig(
            directory=args.checkpoint_dir, every=args.checkpoint_every
        )
    if args.time_budget is None and args.mem_budget is None:
        return rabbit_order(
            graph,
            engine=RABBIT_ENGINES[args.algorithm],
            checkpoint=checkpoint,
            resume=args.resume,
        )
    if args.algorithm != "Rabbit":
        raise ReproError(
            f"-a {args.algorithm} does not combine with "
            "--time-budget/--mem-budget: supervised runs take their "
            "engines from the ladder (fastseq, then dict)"
        )
    if args.resume is not None:
        raise ReproError(
            "--resume combines with --checkpoint-dir only; supervised runs "
            "(--time-budget/--mem-budget) resume from the checkpoint "
            "directory automatically"
        )
    mem = args.mem_budget
    if mem is not None and not 0 < mem < math.inf:
        raise ReproError(f"--mem-budget must be positive and finite, got {mem}")
    budgets = Budgets(
        time_s=args.time_budget,
        rss_bytes=None if mem is None else int(mem * 2**20),
    )
    policy = SupervisorPolicy(budgets=budgets, checkpoint=checkpoint)
    result, report = supervised_rabbit_order(graph, policy=policy)
    print(report.summary())
    return result


def _cmd_reorder(args) -> int:
    from repro.graph.io import read_graph
    from repro.order import get_algorithm
    from repro.order.rabbit_adapter import RABBIT_ENGINES

    resilient = _resilience_flags(args)
    if resilient and args.algorithm not in RABBIT_ENGINES:
        print(
            f"error: the resilience flags apply to the Rabbit orderings "
            f"({', '.join(RABBIT_ENGINES)}), not {args.algorithm!r}",
            file=sys.stderr,
        )
        return 2
    graph = read_graph(args.input)
    if resilient:
        with trace.capture() as cap:
            res = _reorder_resilient(args, graph)
        dt = sum(root.duration for root in cap.roots)
        print(
            f"{args.algorithm} reordered {graph.num_vertices} vertices / "
            f"{graph.num_undirected_edges} edges in {dt:.2f}s "
            f"({res.num_communities} communities, "
            f"{res.stats.merges} merges)"
        )
        permutation = res.permutation
    else:
        with trace.capture() as cap:
            result = get_algorithm(args.algorithm)(graph, rng=args.seed)
        dt = sum(root.duration for root in cap.roots)
        print(
            f"{args.algorithm} reordered {graph.num_vertices} vertices / "
            f"{graph.num_undirected_edges} edges in {dt:.2f}s "
            f"(work={result.stats.work:.0f})"
        )
        permutation = result.permutation
    if args.verbose:
        print(cap.format())
    if args.perm_out:
        _save_permutation(args.perm_out, permutation)
        print(f"permutation -> {args.perm_out}")
    if args.graph_out:
        _save_graph(graph.permute(permutation), args.graph_out)
        print(f"reordered graph -> {args.graph_out}")
    return 0


def _cmd_resume(args) -> int:
    """``repro resume``: finish a checkpointed detection run.

    The run configuration (engine, merge threshold, snapshot cadence) is
    reconstructed from the snapshot's own metadata — the caller only
    points at the checkpoint and the graph it came from
    (fingerprint-verified).  Only the sequential engines checkpoint: a
    snapshot naming any other engine (the Algorithm 3 model or a removed
    executor) fails closed with a :class:`~repro.errors.CheckpointError`.
    """
    from repro.errors import CheckpointError
    from repro.graph.io import read_graph
    from repro.rabbit.order import rabbit_order, resolve_resume
    from repro.resilience import CheckpointConfig

    snap = resolve_resume(args.checkpoint)
    if snap.engine not in ("fast", "dict"):
        raise CheckpointError(
            f"checkpoint was written by the {snap.engine!r} engine, which "
            "cannot be resumed (only 'fast' and 'dict' snapshots can); "
            "rerun detection from scratch"
        )
    cfg = snap.config
    fingerprint = snap.meta.get("fingerprint", {})
    graph = read_graph(args.input)
    kwargs = {
        "merge_threshold": float(fingerprint.get("merge_threshold", 0.0)),
        "resume": snap,
    }
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and Path(args.checkpoint).is_dir():
        checkpoint_dir = args.checkpoint  # keep snapshotting where we found it
    if checkpoint_dir is not None:
        kwargs["checkpoint"] = CheckpointConfig(
            directory=checkpoint_dir,
            every=int(cfg.get("checkpoint_every", 1024)),
        )
    with trace.capture() as cap:
        res = rabbit_order(graph, engine=snap.engine, **kwargs)
    dt = sum(root.duration for root in cap.roots)
    print(
        f"resumed {snap.engine} detection at "
        f"{snap.progress}/{graph.num_vertices} vertices; finished in "
        f"{dt:.2f}s ({res.dendrogram.toplevel.size} communities, "
        f"{res.stats.merges} merges)"
    )
    if args.verbose:
        print(cap.format())
    if args.perm_out:
        _save_permutation(args.perm_out, res.permutation)
        print(f"permutation -> {args.perm_out}")
    if args.graph_out:
        _save_graph(graph.permute(res.permutation), args.graph_out)
        print(f"reordered graph -> {args.graph_out}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        bfs,
        connected_components,
        core_numbers,
        dfs_forest,
        pagerank,
        pseudo_diameter,
        strongly_connected_components,
    )
    from repro.graph.io import read_graph

    graph = read_graph(args.input)
    with trace.capture() as cap:
        with trace.span(f"analyze.{args.analysis}"):
            if args.analysis == "pagerank":
                res = pagerank(graph)
                top = np.argsort(-res.scores)[:5]
                print(f"pagerank: {res.iterations} iterations, residual {res.residual:.2e}")
                print("top vertices:", ", ".join(f"{int(v)}={res.scores[v]:.4g}" for v in top))
            elif args.analysis == "bfs":
                r = bfs(graph, args.source)
                print(f"bfs from {args.source}: reached {r.num_reached}, "
                      f"eccentricity {r.eccentricity}")
            elif args.analysis == "dfs":
                r = dfs_forest(graph)
                print(f"dfs: visited {r.order.size} vertices")
            elif args.analysis == "scc":
                r = strongly_connected_components(graph)
                print(f"scc: {r.num_components} components, "
                      f"largest {int(r.component_sizes().max())}")
            elif args.analysis == "components":
                r = connected_components(graph)
                print(f"components: {r.num_components}, "
                      f"largest {int(r.component_sizes().max())}")
            elif args.analysis == "diameter":
                r = pseudo_diameter(graph, source=args.source)
                print(f"pseudo-diameter: {r.diameter} (endpoints {r.endpoints}, "
                      f"{r.num_sweeps} sweeps)")
            elif args.analysis == "kcore":
                core = core_numbers(graph)
                print(f"k-core: max core {int(core.max(initial=0))}, "
                      f"mean {core.mean():.2f}")
    print(f"[{sum(root.duration for root in cap.roots):.2f}s]")
    if args.verbose:
        print(cap.format())
    return 0


def _cmd_stats(args) -> int:
    from repro.graph.io import read_graph
    from repro.metrics import (
        average_neighbor_gap,
        bandwidth,
        diagonal_block_density,
        spy,
    )

    if args.spy < 0:
        raise ReproError(f"--spy must be >= 0, got {args.spy}")
    g = read_graph(args.input)
    deg = g.degrees()
    print(f"vertices        {g.num_vertices}")
    print(f"edges           {g.num_undirected_edges}")
    print(f"self-loops      {g.num_self_loops}")
    print(f"weighted        {g.is_weighted}")
    print(f"symmetric       {g.is_symmetric()}")
    print(f"degree          min {deg.min(initial=0)}  "
          f"mean {deg.mean() if deg.size else 0:.2f}  max {deg.max(initial=0)}")
    print(f"avg nbr gap     {average_neighbor_gap(g):.1f}")
    print(f"bandwidth       {bandwidth(g)}")
    print(f"block density   w=64: {diagonal_block_density(g, 64):.1%}")
    if args.spy:
        print(spy(g, args.spy))
    return 0


def _cmd_generate(args) -> int:
    from repro.graph.generators import list_datasets, load_dataset

    if args.dataset not in list_datasets():
        raise ReproError(
            f"unknown dataset {args.dataset!r}; "
            f"available: {', '.join(list_datasets())}"
        )
    ds = load_dataset(args.dataset, args.scale, seed=args.seed)
    _save_graph(ds.graph, args.output)
    print(
        f"{args.dataset} ({args.scale}): {ds.graph.num_vertices} vertices, "
        f"{ds.graph.num_undirected_edges} edges -> {args.output}"
    )
    return 0


def _cmd_stress(args) -> int:
    from repro.experiments.stress import run_chaos, run_stress

    _require_positive(args, "threads")
    if args.seeds < 1:
        print(f"error: --seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    if args.chaos:
        report = run_chaos(
            scale=args.scale,
            edge_factor=args.edge_factor,
            graph_seed=args.graph_seed,
            num_seeds=args.seeds,
            quick=args.quick,
        )
        print(report.table())
        return 0 if report.ok else 1
    report = run_stress(
        scale=args.scale,
        edge_factor=args.edge_factor,
        graph_seed=args.graph_seed,
        num_seeds=args.seeds,
        num_threads=args.threads,
        quick=args.quick,
        detect_races=args.races,
    )
    print(report.table())
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    from repro.check import all_rules, run_check

    if args.list_rules:
        for rule in all_rules():
            kind = "project" if rule.project_wide else "file"
            print(f"{rule.id:<28} [{kind}] {rule.rationale}")
        return 0
    report = run_check(args.paths or ["src"], rules=args.rule)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import json

    from repro.obs import bench as ob
    from repro.obs.schema import require_valid_bench

    if args.list:
        for name in ob.list_suites():
            suite = ob.get_suite(name)
            print(f"{name:<10} {suite.description}")
        return 0
    if args.validate:
        doc = json.loads(Path(args.validate).read_text())
        require_valid_bench(doc, source=args.validate)
        print(f"{args.validate}: valid ({doc['schema']}, "
              f"{len(doc['results'])} results)")
        return 0
    if args.against:
        if not args.compare:
            print("error: --against requires --compare BASELINE.json",
                  file=sys.stderr)
            return 2
        baseline = ob.load_bench(args.compare)
        current = ob.load_bench(args.against)
        report = ob.compare(baseline, current,
                            rel_tolerance=args.rel_tolerance)
        print(report.table())
        return 0 if report.ok else 1

    doc = ob.run_suite(args.suite, repeats=args.repeats)
    out = args.out or f"BENCH_{args.suite}.json"
    ob.save_bench(doc, out)
    print(f"suite {args.suite!r}: {len(doc['results'])} results -> {out}")
    if args.compare:
        baseline = ob.load_bench(args.compare)
        report = ob.compare(baseline, doc, rel_tolerance=args.rel_tolerance)
        print(report.table())
        return 0 if report.ok else 1
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.serve.daemon import ServerConfig, run_server

    quotas = None
    if args.quotas is not None:
        try:
            quotas = json.loads(Path(args.quotas).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read quota spec {args.quotas}: {exc}") from exc
    config = ServerConfig(
        unix_path=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache_memory_entries=args.cache_memory,
        cache_disk_entries=args.cache_disk,
        quotas=quotas,
        time_budget_s=args.time_budget,
        merge_threshold=args.merge_threshold,
        compute_workers=args.workers,
        drain_timeout_s=args.drain_timeout,
    )
    return run_server(config)


def _cmd_client(args) -> int:
    import json

    from repro.serve.client import ServeClient

    with ServeClient(
        unix_path=args.socket, host=args.host, port=args.port,
        tenant=args.tenant, timeout_s=args.timeout,
    ) as client:
        if args.op == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.input is None:
            raise ReproError(f"client {args.op} needs a graph file argument")
        graph_path = str(Path(args.input).resolve())
        if args.op == "reorder":
            response = client.reorder(graph_path=graph_path, full_response=True)
            print(f"{response['cache']}: {response['n']} vertices "
                  f"(key {response['key']})")
            if args.perm_out:
                _save_permutation(
                    args.perm_out,
                    np.asarray(response["permutation"], dtype=np.int64),
                )
                print(f"permutation -> {args.perm_out}")
        else:
            response = client.analyze(args.op, graph_path=graph_path)
            print(f"{response['cache']}: {response['n']} vertices "
                  f"(key {response['key']})")
            print(json.dumps(response["result"], indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Rabbit Order reproduction: reorder, analyse, inspect graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reorder", help="reorder a graph")
    p.add_argument("input", help="graph file (.npz/.graph/.mtx/edge list)")
    p.add_argument("--algorithm", "-a", default="Rabbit",
                   help="ordering (Rabbit: the compiled sweep; RabbitDict: "
                        "the reference dict engine, same permutation)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perm-out", help="write pi as .npy")
    p.add_argument("--graph-out", help="write the reordered graph")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="snapshot Rabbit detection state into DIR so a "
                        "killed run can resume")
    p.add_argument("--checkpoint-every", type=int, default=1024,
                   metavar="N", help="vertices between snapshots")
    p.add_argument("--resume", metavar="PATH",
                   help="resume Rabbit detection from a checkpoint file "
                        "or directory (newest snapshot wins)")
    p.add_argument("--time-budget", type=float, metavar="SECONDS",
                   help="run under the supervisor with this wall-clock "
                        "budget per attempt")
    p.add_argument("--mem-budget", type=float, metavar="MIB",
                   help="run under the supervisor with this RSS budget")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print the per-phase span breakdown")
    p.set_defaults(fn=_cmd_reorder)

    p = sub.add_parser(
        "resume", help="finish a checkpointed Rabbit detection run"
    )
    p.add_argument("checkpoint",
                   help="checkpoint file or directory (newest snapshot wins)")
    p.add_argument("input", help="the graph the checkpoint came from "
                                 "(fingerprint-verified)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="continue snapshotting into DIR (default: the "
                        "checkpoint's own directory)")
    p.add_argument("--perm-out", help="write pi as .npy")
    p.add_argument("--graph-out", help="write the reordered graph")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print the per-phase span breakdown")
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("analyze", help="run an analysis algorithm")
    p.add_argument("input")
    p.add_argument(
        "analysis",
        choices=["pagerank", "bfs", "dfs", "scc", "components", "diameter", "kcore"],
    )
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print the per-phase span breakdown")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("stats", help="graph statistics")
    p.add_argument("input")
    p.add_argument("--spy", type=int, default=0, metavar="GRID",
                   help="also print an ASCII spy plot at this grid size")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("generate", help="emit a synthetic dataset")
    p.add_argument("dataset")
    p.add_argument("output")
    p.add_argument("--scale", default="small")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser(
        "stress", help="fault-injection stress sweep (seeds x fault plans)"
    )
    p.add_argument("--quick", action="store_true",
                   help="small smoke sweep (CI-friendly)")
    p.add_argument("--seeds", type=int, default=20,
                   help="scheduler seeds per fault plan")
    p.add_argument("--scale", type=int, default=6,
                   help="R-MAT scale of the stress graph")
    p.add_argument("--edge-factor", type=int, default=4)
    p.add_argument("--graph-seed", type=int, default=3)
    p.add_argument("--threads", type=int, default=4,
                   help="modelled hardware threads (scheduler window)")
    p.add_argument("--races", action="store_true",
                   help="run the happens-before race detector on every cell")
    p.add_argument("--chaos", action="store_true",
                   help="chaos campaign instead: SIGKILL a checkpointing "
                        "subprocess mid-detection, resume, verify the "
                        "permutation")
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser(
        "check", help="run the project lint rules (static analysis)"
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format")
    p.add_argument("--rule", action="append", metavar="RULE-ID",
                   help="restrict to this rule id (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "serve", help="run the reorder daemon (reorder-as-a-service)"
    )
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--host", help="TCP host to bind (with --port)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="disk tier of the permutation cache "
                        "(default: memory-only)")
    p.add_argument("--cache-memory", type=int, default=128, metavar="N",
                   help="memory-tier LRU capacity (entries)")
    p.add_argument("--cache-disk", type=int, default=1024, metavar="N",
                   help="disk-tier capacity (entries)")
    p.add_argument("--quotas", metavar="SPEC.json",
                   help="tenant quota spec file "
                        '({"default": {"rate": R, "burst": B}, '
                        '"tenants": {...}})')
    p.add_argument("--time-budget", type=float, metavar="SECONDS",
                   help="per-attempt wall-clock budget for computations")
    p.add_argument("--merge-threshold", type=float, default=0.0,
                   help="Rabbit merge threshold (part of the cache key)")
    p.add_argument("--workers", type=int, default=4,
                   help="blocking-work executor threads")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="how long shutdown waits for in-flight requests")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client", help="talk to a running reorder daemon"
    )
    p.add_argument("op",
                   choices=["reorder", "pagerank", "bfs", "components",
                            "status"],
                   help="request to send (analyses run on the reordered "
                        "graph)")
    p.add_argument("input", nargs="?",
                   help="graph file (.npz/.graph/.mtx/edge list), resolved "
                        "to an absolute path the daemon can read")
    p.add_argument("--socket", metavar="PATH",
                   help="daemon unix socket")
    p.add_argument("--host", help="daemon TCP host (with --port)")
    p.add_argument("--port", type=int, help="daemon TCP port")
    p.add_argument("--tenant", default="default",
                   help="tenant the request is charged to")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="request timeout in seconds")
    p.add_argument("--perm-out", help="(reorder) write pi as .npy")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "bench", help="run a benchmark suite / compare baselines"
    )
    p.add_argument("--suite", default="core",
                   help="suite name (see --list); default: core")
    p.add_argument("--out", help="output path (default BENCH_<suite>.json)")
    p.add_argument("--repeats", type=int, default=None,
                   help="override the suite's repeat count")
    p.add_argument("--compare", metavar="OLD.json",
                   help="judge this run (or --against FILE) against a baseline;"
                        " exits 1 on regression")
    p.add_argument("--against", metavar="NEW.json",
                   help="compare two existing files instead of running")
    p.add_argument("--validate", metavar="FILE.json",
                   help="validate a baseline file against the schema and exit")
    p.add_argument("--rel-tolerance", type=float, default=0.5,
                   help="relative slowdown tolerated before REGRESSION")
    p.add_argument("--list", action="store_true",
                   help="list registered suites and exit")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse *argv* and dispatch to a subcommand; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `... check --list-rules | head`);
        # suppress the traceback and let the flush-at-exit not re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
