"""Repository benchmark: Rabbit reorder + analysis vs analysis alone.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  One run:

1. ``inputs.py`` generates the workload's inputs from ``--seed`` in its
   own process and writes them under ``.perfbench_work/`` in the
   checkout, before anything is timed;
2. ``batch.py`` (social-rwr, road-bfs) or ``serve.py`` (serve-zipf)
   measures for ``--seconds`` seconds in a fresh process, so its peak RSS
   covers only load and pipeline (or, for serve-zipf, the daemon's own);
3. this script prints a readable report, then, as the last line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and the
   metrics ``BENCHMARK.json`` lists: its ``end_to_end`` metrics when
   untraced, its ``per_layer`` metrics when traced.

Workloads (rationale also in ``BENCHMARK.json``):

* social-rwr: R-MAT scale 17, edge factor 8, Graph500 quadrants, ids as
  generated, read from a SNAP edge list; random-walk-with-restart
  queries.  Reorder once, query many: the SpMV-bound queries are the
  largest part of ``end_to_end_s``.
* road-bfs: perturbed 362 x 362 lattice with shuffled ids, read from
  METIS; BFS queries.  Detection does most of the work and the analysis
  never calls SpMV.
* serve-zipf: ``repro serve`` daemon with a disk tier and an 8-entry
  memory tier; 2 closed-loop connections send 300 inline-edge reorder
  requests for 48 R-MATs of scales 10-12, with Zipf(1.1) request counts
  per graph in a seeded order.

Cache sizes: at 2^17 vertices the gathered vector is 1 MiB, larger than
the 48 KiB L1d and smaller than the 2 MiB per-core L2, and the per-slot
arrays SpMV reads (~48 MB for social-rwr) fit a 105 MiB L3, so the batch
workloads measure L1/L2 gather locality, not DRAM bandwidth.

End-to-end metrics, per workload (batch / serve-zipf):

* ``setup_s``: median of 3 graph-file loads into a ``CSRGraph`` /
  median of the daemon boots up to its ``listening`` line;
* ``reorder_s``: ``rabbit_order`` on a fresh ``CSRGraph`` over the loaded
  arrays, median over rounds / median round trip of the requests the
  daemon computed (cache misses);
* ``end_to_end_s``: ``rabbit_order`` + ``CSRGraph.permute`` + the queries on
  the Rabbit order, summed within a round, median over rounds / median
  wall time of a round's request phase;
* ``peak_rss_mb``: high-water RSS of the pipeline process / the daemon.

Derived ratios (speed-ups, break-even query count) and the numbers that
are not gated are printed in the report with their bases: per workload
``analysis_s``, ``analysis_original_s``, ``request_p95_s``,
``requests_per_s`` and the like, and ``query_p50_s`` (median time of one
query on the Rabbit order / one request round trip), which is not gated
because the host's speed swings moved its spread over road-bfs seeds
past the largest bound allowed (0.27 against 0.25).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
WORKDIR = common.ROOT / ".perfbench_work"
WORKERS = {"social-rwr": "batch.py", "road-bfs": "batch.py",
           "serve-zipf": "serve.py"}
#: The whole run must end within 180 s.
RUN_LIMIT_S = 170.0
#: Per-layer metrics of layers a workload never calls, reported as 0.
OFF_PATH = {"batch.py": ("serve.",),
            "serve.py": ("graph.permute_s", "analysis.")}


def run_child(argv: list[str], deadline: float) -> str:
    """Run one benchmark process in its own process group; kill the whole
    group (a daemon included) if it outlives the run's deadline."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=common.child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - common.clock()))
    except subprocess.TimeoutExpired:
        raise common.SetupError(f"{Path(argv[1]).name} did not finish in time")
    finally:
        kill_group(proc)
    if proc.returncode != 0:
        raise common.SetupError(
            f"{Path(argv[1]).name} exited with code {proc.returncode}")
    return out.decode()


def kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait until
    every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def derived(workload: str, report: dict) -> list[str]:
    """Ratios printed with their bases, never gated."""
    extra = {**report.get("e2e", {}), **report["extra"]}
    if workload == "serve-zipf":
        return [f"request_p95_s = {fmt(extra['request_p95_s'])} "
                f"({extra['requests_beyond_p95']} requests beyond it)",
                f"requests_per_s = {fmt(extra['requests_per_s'])} "
                f"({extra['requests_per_round']} requests per round)"]
    e2e = extra["end_to_end_s"]
    original = extra["analysis_original_s"]
    saving = (original - extra["analysis_s"]) / extra["queries_per_round"]
    paid = extra["reorder_s"] + extra["permute_s"]
    lines = [
        f"derived.speedup_vs_original = {fmt(original / e2e)} "
        f"(analysis_original_s {fmt(original)} / end_to_end_s {fmt(e2e)})",
        f"derived.break_even_queries = "
        f"{fmt(paid / saving) if saving > 0 else 'none'} "
        f"((reorder_s + permute_s) {fmt(paid)} / saving per query {fmt(saving)})",
    ]
    if "layer" in report:
        rand = report["layer"]["analysis.random_s"]
        lines.append(f"derived.speedup_vs_random = {fmt(rand / e2e)} "
                     f"(analysis.random_s {fmt(rand)} / end_to_end_s {fmt(e2e)})")
    return lines


def collect(spec: dict, worker: str, report: dict, traced: bool):
    """The metrics BENCHMARK.json lists, with their units."""
    source = report["layer" if traced else "e2e"]
    metrics, off_path = {}, []
    for m in spec["per_layer" if traced else "end_to_end"]:
        name = m["name"]
        if name in source:
            value = float(source[name])
        elif traced and name.startswith(OFF_PATH[worker]):
            value = 0.0
            off_path.append(name)
        else:
            raise common.SetupError(f"{worker} did not report {name}")
        if not math.isfinite(value):
            raise common.SetupError(f"{name} is {value}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, off_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = common.clock()
    ticks = cpu_ticks()
    deadline = start + RUN_LIMIT_S
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    if not (common.SRC / "repro" / "__init__.py").is_file():
        raise common.SetupError(f"no program to measure under {common.SRC}")
    worker = WORKERS[args.workload]
    work = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_child([sys.executable, str(HERE / "inputs.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(work)], deadline)
        out = run_child([sys.executable, str(HERE / worker), "--dir", str(work),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    report = json.loads(out.strip().splitlines()[-1])
    metrics, off_path = collect(spec, worker, report, bool(args.trace))

    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    # CPU time the hypervisor gave to other guests: the main source of
    # run-to-run noise on a shared host.
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={common.clock() - start:.1f}s "
          f"host_steal={100.0 * steal / max(total, 1):.1f}%")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if off_path:
        print(f"# not on this workload's path, reported as 0: {', '.join(off_path)}")
    print("# not gated:")
    shown = {k: v for k, v in report.get("e2e", {}).items() if k not in metrics}
    for key, value in sorted({**shown, **report["extra"]}.items()):
        if not isinstance(value, dict):
            print(f"{key:40s} {fmt(value)}")
    for line in derived(args.workload, report):
        print(line)
    for key in ("self_time_s", "counters", "responses_by_tier"):
        if key in report["extra"]:
            print(f"# {key}: " + json.dumps(report["extra"][key], sort_keys=True))
    for error in report["errors"]:
        print(f"# FAILED: {error}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (common.SetupError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
