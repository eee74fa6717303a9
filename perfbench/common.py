"""Helpers shared by the benchmark's processes.

Every process of the benchmark imports the program under test from the
checkout's own ``src/`` tree (never from an installed copy), times calls
into its public functions from outside, and reports one JSON object on
the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Pin every native thread pool to one thread, so timings do not depend
#: on how BLAS or OpenMP would split work on the host.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, bad inputs)."""


class Ops:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def is_bijection(perm, n: int) -> bool:
    perm = np.asarray(perm)
    if perm.shape != (n,) or perm.dtype.kind not in "iu":
        return False
    if n == 0:
        return True
    if perm.min() < 0 or perm.max() >= n:
        return False
    return bool(np.all(np.bincount(perm, minlength=n) == 1))


def worker_args(doc: str) -> argparse.Namespace:
    """Command line of a measuring process (``batch.py``, ``serve.py``)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"repro imported from {where}, not from {SRC}")


def clock() -> float:
    return time.perf_counter()


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, after a full collection so a
    pending GC cycle is not charged to the call."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return math.nan
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    vals = sorted(values)
    if not vals:
        return math.nan
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for process {pid}")


def emit(obj: dict) -> None:
    """Print the process's result as its last stdout line."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Span arithmetic over repro.obs.trace spans (start/end/children).
# ----------------------------------------------------------------------
def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span) -> float:
    """A span's duration minus the part of it its children cover."""
    children = [(c.start, c.end) for c in span.children]
    return span.duration - covered(children)


def spans_named(roots, name: str):
    out = []
    stack = list(roots)
    while stack:
        s = stack.pop()
        if s.name == name:
            out.append(s)
        stack.extend(s.children)
    return out


def total_duration(roots, name: str) -> float:
    return sum(s.duration for s in spans_named(roots, name))


def self_times_by_name(roots) -> dict[str, float]:
    """Summed self time per span name over a whole forest."""
    totals: dict[str, float] = {}
    stack = list(roots)
    while stack:
        s = stack.pop()
        totals[s.name] = totals.get(s.name, 0.0) + self_time(s)
        stack.extend(s.children)
    return totals


def rabbit_layer(roots, stats: list) -> dict:
    """Per-layer metrics of ``repro.rabbit`` from the captured program
    spans (``rabbit.detect`` and its children, ``rabbit.ordering``) and
    the counts of the runs' ``RabbitStats``, summed."""
    detect = spans_named(roots, "rabbit.detect")
    detect_s = sum(s.duration for s in detect)
    children = sum(covered((c.start, c.end) for c in s.children) for s in detect)
    return {
        "rabbit.detect_s": detect_s,
        "rabbit.detect.setup_s": total_duration(roots, "rabbit.seq.setup"),
        "rabbit.detect.aggregate_s": total_duration(roots, "rabbit.seq.aggregate"),
        "rabbit.detect.uncovered_s": detect_s - children,
        "rabbit.ordering_s": total_duration(roots, "rabbit.ordering"),
        **{f"rabbit.{k}": sum(getattr(st, k) for st in stats)
           for k in ("merges", "toplevels", "edges_scanned")},
        "obs.detect_coverage": children / detect_s if detect_s else 0.0,
    }
