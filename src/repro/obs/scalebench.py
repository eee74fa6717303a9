"""Scale bench suite: the two sequential engines on the largest bench graph.

One cell per engine — ``fastseq`` (the production engine) and
``seq-dict`` (the reference oracle) — both reordering the *largest*
bench graph (R-MAT scale 13, edge factor 8; an order of magnitude
beyond the ``core`` suite's graphs).  The committed ``BENCH_scale.json``
is the record the CI ``--compare`` gate keeps either engine from
silently regressing against.

Each cell records the detected topology (``machine.physical_cores`` /
``machine.hardware_threads`` counters, via
:meth:`~repro.parallel.costmodel.ParallelMachine.detect`) so a baseline
is always interpreted against the machine that produced it, and
cross-machine comparisons use the generous tolerance the CI gate passes
explicitly.

Correctness is gated alongside speed: ``seq-dict`` must reproduce the
``fastseq`` permutation bit-for-bit.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.graph import validate_permutation
from repro.graph.generators.rmat import rmat_graph
from repro.metrics.locality import (
    average_neighbor_gap,
    bandwidth,
    diagonal_block_density,
)
from repro.obs.bench import ANALYSES, percentile_summary
from repro.obs.metrics import counter_delta, get_registry
from repro.parallel.costmodel import ParallelMachine
from repro.rabbit.order import rabbit_order

__all__ = ["run_scale_suite", "SCALE_GRAPH"]

#: The largest bench graph: R-MAT scale 13, edge factor 8 (~8k vertices,
#: ~100k undirected edges) — big enough that folding dominates fixed
#: overheads, small enough for a CI job.
SCALE_GRAPH = ("rmat-s13", 13, 8, 7)


#: (cell name, rabbit_order keyword arguments); the first cell's
#: permutation is the reference every later cell must match.
CONFIGS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("fastseq", dict(engine="fast")),
    ("seq-dict", dict(engine="dict")),
)


def run_scale_suite(repeats: int = 1) -> list[dict[str, Any]]:
    """Run every scaling cell; returns the schema-valid ``results`` list
    of the ``scale`` bench suite."""
    repeats = max(1, int(repeats))
    name, scale, edge_factor, seed = SCALE_GRAPH
    graph = rmat_graph(scale, edge_factor=edge_factor, rng=seed)
    machine = ParallelMachine.detect()
    registry = get_registry()
    results: list[dict[str, Any]] = []
    oracle: np.ndarray | None = None
    for ordering, kwargs in CONFIGS:
        before = registry.counter_values()
        samples: list[float] = []
        result = None
        t_cell = time.perf_counter()
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = rabbit_order(graph, **kwargs)
            samples.append(time.perf_counter() - t0)
        assert result is not None
        perm = result.permutation
        validate_permutation(perm, graph.num_vertices)
        if oracle is None:
            oracle = perm
        elif not np.array_equal(perm, oracle):
            # The cells are also the equivalence gate: a speed win that
            # changes the answer is not a win.
            raise ReproError(
                f"scale cell {ordering!r} diverged from the "
                "fastseq permutation"
            )
        permuted = graph.permute(perm)
        locality = {
            "average_neighbor_gap": float(average_neighbor_gap(permuted)),
            "bandwidth": float(bandwidth(permuted)),
            "block_density_64": float(diagonal_block_density(permuted, 64)),
        }
        t1 = time.perf_counter()
        ANALYSES["pagerank"](permuted)
        pagerank_s = time.perf_counter() - t1
        total_s = time.perf_counter() - t_cell
        counters = counter_delta(before, registry.counter_values())
        counters["machine.physical_cores"] = float(machine.physical_cores)
        counters["machine.hardware_threads"] = float(machine.hardware_threads)
        results.append({
            "graph": name,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_undirected_edges),
            "ordering": ordering,
            "repeats": repeats,
            "phases": {
                "reorder_s": min(samples),
                "analysis_s": {"pagerank": pagerank_s},
                "analysis_total_s": pagerank_s,
            },
            "total_s": total_s,
            "spans": {},
            "locality": locality,
            "counters": counters,
            "percentiles": {"reorder_s": percentile_summary(samples)},
        })
    return results
