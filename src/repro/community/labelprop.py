"""Label propagation with the Absolute Potts Model resolution parameter.

Plain label propagation (Raghavan et al. 2007, paper ref [32]) is the
γ = 0 case; γ > 0 penalises large labels (APM, the rule Layered Label
Propagation layers over).  A vertex adopts the label maximising

    k_l - γ (v_l - k_l)

where ``k_l`` is the number of neighbours carrying label ``l`` and
``v_l`` the total number of vertices carrying it.

The update is vectorised and *chunked-asynchronous*: each iteration
shuffles the vertices, splits them into chunks, and updates one chunk at
a time against the freshest labels — the semi-asynchronous middle ground
that avoids the label-oscillation pathology of fully synchronous updates
while keeping numpy-level batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["LabelPropResult", "label_propagation"]


@dataclass(frozen=True)
class LabelPropResult:
    labels: np.ndarray
    iterations: int
    work: float  # slot touches (cost-model input)
    converged: bool


def _row_slots(graph: CSRGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR slots of *rows*: returns (slot_indices, source_row_per_slot)."""
    indptr = graph.indptr
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    slots = np.arange(total, dtype=np.int64) - offsets + np.repeat(indptr[rows], counts)
    return slots, np.repeat(rows, counts)


def label_propagation(
    graph: CSRGraph,
    *,
    gamma: float = 0.0,
    max_iterations: int = 20,
    chunks: int = 8,
    min_change_fraction: float = 0.001,
    init_labels: np.ndarray | None = None,
    rng: np.random.Generator | int | None = 0,
) -> LabelPropResult:
    """Run chunked-asynchronous APM label propagation.

    Stops when an iteration changes fewer than
    ``min_change_fraction * n`` labels, or after *max_iterations*.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = graph.num_vertices
    if init_labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(init_labels, dtype=np.int64).copy()
        if labels.shape != (n,):
            raise GraphFormatError(
                f"init_labels must have shape ({n},), got {labels.shape}"
            )
    if n == 0:
        return LabelPropResult(labels, 0, 0.0, True)
    vol = np.bincount(labels, minlength=n).astype(np.float64)
    indices = graph.indices
    work = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        perm = rng.permutation(n)
        changed = 0
        for chunk in np.array_split(perm, max(1, chunks)):
            if chunk.size == 0:
                continue
            slots, src = _row_slots(graph, chunk)
            if slots.size == 0:
                continue
            work += float(slots.size)
            nbr_label = labels[indices[slots]]
            # Count occurrences of each (row, label) pair.
            composite = src * np.int64(n) + nbr_label
            uniq, counts = np.unique(composite, return_counts=True)
            pair_row = uniq // n
            pair_label = uniq % n
            score = counts.astype(np.float64)
            if gamma != 0.0:
                score = score - gamma * (vol[pair_label] - counts)
            # Per-row argmax with a random tie-break.
            tie = rng.random(uniq.size)
            sel = np.lexsort((tie, score, pair_row))
            last_of_row = np.flatnonzero(
                np.r_[pair_row[sel][1:] != pair_row[sel][:-1], True]
            )
            best_rows = pair_row[sel][last_of_row]
            best_labels = pair_label[sel][last_of_row]
            old = labels[best_rows]
            moved = old != best_labels
            if not np.any(moved):
                continue
            mr, ml, mo = best_rows[moved], best_labels[moved], old[moved]
            np.add.at(vol, mo, -1.0)
            np.add.at(vol, ml, 1.0)
            labels[mr] = ml
            changed += int(moved.sum())
        if changed <= min_change_fraction * n:
            converged = True
            break
    return LabelPropResult(
        labels=labels, iterations=iterations, work=work, converged=converged
    )
