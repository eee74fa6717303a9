"""Content-addressed graph identity: the shared fingerprint helper.

One fingerprint serves two consumers that must agree on it exactly:

* **checkpoint binding** (:mod:`repro.resilience.checkpoint`) — a
  snapshot written for one detection problem must be rejected when
  resumed against a different graph or parameterisation;
* **the serving cache** (:mod:`repro.serve.cache`) — a permutation
  computed for one graph must be returned *only* for byte-identical
  requests of the same problem, across daemon restarts and machines.

The fingerprint therefore covers the *problem*, not the solver: the CSR
arrays (``indptr``/``indices``/``weights``) plus the decision parameters
(merge threshold, visit order, visit RNG).  It deliberately excludes
every piece of engine or runtime state — and is stable across
:class:`~repro.graph.csr.CSRGraph`'s lazily-built caches
(``degrees``/``row_of_slot``/``edge_weights``/``matvec_operator``), which
materialise as a side effect of use but never change the graph itself.

:func:`fingerprint_key` collapses the fingerprint dict into a fixed-width
hex digest suitable for file names and dictionary keys (the
content-addressing key of the permutation cache).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

__all__ = ["graph_fingerprint", "fingerprint_key"]


def graph_fingerprint(
    graph,
    *,
    merge_threshold: float = 0.0,
    visit: str = "degree",
    visit_rng: int | None = 0,
) -> dict[str, Any]:
    """Identity of the detection *problem* (not the engine solving it).

    Engines may change across a resume (that is the degradation ladder's
    whole point) and across cache hits (any rung's permutation is
    bit-identical); the graph and the decision parameters may not — a
    checkpoint or cached permutation for a different graph or threshold
    must be rejected as stale rather than silently producing a
    plausible-looking hybrid.
    """
    # SHA-256 over the raw CSR bytes: a 32-bit checksum would let two
    # distinct graphs with equal n/edge counts collide at the birthday
    # bound (~65k cached graphs), and a collision here serves a *wrong
    # permutation as authoritative*.  Array boundaries are unambiguous
    # because the n/edges fields pin each array's length.
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.indices).tobytes())
    if graph.weights is not None:
        digest.update(np.ascontiguousarray(graph.weights).tobytes())
    return {
        "n": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "graph_sha256": digest.hexdigest(),
        "merge_threshold": float(merge_threshold),
        "visit": str(visit),
        "visit_rng": None if visit_rng is None else int(visit_rng),
    }


def fingerprint_key(fingerprint: dict[str, Any]) -> str:
    """Collapse a fingerprint dict into a stable 32-hex-char key.

    The key is the truncated SHA-256 of the canonical JSON rendering
    (sorted keys, no whitespace), so it is identical for equal
    fingerprints regardless of dict insertion order, process, or
    machine — the property the content-addressed cache relies on to
    survive daemon restarts.
    """
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]
