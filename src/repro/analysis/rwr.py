"""Random Walk with Restart (paper §II-A's second SpMV workload).

RWR scores vertices by proximity to a *seed* vertex: a walker follows
edges with probability ``1 - c`` and teleports back to the seed with
probability ``c`` (Pan et al., KDD'04 — the paper's reference [14]).
The iteration is the same SpMV pattern as PageRank with a personalised
restart vector, so it inherits exactly the locality behaviour reordering
targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.obs.trace import span

__all__ = ["RWRResult", "random_walk_with_restart"]


@dataclass(frozen=True)
class RWRResult:
    scores: np.ndarray
    iterations: int
    residual: float


def random_walk_with_restart(
    graph: CSRGraph,
    seed: int,
    *,
    restart: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    raise_on_no_convergence: bool = False,
) -> RWRResult:
    """Steady-state visiting distribution of a restarting walker.

    Returns scores summing to 1; ``scores[seed]`` is always the largest
    for restart probabilities above the graph's mixing threshold.
    """
    n = graph.num_vertices
    seed = int(seed)
    if not (0 <= seed < n):
        raise GraphFormatError(f"seed {seed} out of range [0, {n})")
    if not (0.0 < restart <= 1.0):
        raise GraphFormatError(f"restart must be in (0, 1], got {restart}")
    deg = graph.weighted_degrees()
    dangling = deg == 0.0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    dangling_ids = np.flatnonzero(dangling)
    e = np.zeros(n, dtype=np.float64)
    e[seed] = 1.0
    restart_e = restart * e
    damping = 1.0 - restart
    operator = graph.matvec_operator()
    scaled = np.empty(n, dtype=np.float64)
    diff = np.empty(n, dtype=np.float64)
    s = e.copy()
    residual = np.inf
    iterations = 0
    with span("analysis.rwr", n=n, seed=seed) as sp:
        for iterations in range(1, max_iterations + 1):
            np.multiply(s, inv_deg, out=scaled)
            s_next = operator @ scaled
            # Dangling mass restarts at the seed (walker has nowhere to go).
            s_next[seed] += float(s[dangling_ids].sum())
            # s_next = (1 - c) * spread + c * e, in place.
            s_next *= damping
            s_next += restart_e
            np.subtract(s_next, s, out=diff)
            residual = float(np.abs(diff, out=diff).sum())
            s = s_next
            if residual < tolerance:
                break
        else:
            if raise_on_no_convergence:
                raise ConvergenceError(
                    f"RWR did not reach {tolerance} within {max_iterations} "
                    f"iterations (residual {residual:.3e})"
                )
        sp.set(iterations=iterations)
    return RWRResult(scores=s, iterations=iterations, residual=residual)
