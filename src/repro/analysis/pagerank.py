"""PageRank (paper §IV-A, Equation 2).

    s_{k+1} = (1 - c) * W * s_k + c * e

with teleportation ``c = 0.15``, ``e = (1/n, ..., 1/n)``, and
``W[u, v] = 1/d(v)`` for connected ``u, v``.  Convergence is
``|s_{k+1} - s_k| < 1e-10`` (L1 norm), following the paper's setting.

``W s`` is computed as ``A (s / d)``; mass at dangling vertices
(degree 0) is redistributed uniformly so the scores stay a probability
distribution (the paper's graphs have no isolated vertices so this does
not change its experiments; it keeps ours well-defined on arbitrary
inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.obs.trace import span

__all__ = ["PageRankResult", "pagerank", "DEFAULT_TELEPORT", "DEFAULT_TOLERANCE"]

DEFAULT_TELEPORT = 0.15
DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PageRankResult:
    scores: np.ndarray
    iterations: int
    residual: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def converged(self) -> bool:
        """The run stopped below the tolerance it was given."""
        return self.residual < self.tolerance


def pagerank(
    graph: CSRGraph,
    *,
    teleport: float = DEFAULT_TELEPORT,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = 1000,
    raise_on_no_convergence: bool = False,
) -> PageRankResult:
    """Power iteration for Equation 2.

    Returns scores summing to 1.  ``iterations`` is the number of SpMV
    applications performed, which the cost model multiplies by the
    per-iteration simulated cycle count.
    """
    n = graph.num_vertices
    if n == 0:
        return PageRankResult(np.zeros(0), 0, 0.0, tolerance)
    deg = graph.weighted_degrees()
    dangling = deg == 0.0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    dangling_ids = np.flatnonzero(dangling)
    s = np.full(n, 1.0 / n, dtype=np.float64)
    base = teleport / n
    damping = 1.0 - teleport
    operator = graph.matvec_operator()
    scaled = np.empty(n, dtype=np.float64)
    diff = np.empty(n, dtype=np.float64)
    residual = np.inf
    iterations = 0
    with span("analysis.pagerank", n=n) as sp:
        for iterations in range(1, max_iterations + 1):
            # s_next = (1 - c) * (A (s / d) + dangling mass) + c / n, one
            # elementwise step at a time into the matvec's fresh result.
            np.multiply(s, inv_deg, out=scaled)
            s_next = operator @ scaled
            s_next += float(s[dangling_ids].sum()) / n
            s_next *= damping
            s_next += base
            np.subtract(s_next, s, out=diff)
            residual = float(np.abs(diff, out=diff).sum())
            s = s_next
            if residual < tolerance:
                break
        else:
            if raise_on_no_convergence:
                raise ConvergenceError(
                    f"PageRank did not reach {tolerance} within {max_iterations} "
                    f"iterations (residual {residual:.3e})"
                )
        sp.set(iterations=iterations)
    return PageRankResult(
        scores=s, iterations=iterations, residual=residual, tolerance=tolerance
    )
