"""R-MAT / stochastic Kronecker graph generator.

R-MAT (recursive matrix) graphs reproduce the heavy-tailed degree
distributions and self-similar community structure of web and social
graphs, which is exactly the regime the paper's datasets (enwiki,
ljournal, twitter, uk-*, sk-2005, webbase) live in.  The generator is
fully vectorised: all ``scale`` bit decisions for all edges are drawn in
one ``(num_edges, scale)`` batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["rmat_graph"]


def rmat_graph(
    scale: int,
    edge_factor: float = 8.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    *,
    rng: np.random.Generator | int | None = 0,
    undirected: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    edge_factor:
        expected edges per vertex before deduplication.
    a, b, c:
        the R-MAT quadrant probabilities; ``d = 1 - a - b - c``.  The
        Graph500 defaults (0.57, 0.19, 0.19) give strong skew; more uniform
        values give weaker communities (used for the twitter stand-in).
    """
    if scale < 0 or scale > 30:
        raise GraphFormatError(f"scale must be in [0, 30], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise GraphFormatError(f"invalid quadrant probabilities a={a} b={b} c={c}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = 1 << scale
    m = int(round(edge_factor * n))
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Quadrant choice per bit level, vectorised over all edges at once.
    for _level in range(scale):
        r = rng.random(m)
        right = r >= a + b  # falls into quadrant c or d -> row bit 1
        r_col = (r >= a) & (r < a + b)  # quadrant b -> col bit 1
        r_col |= r >= a + b + c  # quadrant d -> col bit 1
        src = (src << 1) | right.astype(np.int64)
        dst = (dst << 1) | r_col.astype(np.int64)
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return CSRGraph.from_edges(
        src, dst, num_vertices=n, symmetrize=undirected, coalesce=True
    )
