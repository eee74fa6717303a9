"""Hierarchical planted-partition (nested SBM) generator.

The paper's hierarchical community-based ordering is motivated by graphs
whose communities nest recursively (Figure 3).  This generator produces
exactly that structure: a balanced hierarchy of ``levels`` community
levels, with edge probability decaying geometrically as the lowest common
community of the endpoints gets coarser.  It doubles as a ground-truth
source for community-detection tests: the generator returns the planted
block id of every vertex at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["HierarchicalGraph", "hierarchical_community_graph"]


@dataclass(frozen=True)
class HierarchicalGraph:
    """Result bundle of :func:`hierarchical_community_graph`.

    Attributes
    ----------
    graph:
        the generated symmetric :class:`CSRGraph`.
    block_of:
        array of shape ``(levels, n)``; ``block_of[l][v]`` is vertex v's
        community id at level ``l`` (level 0 = finest).
    """

    graph: CSRGraph
    block_of: np.ndarray

    @property
    def levels(self) -> int:
        return self.block_of.shape[0]


def hierarchical_community_graph(
    num_vertices: int,
    *,
    branching: int = 4,
    levels: int = 3,
    p_in: float = 0.3,
    decay: float = 0.12,
    rng: np.random.Generator | int | None = 0,
    shuffle: bool = True,
) -> HierarchicalGraph:
    """Generate a graph with ``branching**levels`` leaf communities.

    Vertex pairs in the same *leaf* community are connected with
    probability ``p_in``; pairs whose lowest common community is ``k``
    levels above the leaves connect with probability ``p_in * decay**k``.

    The construction is vectorised per community: for each level we sample
    Bernoulli edges between sibling blocks using a binomial count + uniform
    pair draw, never materialising the dense pair matrix.

    ``shuffle`` randomly relabels vertices afterwards so the natural
    ordering carries no locality (the paper likewise randomises publisher
    orderings before measuring).
    """
    if num_vertices <= 0:
        raise GraphFormatError("num_vertices must be positive")
    if branching < 2:
        raise GraphFormatError("branching must be >= 2")
    if levels < 1:
        raise GraphFormatError("levels must be >= 1")
    if not (0.0 < p_in <= 1.0):
        raise GraphFormatError("p_in must be in (0, 1]")
    if not (0.0 <= decay < 1.0):
        raise GraphFormatError("decay must be in [0, 1)")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = int(num_vertices)
    num_leaves = branching**levels
    # Assign vertices to leaves contiguously (then optionally shuffled).
    leaf_of = (np.arange(n, dtype=np.int64) * num_leaves) // n

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []

    leaf_starts = np.searchsorted(leaf_of, np.arange(num_leaves))
    leaf_ends = np.searchsorted(leaf_of, np.arange(num_leaves), side="right")

    def sample_pairs(n_left: int, n_right: int, p: float, same: bool) -> tuple[np.ndarray, np.ndarray]:
        """Sample Bernoulli(p) pairs between (or within, if same) blocks."""
        if same:
            total = n_left * (n_left - 1) // 2
        else:
            total = n_left * n_right
        if total == 0 or p <= 0.0:
            return (np.empty(0, dtype=np.int64),) * 2
        count = rng.binomial(total, p)
        if count == 0:
            return (np.empty(0, dtype=np.int64),) * 2
        # Draw `count` distinct pair indices; duplicates are coalesced later
        # so sampling with replacement only loses a negligible few edges.
        flat = rng.integers(0, total, size=count, dtype=np.int64)
        if same:
            # Map flat index f to the pair (j < i) with f = i(i-1)/2 + j.
            i = (np.floor((1 + np.sqrt(8.0 * flat + 1)) / 2)).astype(np.int64)
            j = flat - i * (i - 1) // 2
            # Guard float slop at triangle boundaries in both directions.
            under = j < 0
            i[under] -= 1
            over = j >= i
            i[over] += 1
            bad = under | over
            j[bad] = flat[bad] - i[bad] * (i[bad] - 1) // 2
            return i, j
        return flat // n_right, flat % n_right

    # Level 0: intra-leaf edges.
    for leaf in range(num_leaves):
        lo, hi = int(leaf_starts[leaf]), int(leaf_ends[leaf])
        size = hi - lo
        i, j = sample_pairs(size, size, p_in, same=True)
        srcs.append(i + lo)
        dsts.append(j + lo)

    # Levels 1..levels-? : edges between sibling subtrees at each level.
    blocks_at_level = [leaf_of]
    current = leaf_of
    for lvl in range(1, levels):
        current = current // branching
        blocks_at_level.append(current.copy())
        p = p_in * (decay**lvl)
        num_blocks = num_leaves // (branching**lvl)
        starts = np.searchsorted(current, np.arange(num_blocks))
        ends = np.searchsorted(current, np.arange(num_blocks), side="right")
        # Pairs of child blocks (one level finer) inside each block, only
        # across *different* children so leaf-level p_in is not re-applied.
        child = blocks_at_level[lvl - 1]
        for blk in range(num_blocks):
            lo, hi = int(starts[blk]), int(ends[blk])
            kids = np.unique(child[lo:hi])
            for ai in range(kids.size):
                a_lo = int(np.searchsorted(child, kids[ai]))
                a_hi = int(np.searchsorted(child, kids[ai], side="right"))
                for bi in range(ai + 1, kids.size):
                    b_lo = int(np.searchsorted(child, kids[bi]))
                    b_hi = int(np.searchsorted(child, kids[bi], side="right"))
                    i, j = sample_pairs(a_hi - a_lo, b_hi - b_lo, p, same=False)
                    srcs.append(i + a_lo)
                    dsts.append(j + b_lo)

    # Top level: sparse edges between the `branching` level-(levels-1) blocks.
    top = current // branching if levels >= 1 else current
    p_top = p_in * (decay**levels)
    top_blocks = np.unique(current)
    for ai in range(top_blocks.size):
        a_lo = int(np.searchsorted(current, top_blocks[ai]))
        a_hi = int(np.searchsorted(current, top_blocks[ai], side="right"))
        for bi in range(ai + 1, top_blocks.size):
            b_lo = int(np.searchsorted(current, top_blocks[bi]))
            b_hi = int(np.searchsorted(current, top_blocks[bi], side="right"))
            i, j = sample_pairs(a_hi - a_lo, b_hi - b_lo, p_top, same=False)
            srcs.append(i + a_lo)
            dsts.append(j + b_lo)
    del top

    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)

    block_of = np.stack(blocks_at_level)
    if shuffle:
        relabel = rng.permutation(n).astype(np.int64)
        src = relabel[src]
        dst = relabel[dst]
        shuffled = np.empty_like(block_of)
        shuffled[:, relabel] = block_of
        block_of = shuffled

    graph = CSRGraph.from_edges(src, dst, num_vertices=n, symmetrize=True)
    return HierarchicalGraph(graph=graph, block_of=block_of)
