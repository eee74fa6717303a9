"""Generate one workload's inputs from its seed, before anything is timed.

Runs in its own process (``python3 perfbench/inputs.py --workload W
--seed S --out DIR``) so that generation never shows in the measuring
process's time or peak RSS.  The generators here are the benchmark's
own NumPy code, not the program's, so a seed names the same inputs at
every commit of the program.

Files written to ``DIR``:

* social-rwr: ``graph.txt`` (SNAP edge list), ``edges.npy``,
  ``random_perm.npy``, ``queries.json``
* road-bfs: ``graph.graph`` (METIS), ``edges.npy``, ``random_perm.npy``,
  ``queries.json``
* serve-zipf: ``catalogue.json`` (inline edge lists + request sequence)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

#: social-rwr: Graph500 R-MAT, scale 17, edge factor 8.
SOCIAL_SCALE = 17
SOCIAL_EDGE_FACTOR = 8
RWR_QUERIES = 5
#: road-bfs: perturbed 362 x 362 lattice (the DIMACS10 road stand-in).
ROAD_SIDE = 362
ROAD_DROP_P = 0.05
ROAD_DIAGONAL_P = 0.05
BFS_QUERIES = 16
#: serve-zipf: catalogue of small R-MATs, Zipf-popular requests.
SERVE_GRAPHS = 48
SERVE_SCALES = (10, 11, 12)
SERVE_EDGE_FACTOR = 4
SERVE_REQUESTS = 300
SERVE_ZIPF_S = 1.1

WORKLOADS = ("social-rwr", "road-bfs", "serve-zipf")


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator,
               a: float = 0.57, b: float = 0.19, c: float = 0.19):
    """Undirected R-MAT edges, each once as ``u < v``, ids as generated."""
    m = edge_factor << scale
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        row = r >= a + b
        col = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src = (src << 1) | row
        dst = (dst << 1) | col
    return _canonical(src, dst)


def lattice_edges(side: int, rng: np.random.Generator):
    """Undirected edges of a perturbed ``side x side`` grid with shuffled
    ids: each grid edge dropped with ``ROAD_DROP_P``, a diagonal
    shortcut added per cell with ``ROAD_DIAGONAL_P``.  Also returns the
    id of each grid cell (row-major)."""
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    src = [idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    dst = [idx[:, 1:].ravel(), idx[1:, :].ravel()]
    diag = rng.random((side - 1) ** 2) < ROAD_DIAGONAL_P
    src.append(idx[:-1, :-1].ravel()[diag])
    dst.append(idx[1:, 1:].ravel()[diag])
    s, d = np.concatenate(src), np.concatenate(dst)
    keep = rng.random(s.size) >= ROAD_DROP_P
    relabel = rng.permutation(side * side).astype(np.int64)
    return (*_canonical(relabel[s[keep]], relabel[d[keep]]), relabel)


def lattice_sources(side: int, relabel: np.ndarray, degree: np.ndarray,
                    rng: np.random.Generator, count: int) -> list[int]:
    """One non-isolated source per block of a k x k split of the grid:
    a BFS's cost follows its source's eccentricity, so stratifying by
    position keeps the mix of near-centre and near-corner sources the
    same for every seed."""
    k = int(round(count ** 0.5))
    cuts = np.linspace(0, side, k + 1).astype(int)
    sources = []
    for bi in range(k):
        for bj in range(k):
            while True:
                r = rng.integers(cuts[bi], cuts[bi + 1])
                c = rng.integers(cuts[bj], cuts[bj + 1])
                v = int(relabel[r * side + c])
                if degree[v]:
                    break
            sources.append(v)
    return sources


def _canonical(src: np.ndarray, dst: np.ndarray):
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def write_snap(path: Path, src: np.ndarray, dst: np.ndarray, n: int) -> None:
    lines = [f"# Undirected graph: R-MAT scale {SOCIAL_SCALE}",
             f"# Nodes: {n} Edges: {src.size}"]
    lines.extend(f"{u}\t{v}" for u, v in zip(src.tolist(), dst.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_metis(path: Path, src: np.ndarray, dst: np.ndarray, n: int) -> None:
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order] + 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    text = cols.astype(str).tolist()
    lines = [f"{n} {src.size}"]
    lines.extend(" ".join(text[indptr[v]:indptr[v + 1]]) for v in range(n))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def batch_inputs(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])
    if workload == "social-rwr":
        src, dst = rmat_edges(SOCIAL_SCALE, SOCIAL_EDGE_FACTOR, rng)
        # A SNAP reader knows only the ids it sees: trailing isolated
        # ids are not part of the loaded graph.
        n = int(max(src.max(), dst.max())) + 1
        write_snap(out / "graph.txt", src, dst, n)
        degree = np.bincount(np.concatenate([src, dst]), minlength=n)
        sources = rng.choice(np.flatnonzero(degree), size=RWR_QUERIES,
                             replace=False)
        kind = "rwr"
    else:
        src, dst, relabel = lattice_edges(ROAD_SIDE, rng)
        n = ROAD_SIDE * ROAD_SIDE
        write_metis(out / "graph.graph", src, dst, n)
        degree = np.bincount(np.concatenate([src, dst]), minlength=n)
        sources = lattice_sources(ROAD_SIDE, relabel, degree, rng, BFS_QUERIES)
        kind = "bfs"
    np.save(out / "edges.npy", np.stack([src, dst]))
    np.save(out / "random_perm.npy", rng.permutation(n).astype(np.int64))
    (out / "queries.json").write_text(json.dumps({
        "kind": kind,
        "n": n,
        "undirected_edges": int(src.size),
        "sources": [int(s) for s in sources],
    }))


def zipf_counts() -> np.ndarray:
    """Requests per popularity rank: ``SERVE_REQUESTS`` split in
    proportion to Zipf(``SERVE_ZIPF_S``) by largest remainder.  Fixed
    counts in a seeded order keep the hit/miss mix the same for every
    seed, so seeds differ in graphs and arrival order, not in how many
    requests miss."""
    weights = 1.0 / np.arange(1, SERVE_GRAPHS + 1) ** SERVE_ZIPF_S
    share = SERVE_REQUESTS * weights / weights.sum()
    counts = np.floor(share).astype(np.int64)
    short = SERVE_REQUESTS - int(counts.sum())
    counts[np.argsort(counts - share, kind="stable")[:short]] += 1
    return counts


def serve_inputs(seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index("serve-zipf")])
    graphs = []
    for rank in range(SERVE_GRAPHS):
        # Scales cycle with popularity rank, so every seed puts the same
        # mix of sizes at the head and in the tail of the distribution.
        scale = SERVE_SCALES[rank % len(SERVE_SCALES)]
        src, dst = rmat_edges(scale, SERVE_EDGE_FACTOR, rng)
        graphs.append({
            "n": 1 << scale,
            "edges": np.stack([src, dst], axis=1).tolist(),
        })
    requests = rng.permutation(np.repeat(np.arange(SERVE_GRAPHS), zipf_counts()))
    (out / "catalogue.json").write_text(json.dumps({
        "graphs": graphs,
        "requests": [int(r) for r in requests],
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve-zipf":
        serve_inputs(args.seed, args.out)
    else:
        batch_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
