"""The CSR build and text readers as they were before slot-key sorting.

A test-only oracle, kept verbatim: ``coalesce_edges`` and ``from_edges``
order slots with a two-key ``np.lexsort``, and the three readers parse
one line and one token at a time with ``int()``/``float()``.  The
production code shares the single int64 key sort with ``permute`` and
the symmetry check, and its readers tokenise whole files in numpy, so
these stay the independent reference both are compared against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, _as_index_array


def coalesce_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort edges by ``(src, dst)`` and merge duplicates by summing weights.

    Returns the coalesced ``(src, dst, weights)`` triple.  When *weights* is
    ``None`` the duplicates are merged without accumulating multiplicity
    (i.e. the result is an unweighted simple edge set).
    """
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    if weights is not None:
        weights = weights[order]
    if src.size == 0:
        return src, dst, weights
    keep = np.empty(src.size, dtype=bool)
    keep[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
    if weights is not None:
        # Sum weights of duplicate edges into the first slot of each group.
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group, weights)
        weights = summed
    return src[keep], dst[keep], weights


def from_edges(
    src,
    dst,
    num_vertices: int | None = None,
    weights=None,
    *,
    symmetrize: bool = True,
    coalesce: bool = True,
) -> CSRGraph:
    """Build a CSR graph from parallel source/destination arrays.

    Parameters
    ----------
    symmetrize:
        add the reversed copy of every non-loop edge, producing an
        undirected (symmetric) graph.
    coalesce:
        sort and merge duplicate edges (weights summed).
    """
    src = _as_index_array(np.asarray(src), "src")
    dst = _as_index_array(np.asarray(dst), "dst")
    if src.shape != dst.shape:
        raise GraphFormatError(
            f"src shape {src.shape} must match dst shape {dst.shape}"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise GraphFormatError("weights must be parallel to src/dst")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    observed = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    n = observed if num_vertices is None else int(num_vertices)
    if n < observed:
        raise GraphFormatError(
            f"num_vertices={n} is smaller than max vertex id {observed - 1}"
        )
    if symmetrize:
        nonloop = src != dst
        rev_src, rev_dst = dst[nonloop], src[nonloop]
        src = np.concatenate([src, rev_src])
        dst = np.concatenate([dst, rev_dst])
        if weights is not None:
            weights = np.concatenate([weights, weights[nonloop]])
    if coalesce:
        src, dst, weights = coalesce_edges(src, dst, weights)
    else:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if weights is not None:
            weights = weights[order]
    counts = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=dst, weights=weights)


def _open_read(path_or_file):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, "r", encoding="utf-8"), True
    return path_or_file, False


def read_edge_list(
    path_or_file,
    *,
    undirected: bool = True,
    weighted: bool = False,
    comment: str = "#",
) -> CSRGraph:
    """Parse a ``u v [w]`` per-line edge list (SNAP style).

    Lines starting with *comment* are skipped.  Vertex ids must be
    non-negative integers.
    """
    fh, should_close = _open_read(path_or_file)
    try:
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) < 2 or (weighted and len(parts) < 3):
                raise GraphFormatError(
                    f"line {lineno}: expected "
                    f"{'u v w' if weighted else 'u v'}, got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer vertex id in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id")
            srcs.append(u)
            dsts.append(v)
            if weighted:
                try:
                    ws.append(float(parts[2]))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {lineno}: non-numeric weight in {line!r}"
                    ) from exc
        return from_edges(
            np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            weights=np.array(ws, dtype=np.float64) if weighted else None,
            symmetrize=undirected,
        )
    finally:
        if should_close:
            fh.close()


def read_metis(path_or_file) -> CSRGraph:
    """Parse a METIS ``.graph`` file (1-indexed adjacency lists).

    Supports fmt codes ``0`` (unweighted) and ``1`` (edge weights).  Vertex
    weights (fmt ``10``/``11``) are rejected explicitly.
    """
    fh, should_close = _open_read(path_or_file)
    try:
        header = None
        rows: list[tuple[int, list[str]]] = []
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped.startswith("%"):
                continue
            if header is None:
                # Blank lines before the header are ignorable; after it,
                # a blank line is an isolated vertex's (empty) adjacency.
                if not stripped:
                    continue
                header = (lineno, stripped.split())
            else:
                rows.append((lineno, stripped.split()))
        if header is None:
            raise GraphFormatError("METIS file has no header line")
        hline, parts = header
        if len(parts) < 2:
            raise GraphFormatError(f"line {hline}: METIS header needs 'n m [fmt]'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {hline}: non-integer vertex/edge count in METIS "
                f"header {' '.join(parts)!r}"
            ) from exc
        if n < 0 or m < 0:
            raise GraphFormatError(
                f"line {hline}: negative vertex/edge count in METIS header"
            )
        fmt = parts[2] if len(parts) >= 3 else "0"
        if fmt not in ("0", "00", "1", "01"):
            raise GraphFormatError(
                f"line {hline}: unsupported METIS fmt {fmt!r} (vertex weights not supported)"
            )
        has_ew = fmt in ("1", "01")
        # Tolerate trailing blank lines (e.g. editor-added final newline).
        while len(rows) > n and not rows[-1][1]:
            rows.pop()
        if len(rows) != n:
            raise GraphFormatError(
                f"METIS header declares {n} vertices but file has {len(rows)} adjacency lines"
            )
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        for u, (lineno, tokens) in enumerate(rows):
            if has_ew and len(tokens) % 2 != 0:
                raise GraphFormatError(
                    f"line {lineno}: vertex {u}: odd token count in weighted "
                    "adjacency list (expected neighbour/weight pairs)"
                )
            step = 2 if has_ew else 1
            for i in range(0, len(tokens), step):
                try:
                    v = int(tokens[i]) - 1
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {lineno}: vertex {u}: non-integer neighbour "
                        f"id {tokens[i]!r}"
                    ) from exc
                if v < 0 or v >= n:
                    raise GraphFormatError(
                        f"line {lineno}: vertex {u}: neighbour id {v + 1} "
                        f"out of range 1..{n}"
                    )
                srcs.append(u)
                dsts.append(v)
                if has_ew:
                    try:
                        ws.append(float(tokens[i + 1]))
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"line {lineno}: vertex {u}: non-numeric edge "
                            f"weight {tokens[i + 1]!r}"
                        ) from exc
        graph = from_edges(
            np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            num_vertices=n,
            weights=np.array(ws, dtype=np.float64) if has_ew else None,
            symmetrize=False,
            coalesce=True,
        )
        if graph.num_undirected_edges != m:
            raise GraphFormatError(
                f"METIS header declares {m} edges but adjacency lists encode "
                f"{graph.num_undirected_edges}"
            )
        return graph
    finally:
        if should_close:
            fh.close()


def read_matrix_market(path_or_file) -> CSRGraph:
    """Parse a MatrixMarket coordinate file as a graph.

    ``symmetric`` matrices are expanded to both directions; ``general``
    matrices are taken as-is (directed).  ``pattern`` fields yield an
    unweighted graph.
    """
    fh, should_close = _open_read(path_or_file)
    try:
        banner = fh.readline()
        if not banner.startswith("%%MatrixMarket"):
            raise GraphFormatError("missing %%MatrixMarket banner")
        tokens = banner.strip().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise GraphFormatError(f"unsupported MatrixMarket banner: {banner!r}")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("real", "integer", "pattern"):
            raise GraphFormatError(f"unsupported MatrixMarket field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(f"unsupported MatrixMarket symmetry {symmetry!r}")
        size_line = None
        lineno = 1  # the banner was line 1
        for line in fh:
            lineno += 1
            s = line.strip()
            if s and not s.startswith("%"):
                size_line = (lineno, s)
                break
        if size_line is None:
            raise GraphFormatError("MatrixMarket file has no size line")
        sline, s = size_line
        size_tokens = s.split()
        if len(size_tokens) < 3:
            raise GraphFormatError(
                f"line {sline}: MatrixMarket size line needs 'rows cols nnz', "
                f"got {s!r}"
            )
        try:
            nrows, ncols, nnz = (int(t) for t in size_tokens[:3])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {sline}: non-integer MatrixMarket size in {s!r}"
            ) from exc
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise GraphFormatError(
                f"line {sline}: negative MatrixMarket dimensions in {s!r}"
            )
        if nrows != ncols:
            raise GraphFormatError(
                f"adjacency matrix must be square, got {nrows}x{ncols}"
            )
        srcs = np.empty(nnz, dtype=np.int64)
        dsts = np.empty(nnz, dtype=np.int64)
        ws = np.empty(nnz, dtype=np.float64) if field != "pattern" else None
        k = 0
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            parts = s.split()
            if k >= nnz:
                raise GraphFormatError(
                    f"line {lineno}: more entries than the declared nnz ({nnz})"
                )
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: entry needs 'row col"
                    f"{'' if ws is None else ' value'}', got {s!r}"
                )
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer MatrixMarket index in {s!r}"
                ) from exc
            if not 1 <= r <= nrows or not 1 <= c <= ncols:
                raise GraphFormatError(
                    f"line {lineno}: index ({r}, {c}) out of the declared "
                    f"{nrows}x{ncols} range"
                )
            srcs[k] = r - 1
            dsts[k] = c - 1
            if ws is not None:
                if len(parts) < 3:
                    raise GraphFormatError(f"entry line {lineno}: missing value")
                try:
                    ws[k] = float(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {lineno}: non-numeric MatrixMarket value "
                        f"{parts[2]!r}"
                    ) from exc
            k += 1
        if k != nnz:
            raise GraphFormatError(f"declared nnz {nnz} but parsed {k} entries")
        return from_edges(
            srcs,
            dsts,
            num_vertices=nrows,
            weights=ws,
            symmetrize=(symmetry == "symmetric"),
            coalesce=True,
        )
    finally:
        if should_close:
            fh.close()
