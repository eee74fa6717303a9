"""Graph serialisation: whitespace edge lists, METIS, and MatrixMarket.

These are the three formats the paper's dataset sources (SNAP, LAW exports,
DIMACS) commonly ship.  Parsers are strict and raise
:class:`~repro.errors.GraphFormatError` with line numbers on malformed
input; writers produce files the parsers round-trip exactly.

Unweighted edge lists with a one-character comment string, and
unweighted METIS files, are tokenised by the compiled library
(:mod:`repro.graph.native`) when it loaded; ``CSRGraph.from_edges``
builds the CSR either way.  The library takes a small ASCII subset of
each grammar and declines anything else.  The numpy readers run on a
decline, without the library, and for every other input: the
fixed-column formats (edge lists, MatrixMarket entries) are one
``np.loadtxt`` call, METIS adjacency lists one numpy pass over the
body's bytes.  Either way no Python code runs per line or per token
unless the input is malformed; then the numpy reader looks the
offending physical line up, so every error is the numpy reader's.  The token grammar is numpy's (``docs/API.md``).
Each read is one ``graph.read`` span, recording the ``engine``
(``native`` or ``numpy``), with ``graph.tokenize`` and
``graph.csr_build`` children.
"""

from __future__ import annotations

import io
import os
import re
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph import native
from repro.graph.csr import CSRGraph
from repro.graph.native import _span
from repro.graph.npz import load_npz

__all__ = [
    "read_graph",
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_matrix_market",
    "write_matrix_market",
]

#: ``bytes.split()``'s whitespace, which separates METIS tokens.
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[list(b" \t\n\r\x0b\x0c")] = True
#: An integer token as ``np.loadtxt`` reads one (ASCII digits, no ``_``).
_INTEGER = re.compile(r"[+-]?[0-9]+")
#: METIS neighbour ids longer than this are past every vertex count.
_DIGITS = 18
#: Suffixes ``np.loadtxt`` would decompress when given a path.
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _open_read(path_or_file):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, "r", encoding="utf-8"), True
    return path_or_file, False


def _read_text(path_or_file) -> str:
    """The whole input, every line break (``\\r\\n``, ``\\r``) as ``\\n``:
    paths open as UTF-8 with universal newlines, and a stream's text is
    translated the same way."""
    fh, should_close = _open_read(path_or_file)
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"graph file is not UTF-8 text: {exc}") from exc
    finally:
        if should_close:
            fh.close()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _read_input(path_or_file, parse=None):
    """Read the input once: ``(parsed, text, nbytes)``.

    *parse* is a compiled reader: it takes the input's bytes and returns
    its arrays, or ``None`` to decline.  It runs when the library loaded,
    on a path's bytes (unless its suffix is a compressed one) or on a
    stream's text if that is ASCII.  Otherwise, and on a decline,
    ``parsed`` is ``None`` and ``text`` is the input as the numpy readers
    take it (:func:`_read_text`): a declined path is read again, once
    its bytes are released.  ``nbytes`` is the input's size in UTF-8
    either way.
    """
    if parse is not None and native.library() is not None:
        if not isinstance(path_or_file, (str, Path)):
            text = _read_text(path_or_file)
            parsed = parse(text.encode("ascii")) if text.isascii() else None
            return parsed, text, _text_bytes(text)
        if not str(path_or_file).endswith(_COMPRESSED):
            with open(path_or_file, "rb") as fh:
                data = fh.read()
            parsed = parse(data)
            if parsed is not None:
                return parsed, None, len(data)
            del data
    text = _read_text(path_or_file)
    return None, text, _text_bytes(text)


def _integer(token: str) -> int | None:
    """*token*'s value under the integer grammar, or ``None``."""
    return int(token) if _INTEGER.fullmatch(token) else None


def _is_float(token: str) -> bool:
    """``np.loadtxt``'s float grammar: ``float()``'s, without ``_``
    separators or non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _content_line(text: str, comment: str, pos: int = 0):
    """The first line from offset *pos* on (as a match) holding something
    other than whitespace before its first *comment*, or ``None``."""
    pattern = rf"^[^\S\n]*(?!{re.escape(comment)})\S.*"
    return re.compile(pattern, re.M).search(text, pos)


def _rows(path_or_file, text, *, weighted, comment, skip=0, pos=0):
    """The ``u v [w]`` rows of a fixed-column body, read by one
    ``np.loadtxt`` call past the first *skip* lines (offset *pos*).

    A path is handed to numpy, whose own buffered file reader is twice
    as fast as reading any stream: made absolute, so that numpy never
    takes it for a URL, unless its suffix is one numpy would decompress
    (then *text* is read).  Raises ``ValueError`` on a row numpy cannot
    read; the caller names the line.
    """
    fields = [("u", np.int64), ("v", np.int64)]
    if weighted:
        fields.append(("w", np.float64))
    if _content_line(text, comment, pos) is None:
        return np.empty(0, dtype=fields)  # np.loadtxt warns on no data
    if isinstance(path_or_file, (str, Path)) and not str(path_or_file).endswith(
        _COMPRESSED
    ):
        source = os.path.abspath(path_or_file)
    else:
        source = io.StringIO(text)
    return np.loadtxt(
        source,
        dtype=fields,
        comments=comment,
        usecols=range(len(fields)),
        skiprows=skip,
        ndmin=1,
        encoding="utf-8",
    )


def _bad_line(text, comment, check, cause, *, skip=0) -> GraphFormatError:
    """Error path only: the first data line after *skip* lines that
    ``check(tokens, index)`` describes as malformed, by its physical
    line number (``index`` counts data lines from 0); *cause* is what
    found the input malformed."""
    index = 0
    for lineno, line in enumerate(text.split("\n")[skip:], start=skip + 1):
        tokens = line.split(comment, 1)[0].split()
        if not tokens:
            continue
        problem = check(tokens, index)
        if problem:
            return GraphFormatError(f"line {lineno}: {problem}")
        index += 1
    return GraphFormatError(f"unreadable graph file: {cause}")


def _open_write(path_or_file):
    # Streaming transport, not artifact installation: the text emitters
    # write multi-gigabyte edge lists incrementally for external tools,
    # where buffering the whole file for an atomic rename is the wrong
    # trade.  Durable *result* artifacts go through repro.ioutil.
    if isinstance(path_or_file, (str, Path)):
        # repro: ignore[bare-open-write] streaming writer (see above)
        return open(path_or_file, "w", encoding="utf-8"), True
    return path_or_file, False


def read_graph(path: str | os.PathLike) -> CSRGraph:
    """Read a graph file by its suffix: ``.npz`` binary, ``.graph``
    METIS, ``.mtx`` MatrixMarket, anything else a whitespace edge list."""
    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        return load_npz(path)
    if suffix == ".graph":
        return read_metis(path)
    if suffix == ".mtx":
        return read_matrix_market(path)
    return read_edge_list(path)


# ----------------------------------------------------------------------
# Whitespace edge lists (SNAP style)
# ----------------------------------------------------------------------
def read_edge_list(
    path_or_file,
    *,
    undirected: bool = True,
    weighted: bool = False,
    comment: str = "#",
) -> CSRGraph:
    """Parse a ``u v [w]`` per-line edge list (SNAP style).

    Text from *comment* to the end of its line is skipped, as are blank
    lines; columns past the ones read are ignored.  Vertex ids must be
    non-negative integers.
    """
    if not comment:
        raise ValueError("comment must be a non-empty string")
    parse = None
    if not weighted and len(comment) == 1:
        parse = lambda data: native.edge_list(data, ord(comment))  # noqa: E731
    with _span("graph.read", format="edge_list") as read:
        with _span("graph.tokenize"):
            edges, text, nbytes = _read_input(path_or_file, parse)
            weights = None
            if edges is None:
                src, dst, weights = _edge_list_rows(
                    path_or_file, text, weighted, comment
                )
            else:
                src, dst = edges
        read.set(engine="numpy" if edges is None else "native")
        with _span("graph.csr_build"):
            graph = CSRGraph.from_edges(
                src, dst, weights=weights, symmetrize=undirected
            )
        read.set(bytes=nbytes, slots=graph.num_edges)
    return graph


def _edge_list_rows(path_or_file, text, weighted, comment):
    """``(src, dst, weights)`` of an edge list, by the numpy reader."""
    check = _edge_list_check(weighted)
    try:
        rows = _rows(path_or_file, text, weighted=weighted, comment=comment)
    except ValueError as exc:
        raise _bad_line(text, comment, check, exc) from exc
    src, dst = rows["u"], rows["v"]
    if src.size and min(src.min(), dst.min()) < 0:
        raise _bad_line(text, comment, check, "negative vertex id")
    return src, dst, rows["w"] if weighted else None


def _edge_list_check(weighted):
    expected = "u v w" if weighted else "u v"

    def check(tokens, index):
        line = " ".join(tokens)
        if len(tokens) < len(expected.split()):
            return f"expected {expected}, got {line!r}"
        u, v = _integer(tokens[0]), _integer(tokens[1])
        if u is None or v is None:
            return f"non-integer vertex id in {line!r}"
        if u < 0 or v < 0:
            return "negative vertex id"
        if max(u, v) >= 2**63:
            return f"vertex id {max(u, v)} out of range (ids must be below 2**63)"
        if weighted and not _is_float(tokens[2]):
            return f"non-numeric weight in {line!r}"
        return None

    return check


def write_edge_list(graph: CSRGraph, path_or_file, *, weighted: bool | None = None) -> None:
    """Write one directed slot per line (``u v`` or ``u v w``).

    For symmetric graphs both directions are written; re-reading with
    ``undirected=False`` round-trips exactly.
    """
    if weighted is None:
        weighted = graph.is_weighted
    fh, should_close = _open_write(path_or_file)
    try:
        src, dst, w = graph.edge_array()
        if weighted:
            for u, v, ww in zip(src, dst, w):
                fh.write(f"{u} {v} {ww:.17g}\n")
        else:
            for u, v in zip(src, dst):
                fh.write(f"{u} {v}\n")
    finally:
        if should_close:
            fh.close()


# ----------------------------------------------------------------------
# METIS format
# ----------------------------------------------------------------------
def read_metis(path_or_file) -> CSRGraph:
    """Parse a METIS ``.graph`` file (1-indexed adjacency lists).

    Supports fmt codes ``0`` (unweighted) and ``1`` (edge weights).  Vertex
    weights (fmt ``10``/``11``) are rejected explicitly.  Lines whose
    first token starts with ``%`` are comments; after the header, a blank
    line is an isolated vertex's adjacency list.
    """
    with _span("graph.read", format="metis") as read:
        with _span("graph.tokenize"):
            parsed, text, nbytes = _read_input(path_or_file, native.metis_edges)
            weights = None
            if parsed is None:
                n, m, src, dst, weights = _metis_edges(text.encode("utf-8"))
            else:
                n, m, src, dst = parsed
        read.set(engine="numpy" if parsed is None else "native")
        with _span("graph.csr_build"):
            graph = CSRGraph.from_edges(
                src,
                dst,
                num_vertices=n,
                weights=weights,
                symmetrize=False,
                coalesce=True,
            )
        read.set(bytes=nbytes, slots=graph.num_edges)
    if graph.num_undirected_edges != m:
        raise GraphFormatError(
            f"METIS header declares {m} edges but adjacency lists encode "
            f"{graph.num_undirected_edges}"
        )
    return graph


def _metis_edges(data: bytes):
    """``(n, m, src, dst, weights)`` of a METIS file, from one numpy pass
    that finds every token's bytes and line."""
    buf = np.frombuffer(data, dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(_SEPARATOR[buf], prepend=True, append=True))
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    nlines = data.count(b"\n") + bool(data and not data.endswith(b"\n"))
    lead = np.ones(starts.size, dtype=bool)  # first token of its line
    lead[1:] = line[1:] != line[:-1]
    comment = np.zeros(nlines, dtype=bool)
    comment[line[lead & (buf[starts] == ord("%"))]] = True
    heads = np.flatnonzero(lead & ~comment[line])
    if not heads.size:
        raise GraphFormatError("METIS file has no header line")
    first = int(heads[0])
    hline = int(line[first])
    last = int(np.searchsorted(line, hline, side="right")) - 1
    parts = [t.decode() for t in data[starts[first] : ends[last]].split()]
    n, m, weighted = _metis_header(parts, hline + 1)

    # Every line after the header that is not a comment is an adjacency
    # list, blank ones included; surplus trailing blank lines are not.
    rows = hline + 1 + np.flatnonzero(~comment[hline + 1 :])
    count = np.bincount(line, minlength=nlines)[rows]
    found = rows.size
    if found > n:
        nonblank = np.flatnonzero(count)
        found = max(n, int(nonblank[-1]) + 1 if nonblank.size else 0)
    if found != n:
        raise GraphFormatError(
            f"METIS header declares {n} vertices but file has {found} "
            "adjacency lines"
        )
    rows, count = rows[:n], count[:n]
    body = np.flatnonzero((line > hline) & ~comment[line])
    src = np.repeat(np.arange(n, dtype=np.int64), count)

    # Rows before the first odd one are read as neighbour/weight pairs;
    # the first malformed token there, or else the odd row, is the error.
    step, limit, odd = 1, body.size, None
    if weighted:
        step = 2
        odd_rows = np.flatnonzero(count % 2)
        if odd_rows.size:
            odd = int(odd_rows[0])
            limit = int(count[:odd].sum())
    nbr = body[0:limit:step]
    value, ok = _integers(buf, starts[nbr], ends[nbr])
    bad = ~ok | (value < 1) | (value > n)
    errors = [step * int(np.argmax(bad))] if bad.any() else []
    weights = None
    if weighted:
        wtok = body[1:limit:2]
        tokens = np.array(data.split(), dtype=object)[wtok]
        weights, first_bad = _floats(data, tokens, starts[wtok], ends[wtok])
        if first_bad is not None:
            errors.append(2 * first_bad + 1)
    if errors:
        p = min(errors)
        t = body[p]
        raise _metis_token_error(
            data[starts[t] : ends[t]].decode(),
            f"line {int(line[t]) + 1}: vertex {int(src[p])}",
            n,
            weight=bool(p % step),
        )
    if odd is not None:
        raise GraphFormatError(
            f"line {int(rows[odd]) + 1}: vertex {odd}: odd token count in "
            "weighted adjacency list (expected neighbour/weight pairs)"
        )
    return n, m, src[::step], value - 1, weights


def _metis_header(parts, lineno):
    if len(parts) < 2:
        raise GraphFormatError(f"line {lineno}: METIS header needs 'n m [fmt]'")
    n, m = _integer(parts[0]), _integer(parts[1])
    if n is None or m is None:
        raise GraphFormatError(
            f"line {lineno}: non-integer vertex/edge count in METIS "
            f"header {' '.join(parts)!r}"
        )
    if n < 0 or m < 0:
        raise GraphFormatError(
            f"line {lineno}: negative vertex/edge count in METIS header"
        )
    fmt = parts[2] if len(parts) >= 3 else "0"
    if fmt not in ("0", "00", "1", "01"):
        raise GraphFormatError(
            f"line {lineno}: unsupported METIS fmt {fmt!r} (vertex weights not supported)"
        )
    return n, m, fmt in ("1", "01")


def _integers(buf, starts, ends):
    """Values of the tokens ``buf[starts:ends]`` read as ``[+-]?[0-9]+``,
    and a mask of the tokens that match.  Only the last ``_DIGITS``
    digits are summed; a token with a non-zero digit above them is past
    every vertex count and reads as the largest int64."""
    sign = buf[starts]
    first = starts + ((sign == ord("-")) | (sign == ord("+")))
    ok = ends > first
    value = np.zeros(starts.size, dtype=np.int64)
    width = min(int((ends - first).max(initial=0)), _DIGITS)
    for back in range(width, 0, -1):
        pos = ends - back
        digit = buf[pos] - np.uint8(ord("0"))  # wraps below "0"
        digit[pos < first] = 0
        ok &= digit <= 9
        value *= 10
        value += digit
    long = np.flatnonzero(ends - first > _DIGITS)
    if long.size:
        seg = np.column_stack([first[long], ends[long] - _DIGITS]).ravel()
        high = buf - np.uint8(ord("0"))
        ok[long] &= ~np.logical_or.reduceat(high > 9, seg)[::2]
        value[long[np.logical_or.reduceat(high != 0, seg)[::2]]] = np.iinfo(np.int64).max
    return np.where(sign == ord("-"), -value, value), ok


def _floats(data, tokens, starts, ends):
    """``(weights, None)``: the weight *tokens* (the bytes of
    ``data[starts:ends]``) read by ``float()``; or ``(None, index)`` of
    the first token outside the float grammar."""
    try:
        weights = tokens.astype(np.float64)
    except ValueError:
        weights = None
    if weights is not None and b"_" in data and starts.size:
        # float() accepts digit separators; the grammar does not.
        underscore = np.append(np.frombuffer(data, dtype=np.uint8) == ord("_"), False)
        seg = np.column_stack([starts, ends]).ravel()
        if np.logical_or.reduceat(underscore, seg)[::2].any():
            weights = None
    if weights is not None:
        return weights, None
    return None, next(
        i for i, token in enumerate(tokens.tolist()) if not _is_float(token.decode())
    )


def _metis_token_error(token, where, n, *, weight) -> GraphFormatError:
    if weight:
        return GraphFormatError(f"{where}: non-numeric edge weight {token!r}")
    value = _integer(token)
    if value is None:
        return GraphFormatError(f"{where}: non-integer neighbour id {token!r}")
    return GraphFormatError(f"{where}: neighbour id {value} out of range 1..{n}")


def write_metis(graph: CSRGraph, path_or_file) -> None:
    """Write a symmetric graph in METIS format (loops are dropped, as METIS
    does not support them)."""
    if not graph.is_symmetric():
        raise GraphFormatError("METIS format requires a symmetric graph")
    g = graph.without_self_loops()
    fh, should_close = _open_write(path_or_file)
    try:
        fmt = " 1" if g.is_weighted else ""
        fh.write(f"{g.num_vertices} {g.num_undirected_edges}{fmt}\n")
        for v in range(g.num_vertices):
            nbrs = g.neighbors(v)
            if g.is_weighted:
                wts = g.neighbor_weights(v)
                fh.write(
                    " ".join(f"{u + 1} {w:.17g}" for u, w in zip(nbrs, wts)) + "\n"
                )
            else:
                fh.write(" ".join(str(u + 1) for u in nbrs) + "\n")
    finally:
        if should_close:
            fh.close()


# ----------------------------------------------------------------------
# MatrixMarket coordinate format
# ----------------------------------------------------------------------
def read_matrix_market(path_or_file) -> CSRGraph:
    """Parse a MatrixMarket coordinate file as a graph.

    ``symmetric`` matrices are expanded to both directions; ``general``
    matrices are taken as-is (directed).  ``pattern`` fields yield an
    unweighted graph.  Nothing is allocated from the size line's
    counts: the entries are read, then counted against them.
    """
    with _span("graph.read", format="matrix_market") as read:
        with _span("graph.tokenize"):
            text = _read_text(path_or_file)
            banner = text.partition("\n")[0]
            if not banner.startswith("%%MatrixMarket"):
                raise GraphFormatError("missing %%MatrixMarket banner")
            tokens = banner.split()
            if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
                raise GraphFormatError(f"unsupported MatrixMarket banner: {banner!r}")
            field, symmetry = tokens[3], tokens[4]
            if field not in ("real", "integer", "pattern"):
                raise GraphFormatError(f"unsupported MatrixMarket field {field!r}")
            if symmetry not in ("general", "symmetric"):
                raise GraphFormatError(
                    f"unsupported MatrixMarket symmetry {symmetry!r}"
                )
            size = _content_line(text, "%", len(banner))
            if size is None:
                raise GraphFormatError("MatrixMarket file has no size line")
            sline = text.count("\n", 0, size.start()) + 1
            nrows, ncols, nnz = _matrix_market_size(size.group().strip(), sline)
            weighted = field != "pattern"
            check = _matrix_market_check(nrows, ncols, nnz, weighted)
            try:
                rows = _rows(
                    path_or_file, text, weighted=weighted, comment="%",
                    skip=sline, pos=size.end(),
                )
            except ValueError as exc:
                raise _bad_line(text, "%", check, exc, skip=sline) from exc
            r, c = rows["u"], rows["v"]
            if r.size > nnz or (
                r.size
                and (min(r.min(), c.min()) < 1 or r.max() > nrows or c.max() > ncols)
            ):
                raise _bad_line(text, "%", check, "entry beyond the size line", skip=sline)
            if r.size != nnz:
                raise GraphFormatError(
                    f"declared nnz {nnz} but parsed {r.size} entries"
                )
        with _span("graph.csr_build"):
            graph = CSRGraph.from_edges(
                r - 1,
                c - 1,
                num_vertices=nrows,
                weights=rows["w"] if weighted else None,
                symmetrize=(symmetry == "symmetric"),
                coalesce=True,
            )
        read.set(bytes=_text_bytes(text), slots=graph.num_edges, engine="numpy")
    return graph


def _matrix_market_size(line: str, lineno: int) -> tuple[int, int, int]:
    tokens = line.split()
    if len(tokens) < 3:
        raise GraphFormatError(
            f"line {lineno}: MatrixMarket size line needs 'rows cols nnz', "
            f"got {line!r}"
        )
    nrows, ncols, nnz = (_integer(t) for t in tokens[:3])
    if nrows is None or ncols is None or nnz is None:
        raise GraphFormatError(
            f"line {lineno}: non-integer MatrixMarket size in {line!r}"
        )
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise GraphFormatError(
            f"line {lineno}: negative MatrixMarket dimensions in {line!r}"
        )
    if nrows != ncols:
        raise GraphFormatError(
            f"adjacency matrix must be square, got {nrows}x{ncols}"
        )
    return nrows, ncols, nnz


def _matrix_market_check(nrows, ncols, nnz, weighted):
    def check(tokens, index):
        line = " ".join(tokens)
        if index >= nnz:
            return f"more entries than the declared nnz ({nnz})"
        if len(tokens) < 2:
            return f"entry needs 'row col{' value' if weighted else ''}', got {line!r}"
        r, c = _integer(tokens[0]), _integer(tokens[1])
        if r is None or c is None:
            return f"non-integer MatrixMarket index in {line!r}"
        if not 1 <= r <= nrows or not 1 <= c <= ncols:
            return f"index ({r}, {c}) out of the declared {nrows}x{ncols} range"
        if weighted and len(tokens) < 3:
            return "entry is missing its value"
        if weighted and not _is_float(tokens[2]):
            return f"non-numeric MatrixMarket value {tokens[2]!r}"
        return None

    return check


def write_matrix_market(graph: CSRGraph, path_or_file) -> None:
    """Write all directed slots as a ``general`` coordinate matrix."""
    fh, should_close = _open_write(path_or_file)
    try:
        field = "real" if graph.is_weighted else "pattern"
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {graph.num_edges}\n")
        src, dst, w = graph.edge_array()
        if graph.is_weighted:
            for u, v, ww in zip(src, dst, w):
                fh.write(f"{u + 1} {v + 1} {ww:.17g}\n")
        else:
            for u, v in zip(src, dst):
                fh.write(f"{u + 1} {v + 1}\n")
    finally:
        if should_close:
            fh.close()
