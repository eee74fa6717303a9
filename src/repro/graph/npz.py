"""Binary graph serialisation (NumPy ``.npz``).

The text formats in :mod:`repro.graph.io` match the dataset publishers';
for checkpointing generated suites and reordered graphs the compressed
binary format is ~10x smaller and loads in microseconds.  The three CSR
arrays are stored verbatim, so save→load is exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.ioutil import MALFORMED_NPZ, atomic_numpy_save, require_npz_fits

__all__ = ["save_npz", "load_npz"]

_FORMAT_VERSION = 1


def save_npz(graph: CSRGraph, path) -> None:
    """Write *graph* to ``path`` (a ``.npz`` archive, compressed).

    The archive is installed atomically (tmp + fsync + rename): a run
    killed mid-save can never leave a torn archive behind.
    """
    payload = {
        "format_version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "indptr": graph.indptr,
        "indices": graph.indices,
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    dest = Path(path)
    if not dest.name.endswith(".npz"):  # np.savez's own suffix rule
        dest = dest.with_name(dest.name + ".npz")
    atomic_numpy_save(dest, lambda buf: np.savez_compressed(buf, **payload))


def load_npz(path) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`.

    Anything else — unreadable, not a zip archive, a member missing or
    malformed, or one whose npy header declares more than its bytes can
    hold — raises :class:`~repro.errors.GraphFormatError`.  The headers
    are checked before ``np.load`` allocates what they declare.  A
    deflated member may still declare up to ``DEFLATE_MAX_RATIO`` times
    its stored bytes; when that allocation fails, the ``MemoryError`` is
    a ``GraphFormatError`` too.
    """
    try:
        with open(path, "rb") as fh:
            require_npz_fits(fh, deflated=True)
            fh.seek(0)
            with np.load(fh) as data:
                if "format_version" not in data:
                    raise GraphFormatError(f"{path}: not a repro graph archive")
                version = int(data["format_version"][0])
                if version != _FORMAT_VERSION:
                    raise GraphFormatError(
                        f"{path}: unsupported format version {version}"
                    )
                return CSRGraph(
                    indptr=data["indptr"],
                    indices=data["indices"],
                    weights=data["weights"] if "weights" in data else None,
                )
    except (IndexError, MemoryError, *MALFORMED_NPZ) as exc:
        # A missing member raises KeyError, an empty format_version
        # IndexError, a forged size np.load cannot allocate MemoryError;
        # the rest is what a damaged archive raises.
        raise GraphFormatError(f"cannot read graph archive {path}: {exc}") from exc
