"""Crash-safe file persistence: the project's one atomic-write helper.

Every artifact the pipeline persists — graph archives, bench baselines,
permutations, checkpoints — must never be observable half-written: a
process killed mid-write (the exact failure the resilience layer injects
on purpose) would otherwise leave a torn file that a later run trusts.

The recipe is the classic tmp + fsync + rename:

1. write the full payload to a temporary file *in the destination
   directory* (same filesystem, so the final rename is atomic),
2. flush and ``fsync`` the file so the bytes are durable before the name
   appears,
3. ``os.replace`` onto the destination (atomic on POSIX and Windows).

Readers therefore see either the old complete file or the new complete
file, never a mixture.  The ``bare-open-write`` lint rule
(:mod:`repro.check.rules.io`) enforces that result-artifact writes in
``src/`` go through this module.

Checkpoints and permutation-cache entries share one *sealed* container
(:func:`write_sealed` / :func:`read_sealed`)::

    magic (8 bytes) | schema_version u32 | payload_crc32 u32
    | payload_len u64 | payload (npz: the arrays, then meta as JSON)

Atomic install rules out a torn write; the header and CRC catch a
truncated or bit-flipped file; and the reader turns every malformed
payload into the caller's typed error, so a damaged file is skipped or
reported, never a crash.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator
from zipfile import ZIP_DEFLATED, ZIP_STORED, BadZipFile, ZipFile

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "atomic_numpy_save",
    "write_sealed",
    "read_sealed",
    "require_npz_fits",
    "MALFORMED_NPZ",
]

_SEAL = struct.Struct("<8sIIQ")

#: What parsing an npz archive can raise: zipfile (bad archive, missing
#: or truncated member; RuntimeError covers encrypted members and unknown
#: compression), the npy header parser, JSON decoding and dtype casts.
MALFORMED_NPZ = (
    BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError,
    ValueError, zlib.error,
)


@contextmanager
def atomic_writer(path: str | Path, mode: str = "wb") -> Iterator[IO[Any]]:
    """Context manager yielding a handle whose contents replace *path*
    atomically on clean exit (and are discarded on error).

    ``mode`` must be a write mode (``"wb"`` or ``"w"``); text mode uses
    UTF-8.  The temporary file lives next to the destination so the
    final ``os.replace`` never crosses a filesystem boundary.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_writer mode must be 'w' or 'wb', got {mode!r}")
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=dest.parent, prefix=f".{dest.name}.", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        # repro: ignore[bare-open-write]  this IS the atomic-write
        # helper: the torn-write window only exists on the tmp name,
        # which is renamed over the destination after fsync.
        with os.fdopen(fd, mode, encoding="utf-8" if mode == "w" else None) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace *path* with *data*."""
    with atomic_writer(path, "wb") as fh:
        fh.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace *path* with *text* (UTF-8)."""
    with atomic_writer(path, "w") as fh:
        fh.write(text)


def atomic_numpy_save(path: str | Path, saver: Callable[[IO[bytes]], None]) -> None:
    """Atomically persist a numpy artifact.

    *saver* receives a binary buffer and is expected to call
    ``np.save(buf, ...)`` / ``np.savez(buf, ...)`` on it; the rendered
    bytes are then installed with one atomic replace.  Buffering in
    memory first keeps numpy's own (non-atomic) writer off the real
    destination entirely.
    """
    buf = io.BytesIO()
    saver(buf)
    atomic_write_bytes(path, buf.getvalue())


def write_sealed(
    path: str | Path,
    magic: bytes,
    version: int,
    arrays: dict[str, np.ndarray],
    meta: dict[str, Any],
) -> Path:
    """Atomically install *arrays* and *meta* as one sealed file."""
    buf = io.BytesIO()
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    np.savez(buf, **arrays, meta_json=np.frombuffer(meta_json, dtype=np.uint8))
    payload = buf.getvalue()
    header = _SEAL.pack(magic, version, zlib.crc32(payload), len(payload))
    dest = Path(path)
    atomic_write_bytes(dest, header + payload)
    return dest


#: Deflate's largest expansion: one 258-byte match per two bits of
#: compressed stream, about 1032:1.
DEFLATE_MAX_RATIO = 1032


def require_npz_fits(archive: IO[bytes], *, deflated: bool = False) -> None:
    """Refuse an npz archive that ``np.load`` would allocate past its
    bytes: it allocates a member's declared shape before it reads a
    byte.  Each member must be stored uncompressed (as ``np.savez``
    writes it) or, when *deflated*, deflated (as ``np.savez_compressed``
    does); hold no more bytes than its compressed bytes in the archive
    expand to; and carry an npy header that declares no more elements or
    bytes than the member holds.  Reads the headers only, and raises
    ``ValueError`` or what ``zipfile`` raises on a damaged archive."""
    size = archive.seek(0, os.SEEK_END)
    archive.seek(0)
    methods = (ZIP_STORED, ZIP_DEFLATED) if deflated else (ZIP_STORED,)
    with ZipFile(archive) as zf:
        for info in zf.infolist():
            name = info.filename
            if info.compress_type not in methods:
                raise ValueError(
                    f"member {name!r} is compressed (zip method "
                    f"{info.compress_type})"
                )
            ratio = 1 if info.compress_type == ZIP_STORED else DEFLATE_MAX_RATIO
            if info.compress_size > size or info.file_size > info.compress_size * ratio:
                raise ValueError(
                    f"member {name!r} claims {info.file_size} bytes from "
                    f"{info.compress_size} in a {size}-byte archive"
                )
            with zf.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version not in ((1, 0), (2, 0)):
                    raise ValueError(f"member {name!r} has npy version {version}")
                read_header = np.lib.format.read_array_header_1_0
                if version == (2, 0):
                    read_header = np.lib.format.read_array_header_2_0
                shape, _, dtype = read_header(member)
                held = info.file_size - member.tell()
            declared = math.prod(shape) * max(dtype.itemsize, 1)
            if min(shape, default=0) < 0 or declared > held:
                raise ValueError(
                    f"member {name!r} declares shape {shape} of {dtype}, "
                    f"more than its {held} bytes"
                )


def read_sealed(
    path: str | Path,
    magic: bytes,
    version: int,
    fields: Iterable[tuple[str, Any]],
    *,
    error: type[Exception],
    kind: str,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read and verify a :func:`write_sealed` file.

    Returns ``(meta, arrays)``, each ``(name, dtype)`` of *fields* cast
    to its dtype.  Any failure — unreadable, truncated, wrong magic or
    version, CRC mismatch, a payload that is not the expected npz, a
    compressed member or one whose header declares more than it holds,
    meta that is not a JSON object — raises *error*, with *kind* naming
    the file in the message.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} {path}: {exc}") from exc
    if len(raw) < _SEAL.size:
        raise error(
            f"{path}: truncated {kind} ({len(raw)} bytes, header needs "
            f"{_SEAL.size})"
        )
    got_magic, got_version, crc, length = _SEAL.unpack_from(raw)
    if got_magic != magic:
        raise error(f"{path}: not a {kind} (bad magic)")
    if got_version != version:
        raise error(
            f"{path}: unsupported {kind} schema version {got_version} "
            f"(this build reads {version})"
        )
    payload = raw[_SEAL.size :]
    if len(payload) != length:
        raise error(
            f"{path}: truncated {kind} payload ({len(payload)} of {length} bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise error(f"{path}: {kind} payload fails its CRC32")
    try:
        # Only a zip payload reaches np.load: anything else would be
        # parsed as a bare array or refused as a pickle.
        if not payload.startswith(b"PK\x03\x04"):
            raise ValueError("payload is not an npz archive")
        require_npz_fits(io.BytesIO(payload))
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            arrays = {name: np.asarray(data[name], dtype=dt) for name, dt in fields}
        if not isinstance(meta, dict):
            raise ValueError(f"meta is a JSON {type(meta).__name__}, not an object")
    except MALFORMED_NPZ as exc:
        raise error(f"{path}: malformed {kind} payload: {exc}") from exc
    return meta, arrays
