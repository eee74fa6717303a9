"""Vertex permutation utilities.

A *permutation* ``perm`` maps old vertex ids to new ids: vertex ``v`` of the
input graph becomes vertex ``perm[v]`` of the reordered graph.  This matches
the paper's ``pi: V -> N`` convention (Algorithm 2 returns ``pi`` such that
``pi[v]`` is the new id of ``v``).

The *inverse* permutation ``inv`` satisfies ``inv[new_id] = old_id`` and is
the "visit order" view: position ``i`` of ``inv`` names the old vertex that
should be stored at slot ``i``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PermutationError

__all__ = [
    "validate_permutation",
    "invert_permutation",
    "compose_permutations",
    "identity_permutation",
    "random_permutation",
    "permutation_from_order",
    "apply_permutation_to_values",
]


def validate_permutation(perm, n: int | None = None) -> np.ndarray:
    """Check that *perm* is a bijection on ``range(len(perm))``.

    Returns the validated array as ``int64``.  Raises
    :class:`PermutationError` with a precise diagnosis otherwise.
    """
    perm = np.asarray(perm)
    if perm.ndim != 1:
        raise PermutationError(f"permutation must be 1-D, got shape {perm.shape}")
    if perm.size and not np.issubdtype(perm.dtype, np.integer):
        raise PermutationError(f"permutation must be integral, got dtype {perm.dtype}")
    perm = perm.astype(np.int64, copy=False)
    if n is not None and perm.size != n:
        raise PermutationError(
            f"permutation has length {perm.size}, expected {n}"
        )
    m = perm.size
    if m == 0:
        return perm
    seen = np.zeros(m, dtype=bool)
    if perm.min() < 0 or perm.max() >= m:
        raise PermutationError(
            f"permutation values must lie in [0, {m}), got range "
            f"[{perm.min()}, {perm.max()}]"
        )
    seen[perm] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise PermutationError(
            f"permutation is not a bijection: value {missing} never appears"
        )
    return perm


def invert_permutation(perm) -> np.ndarray:
    """Return ``inv`` with ``inv[perm[v]] = v``."""
    perm = validate_permutation(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv


def compose_permutations(outer, inner) -> np.ndarray:
    """Return the permutation applying *inner* first, then *outer*.

    ``compose(outer, inner)[v] == outer[inner[v]]``.
    """
    outer = validate_permutation(outer)
    inner = validate_permutation(inner, outer.size)
    return outer[inner]


def identity_permutation(n: int) -> np.ndarray:
    """The identity permutation on ``range(n)``."""
    return np.arange(int(n), dtype=np.int64)


def random_permutation(n: int, rng: np.random.Generator | int | None = 0) -> np.ndarray:
    """Uniformly random permutation (the paper's baseline ordering)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.permutation(int(n)).astype(np.int64)


def permutation_from_order(order) -> np.ndarray:
    """Convert a visit order (``order[i]`` = old id placed at slot ``i``)
    into a permutation (``perm[old] = new``).  The two views are mutual
    inverses, so this is just :func:`invert_permutation` with a clearer name
    at call sites that produce orders (BFS, DFS, sorts)."""
    return invert_permutation(order)


def apply_permutation_to_values(perm, values) -> np.ndarray:
    """Reorder a per-vertex value array so entry ``perm[v]`` holds the value
    that belonged to old vertex ``v``."""
    perm = validate_permutation(perm)
    values = np.asarray(values)
    if values.shape[0] != perm.size:
        raise PermutationError(
            f"values length {values.shape[0]} must match permutation length {perm.size}"
        )
    out = np.empty_like(values)
    out[perm] = values
    return out
