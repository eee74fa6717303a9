"""CAS-style atomic primitives.

The paper's parallel community detection (Algorithm 3) relies on a single
16-byte compare-and-swap over a packed record ``(degree: u64, child: u32)``
per vertex.  CPython cannot issue hardware CAS, so this module provides the
same *semantics*: :class:`AtomicPairArray` is an array of
``(degree, child)`` records with ``load`` / ``swap`` / ``cas`` operations.
It runs on one OS thread under the deterministic interleaving scheduler
(:mod:`repro.parallel.scheduler`), where every operation is atomic by
construction: tasks yield only *between* operations, and the scheduler
controls where they interleave, so every CAS-failure / rollback path of
Algorithm 3 can be exercised deterministically.

``INVALID_DEGREE`` plays the role of the paper's ``UINT64_MAX`` marker: a
vertex whose ``degree`` equals it is *invalidated* (currently being
processed) and must not be merged into.

All operations count themselves into an optional :class:`OpCounter`, which
feeds the scalability cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PrecisionError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.check.races import EventLog

__all__ = [
    "INVALID_DEGREE",
    "DEGREE_EXACT_LIMIT",
    "OpCounter",
    "AtomicPairArray",
]

#: Sentinel marking an invalidated vertex (paper: UINT64_MAX degree).
INVALID_DEGREE: float = float("inf")

#: Exactness ceiling for float64 degree arithmetic.  The paper stores
#: degrees as u64 and invalidates with UINT64_MAX; we store them as
#: float64 and invalidate with +inf.  That substitution is loss-free only
#: while every reachable community degree is an exact float64 integer
#: sum, which holds for any partial sum strictly below 2**53.  The
#: constructor enforces the *total* below the limit, which bounds every
#: partial community sum the CAS protocol can ever accumulate.
DEGREE_EXACT_LIMIT: float = float(2**53)


@dataclass
class OpCounter:
    """Tally of atomic-operation outcomes."""

    loads: int = 0
    swaps: int = 0
    cas_success: int = 0
    cas_failure: int = 0

    @property
    def cas_attempts(self) -> int:
        return self.cas_success + self.cas_failure

    def snapshot(self) -> dict[str, int]:
        return {
            "loads": self.loads,
            "swaps": self.swaps,
            "cas_success": self.cas_success,
            "cas_failure": self.cas_failure,
        }


class AtomicPairArray:
    """Array of atomically updatable ``(degree: float, child: int)`` pairs.

    The pair is the paper's 12-byte ``atom`` record.  ``degree`` is stored
    as float64 (the paper notes a 32-bit float variant is acceptable;
    float64 here is exact for all degrees below 2**53) and ``child`` as
    int64 with ``-1`` for the paper's ``UINT32_MAX`` null link.
    """

    def __init__(self, degrees: np.ndarray, counter: OpCounter | None = None):
        n = degrees.size
        self._degree = np.asarray(degrees, dtype=np.float64).copy()
        if n:
            if not np.isfinite(self._degree).all():
                raise PrecisionError(
                    "initial degrees must be finite: the non-finite range "
                    "is reserved for the INVALID_DEGREE sentinel"
                )
            if (self._degree < 0.0).any():
                raise PrecisionError(
                    "initial degrees must be non-negative: community "
                    "degree sums are bounded by the total only without "
                    "cancellation"
                )
            total = float(np.sum(self._degree))
            if not total < DEGREE_EXACT_LIMIT:
                raise PrecisionError(
                    f"total degree mass {total!r} reaches 2**53, where "
                    "float64 integer sums stop being exact; the paper's "
                    "u64 degrees would keep counting where this float "
                    "encoding silently drifts"
                )
        self._child = np.full(n, -1, dtype=np.int64)
        #: optional :class:`~repro.check.races.EventLog`; hooks fire inside
        #: the operation, so sync events are linearised with it.
        self.tracer: "EventLog | None" = None
        self.counter = counter if counter is not None else OpCounter()

    def __len__(self) -> int:
        return self._degree.size

    # -- primitive operations -------------------------------------------
    def load(self, i: int) -> tuple[float, int]:
        """Atomically read ``(degree, child)`` of record *i*."""
        self.counter.loads += 1
        if self.tracer is not None:
            self.tracer.atomic_load(i)
        return float(self._degree[i]), int(self._child[i])

    def load_degree(self, i: int) -> float:
        self.counter.loads += 1
        if self.tracer is not None:
            self.tracer.atomic_load(i, degree_only=True)
        return float(self._degree[i])

    def swap_degree(self, i: int, value: float) -> float:
        """Atomically exchange record *i*'s degree, returning the old value
        (paper line 9: ATOMICSWAP used to invalidate a vertex)."""
        self.counter.swaps += 1
        if self.tracer is not None:
            self.tracer.atomic_swap_degree(i)
        old = float(self._degree[i])
        self._degree[i] = value
        return old

    def store_degree(self, i: int, value: float) -> None:
        if self.tracer is not None:
            self.tracer.atomic_store_degree(i)
        self._degree[i] = value

    def cas(
        self,
        i: int,
        expected: tuple[float, int],
        desired: tuple[float, int],
    ) -> bool:
        """Compare-and-swap the full pair (paper line 20).

        Returns True and installs *desired* iff the current record equals
        *expected* exactly.
        """
        exp_d, exp_c = expected
        if self._degree[i] == exp_d and self._child[i] == exp_c:
            self._degree[i] = desired[0]
            self._child[i] = desired[1]
            self.counter.cas_success += 1
            if self.tracer is not None:
                self.tracer.atomic_cas(i, True)
            return True
        self.counter.cas_failure += 1
        if self.tracer is not None:
            self.tracer.atomic_cas(i, False)
        return False

    # -- bulk, non-atomic views (safe after workers have quiesced) ------
    def degrees_view(self) -> np.ndarray:
        return self._degree

    def children_view(self) -> np.ndarray:
        return self._child

