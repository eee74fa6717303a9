"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while still
being able to discriminate the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "PermutationError",
    "ConvergenceError",
    "SchedulerError",
    "LivelockError",
    "FaultInjectionError",
    "AuditError",
    "CacheConfigError",
    "DatasetError",
    "BenchFormatError",
    "CheckError",
    "PrecisionError",
    "CheckpointError",
    "AttemptAbortedError",
    "BudgetExceededError",
    "ServeError",
    "ProtocolError",
    "QuotaExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """A graph, edge list, or serialized graph file is malformed."""


class PermutationError(ReproError):
    """An array claimed to be a vertex permutation is not a bijection."""


class ConvergenceError(ReproError):
    """An iterative algorithm exceeded its iteration budget."""


class SchedulerError(ReproError):
    """The deterministic interleaving scheduler was misused (e.g. a task
    performed a blocking operation outside a yield point)."""


class LivelockError(SchedulerError):
    """The task set failed to quiesce within the scheduler's step budget —
    typically mutually-retrying vertices in a CAS retry loop."""


class FaultInjectionError(ReproError):
    """A fault-injection plan is invalid (rates outside [0, 1], negative
    stall lengths, ...) or an injection hook was misused."""


class AuditError(ReproError):
    """A post-run audit found a violated invariant (dendrogram not a
    forest, lost degree mass, ordering not a bijection, ...)."""


class CacheConfigError(ReproError):
    """A cache/TLB configuration is invalid (non power-of-two sets, zero
    associativity, line size not dividing capacity, ...)."""


class DatasetError(ReproError):
    """A dataset name is unknown to the registry or its parameters are
    inconsistent."""


class BenchFormatError(ReproError):
    """A benchmark baseline document violates the BENCH_*.json schema
    (unknown schema id/version, missing phases, malformed results)."""


class CheckError(ReproError):
    """The static-analysis engine was misused (unknown rule id, invalid
    rule registration, missing lint target)."""


class PrecisionError(ReproError):
    """A numeric domain left the range where float64 arithmetic is exact
    (degree sums at or above 2**53), so results could silently drift."""


class CheckpointError(ReproError):
    """A checkpoint file is corrupt (bad magic/CRC/truncation), has an
    unsupported schema version, or is stale (its fingerprint does not
    match the run being resumed)."""


class AttemptAbortedError(ReproError):
    """A supervised attempt was cancelled cooperatively (by the
    watchdog, a budget, or an explicit cancel) at a heartbeat point."""


class BudgetExceededError(AttemptAbortedError):
    """A supervised attempt exceeded its wall-clock or RSS budget."""


class ServeError(ReproError):
    """The serving layer failed: transport errors, a daemon that cannot
    bind its endpoint, or an error response from the server."""


class ProtocolError(ServeError):
    """A serve request or response line violates the newline-delimited
    JSON protocol (not JSON, not an object, unknown op, oversized line,
    malformed graph payload).  ``code`` and ``kind`` are the error
    frame's: 400 ``"protocol"``, or 404 for an op or analysis the
    daemon does not serve."""

    def __init__(self, message: str, *, code: int = 400, kind: str = "protocol"):
        super().__init__(message)
        self.code = code
        self.kind = kind


class QuotaExceededError(ServeError):
    """A tenant's token bucket is empty; the request was rejected with a
    429-style response.  ``retry_after_s`` is the earliest time at which
    one token will be available again."""

    def __init__(self, message: str, *, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
