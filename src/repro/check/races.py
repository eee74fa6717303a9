"""Dynamic race detection for the lock-free aggregation path.

The static rules in :mod:`repro.check.rules` police *how* shared state is
touched; this module checks the stronger dynamic property: every pair of
conflicting accesses that actually occurred during a run of Algorithm 3
was ordered by the protocol's own synchronisation.  The model is the
classic happens-before race detector over vector clocks:

* Each per-vertex ``(degree, child)`` record of the
  :class:`~repro.parallel.atomics.AtomicPairArray` is a *synchronisation
  variable*.  A pure atomic load **acquires** the record (joins its sync
  clock into the worker's clock); a ``swap`` / ``store`` / successful
  ``cas`` acquires **and releases** it (read-modify-write semantics:
  the worker's clock is published into the record's sync clock).  These
  are the only happens-before edges credited to the protocol, so a
  report of zero races certifies the CAS protocol itself, exactly as it
  would run on hardware 16-byte CAS.
* Plain accesses to the shared ``sibling`` / ``child`` / ``adj`` state
  are **PLAIN**: any conflicting pair (same location, at least one
  write, different workers) must be happens-before ordered or it is a
  race.
* Accesses to ``dest`` are **RELAXED**: the paper's path compression
  (Algorithm 4 lines 4-5) lets any worker rewrite ``dest`` entries with
  idempotent, monotone pointer jumps, and a reader racing the final
  ``dest[u] = best_v`` merely sees ``u`` as still top-level and
  re-resolves lazily later.  Relaxed accesses are tallied but exempt
  from conflict checks; they are the documented, deliberate data race
  of the algorithm.

Event collection is cooperative: :func:`tag_worker` wraps each worker
generator so a thread-local carries the logical worker id across every
resumption by the interleaving scheduler (or any OS thread that drives
the generator), the atomic array calls :meth:`EventLog.atomic_*` hooks from
inside each operation (so the log order of sync events matches their true
linearisation), and thin :class:`TracingArray` /
:class:`TracingList` proxies record the plain accesses.  Accesses made
with no tagged worker (setup, crash recovery, auditing) are not events.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SYNC",
    "PLAIN",
    "RELAXED",
    "Event",
    "EventLog",
    "TracingArray",
    "TracingList",
    "tag_worker",
    "current_worker",
    "Race",
    "RaceReport",
    "analyze_log",
]

#: Access classes (see module docstring).
SYNC = "sync"
PLAIN = "plain"
RELAXED = "relaxed"

_READ = "read"
_WRITE = "write"
_ACQUIRE = "acquire"
_RELEASE = "release"

#: A shared-memory location: ``(array-name, index)``.
Location = Tuple[str, int]


@dataclass(frozen=True)
class Event:
    """One logged access: who, what, where, and its access class."""

    worker: int
    kind: str  # read | write | acquire | release
    loc: Location
    klass: str  # sync | plain | relaxed

    def describe(self) -> str:
        name, index = self.loc
        return f"worker {self.worker} {self.klass} {self.kind} {name}[{index}]"


class _WorkerLocal(threading.local):
    worker: Optional[int] = None


_TLS = _WorkerLocal()


def current_worker() -> Optional[int]:
    """The logical worker id the current thread is executing, if any."""
    return _TLS.worker


def tag_worker(gen: Iterator[object], worker: int) -> Iterator[object]:
    """Wrap a worker generator so every step runs with *worker* as the
    current logical worker id.

    Works under any driver without modifying it: the wrapper sets
    the thread-local immediately before resuming the inner generator and
    clears it at every yield point, so whichever OS thread happens to
    drive the task attributes its accesses correctly.
    """
    iterator = iter(gen)

    def _tagged() -> Iterator[object]:
        while True:
            _TLS.worker = worker
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                _TLS.worker = None
            yield item

    return _tagged()


class EventLog:
    """Append-only access log shared by every tracing hook of one run.

    The atomic hooks are invoked from inside each atomic operation, so
    sync events appear in their true linearisation order.  ``capacity`` bounds memory: past it, events are counted as
    dropped and the report is marked truncated (a truncated clean run is
    *not* a certification).
    """

    def __init__(self, capacity: int = 2_000_000):
        self.events: List[Event] = []
        self.capacity = capacity
        self.dropped = 0
        self.closed = False

    def close(self) -> None:
        """Stop recording (quiescence reached; recovery/audit untracked)."""
        self.closed = True

    # -- generic hooks ---------------------------------------------------
    def emit(self, kind: str, loc: Location, klass: str) -> None:
        worker = current_worker()
        if worker is None or self.closed:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(Event(worker, kind, loc, klass))

    def read(self, name: str, index: int, klass: str = PLAIN) -> None:
        self.emit(_READ, (name, index), klass)

    def write(self, name: str, index: int, klass: str = PLAIN) -> None:
        self.emit(_WRITE, (name, index), klass)

    # -- atomic-layer hooks (called inside each atomic operation)
    def atomic_load(self, i: int, *, degree_only: bool = False) -> None:
        """A pure atomic read of record *i*: acquire + sync field reads."""
        self.emit(_ACQUIRE, ("atom", i), SYNC)
        self.read("degree", i, SYNC)
        if not degree_only:
            self.read("child", i, SYNC)

    def atomic_swap_degree(self, i: int) -> None:
        """ATOMICSWAP of record *i*'s degree: acquire, RMW, release."""
        self.emit(_ACQUIRE, ("atom", i), SYNC)
        self.read("degree", i, SYNC)
        self.write("degree", i, SYNC)
        self.emit(_RELEASE, ("atom", i), SYNC)

    def atomic_store_degree(self, i: int) -> None:
        """Degree store into record *i* (rollback/restore paths)."""
        self.emit(_ACQUIRE, ("atom", i), SYNC)
        self.write("degree", i, SYNC)
        self.emit(_RELEASE, ("atom", i), SYNC)

    def atomic_cas(self, i: int, success: bool) -> None:
        """CAS on record *i*: always reads; writes + releases on success."""
        self.emit(_ACQUIRE, ("atom", i), SYNC)
        self.read("degree", i, SYNC)
        self.read("child", i, SYNC)
        if success:
            self.write("degree", i, SYNC)
            self.write("child", i, SYNC)
            self.emit(_RELEASE, ("atom", i), SYNC)


class TracingArray:
    """Scalar-indexing proxy over an array that logs each access.

    Only the element protocol the workers use is exposed (``a[i]`` get /
    set and ``len``); bulk numpy operations intentionally fail so no
    instrumented run silently bypasses the log.  Unwrap via ``.data``
    before any whole-array phase (recovery, dendrogram construction).
    """

    __slots__ = ("data", "_log", "_name", "_klass")

    def __init__(
        self, data: object, log: EventLog, name: str, klass: str = PLAIN
    ):
        self.data = data
        self._log = log
        self._name = name
        self._klass = klass

    def __getitem__(self, i: int) -> object:
        self._log.read(self._name, int(i), self._klass)
        return self.data[i]  # type: ignore[index]

    def __setitem__(self, i: int, value: object) -> None:
        self._log.write(self._name, int(i), self._klass)
        self.data[i] = value  # type: ignore[index]

    def __len__(self) -> int:
        return len(self.data)  # type: ignore[arg-type]


class TracingList(TracingArray):
    """A :class:`TracingArray` for the ``adj`` list of per-vertex dicts."""


def unwrap(array: object) -> object:
    """Return the raw array behind a tracing proxy (or the input as-is)."""
    if isinstance(array, TracingArray):
        return array.data
    return array


# ---------------------------------------------------------------------------
# Offline happens-before analysis
# ---------------------------------------------------------------------------

VectorClock = Dict[int, int]


@dataclass(frozen=True)
class Race:
    """An unordered conflicting pair, reported at its second access."""

    loc: Location
    first_worker: int
    first_kind: str
    first_klass: str
    second_worker: int
    second_kind: str
    second_klass: str

    def describe(self) -> str:
        name, index = self.loc
        return (
            f"race on {name}[{index}]: worker {self.first_worker} "
            f"{self.first_klass} {self.first_kind} is unordered with "
            f"worker {self.second_worker} {self.second_klass} "
            f"{self.second_kind}"
        )


@dataclass
class RaceReport:
    """Outcome of one happens-before pass over an event log."""

    races: List[Race] = field(default_factory=list)
    events_processed: int = 0
    relaxed_accesses: int = 0
    sync_operations: int = 0
    dropped_events: int = 0
    races_truncated: bool = False

    MAX_RACES = 100

    @property
    def truncated(self) -> bool:
        """True when the log overflowed — a clean verdict is then void."""
        return self.dropped_events > 0

    @property
    def ok(self) -> bool:
        return not self.races and not self.truncated

    def summary(self) -> str:
        lines = [
            f"race check: {self.events_processed} events "
            f"({self.sync_operations} sync ops, "
            f"{self.relaxed_accesses} relaxed accesses exempt), "
            f"{len(self.races)} race(s)"
        ]
        for race in self.races:
            lines.append("  " + race.describe())
        if self.races_truncated:
            lines.append("  ... further races elided")
        if self.truncated:
            lines.append(
                f"  WARNING: {self.dropped_events} event(s) dropped at "
                "capacity; verdict incomplete"
            )
        return "\n".join(lines)


class _LocationState:
    """Per-location access history: last read/write epoch per worker,
    kept separately for sync- and plain-class accesses."""

    __slots__ = ("sync_reads", "sync_writes", "plain_reads", "plain_writes")

    def __init__(self) -> None:
        self.sync_reads: VectorClock = {}
        self.sync_writes: VectorClock = {}
        self.plain_reads: VectorClock = {}
        self.plain_writes: VectorClock = {}


def _join(into: VectorClock, other: VectorClock) -> None:
    for worker, tick in other.items():
        if tick > into.get(worker, 0):
            into[worker] = tick


def _unordered(history: VectorClock, clock: VectorClock) -> Optional[int]:
    """First worker whose recorded access is not in *clock*'s past."""
    for worker, tick in history.items():
        if tick > clock.get(worker, 0):
            return worker
    return None


def analyze_log(log: EventLog) -> RaceReport:
    """Run the vector-clock happens-before pass over *log*.

    Sound for the logged execution: a conflicting PLAIN/SYNC pair is
    reported iff no chain of program order and record acquire/release
    edges orders it.  Order within the log is only assumed per worker
    (program order) and per atomic record (the hooks run inside the
    atomic operation), which is exactly what the interleaving scheduler
    provides.
    """
    report = RaceReport(dropped_events=log.dropped)
    clocks: Dict[int, VectorClock] = {}
    sync_clocks: Dict[Location, VectorClock] = {}
    locations: Dict[Location, _LocationState] = {}
    # Last conflicting access per (loc, worker), for race attribution.
    last_access: Dict[Tuple[Location, int], Tuple[str, str]] = {}

    def clock_of(worker: int) -> VectorClock:
        clock = clocks.get(worker)
        if clock is None:
            clock = {worker: 1}
            clocks[worker] = clock
        return clock

    def report_race(event: Event, other_worker: int) -> None:
        first_kind, first_klass = last_access.get(
            (event.loc, other_worker), ("access", "plain")
        )
        if len(report.races) >= RaceReport.MAX_RACES:
            report.races_truncated = True
            return
        report.races.append(
            Race(
                loc=event.loc,
                first_worker=other_worker,
                first_kind=first_kind,
                first_klass=first_klass,
                second_worker=event.worker,
                second_kind=event.kind,
                second_klass=event.klass,
            )
        )

    for event in log.events:
        report.events_processed += 1
        worker = event.worker
        clock = clock_of(worker)
        if event.kind == _ACQUIRE:
            report.sync_operations += 1
            held = sync_clocks.get(event.loc)
            if held is not None:
                _join(clock, held)
            continue
        if event.kind == _RELEASE:
            sync_clocks[event.loc] = dict(clock)
            clock[worker] = clock.get(worker, 0) + 1
            continue
        if event.klass == RELAXED:
            report.relaxed_accesses += 1
            continue
        state = locations.get(event.loc)
        if state is None:
            state = _LocationState()
            locations[event.loc] = state
        is_write = event.kind == _WRITE
        if event.klass == SYNC:
            # Sync accesses conflict only with plain ones: atomicity of
            # the record already orders sync/sync pairs.
            conflicting = [state.plain_writes]
            if is_write:
                conflicting.append(state.plain_reads)
        else:
            conflicting = [state.plain_writes, state.sync_writes]
            if is_write:
                conflicting.extend([state.plain_reads, state.sync_reads])
        for history in conflicting:
            other = _unordered(history, clock)
            if other is not None and other != worker:
                report_race(event, other)
                break
        target = (
            (state.sync_writes if is_write else state.sync_reads)
            if event.klass == SYNC
            else (state.plain_writes if is_write else state.plain_reads)
        )
        target[worker] = clock.get(worker, 0)
        last_access[(event.loc, worker)] = (event.kind, event.klass)
    return report
