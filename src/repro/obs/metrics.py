"""Metrics registry: counters, gauges, and histograms.

One process-wide registry (:func:`get_registry`) absorbs the counters
the pipeline already produces ad hoc — :class:`~repro.rabbit.common.RabbitStats`
merge/retry/recovery tallies, the atomic-operation
:class:`~repro.parallel.atomics.OpCounter`, scheduler step counts, fault
injection totals — under stable dotted names, so any harness (the bench
runner, ``repro stress``, tests) can read one coherent snapshot instead
of spelunking per-module result objects.

Instruments are monotonic within a process run; harnesses that need
per-run deltas snapshot before and after (:meth:`MetricsRegistry.counter_values`
plus :func:`counter_delta`).  All instruments are thread-safe: the serving
daemon's executor threads and the supervisor's watchdog may increment
concurrently.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "counter_delta",
    "nearest_rank",
]

#: Histograms keep raw observations up to this many samples (for exact
#: percentiles); beyond it only the running aggregates keep updating.
_HISTOGRAM_SAMPLE_CAP = 8192


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Exact q-th percentile (0..100) of the sorted samples *ordered*:
    the sample at the nearest rank, or 0.0 when there are none."""
    if not ordered:
        return 0.0
    rank = int(round(q / 100.0 * (len(ordered) - 1)))
    return ordered[min(len(ordered) - 1, rank)]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Distribution summary: count/sum/min/max plus exact percentiles
    while the sample buffer lasts (cap ``_HISTOGRAM_SAMPLE_CAP``)."""

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < _HISTOGRAM_SAMPLE_CAP:
                self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (0..100) of the retained samples."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        return nearest_rank(samples, q)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named instruments, created on first use, read as one snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{name: {"type": ..., "value"/aggregates...}}`` for all
        instruments, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def counter_values(self, prefix: str = "") -> dict[str, float]:
        """Current values of all counters whose name starts with *prefix*."""
        with self._lock:
            return {
                name: inst.value
                for name, inst in sorted(self._instruments.items())
                if isinstance(inst, Counter) and name.startswith(prefix)
            }

    def reset(self) -> None:
        """Drop every instrument (tests and fresh harness runs)."""
        with self._lock:
            self._instruments.clear()

    # -- absorbers for the pipeline's existing ad-hoc counters ----------
    def absorb_rabbit_stats(self, stats: Any, prefix: str = "rabbit") -> None:
        """Fold a :class:`~repro.rabbit.common.RabbitStats` into counters
        (including the fault/recovery sub-counters)."""
        for field in (
            "edges_scanned",
            "merges",
            "toplevels",
            "retries",
            "orphans_recovered",
            "partial_repairs",
            "fallback_merges",
            "fallback_toplevels",
        ):
            self.counter(f"{prefix}.{field}").inc(getattr(stats, field))

    def absorb_op_counter(
        self, snapshot: dict[str, int], prefix: str = "rabbit.atomics"
    ) -> None:
        """Fold an :meth:`OpCounter.snapshot` dict into counters."""
        for key, value in snapshot.items():
            self.counter(f"{prefix}.{key}").inc(value)

    def absorb_fault_counters(
        self, counters: Any, prefix: str = "rabbit.faults"
    ) -> None:
        """Fold a :class:`~repro.parallel.faults.FaultCounters` into
        counters."""
        for field in (
            "forced_cas_failures",
            "spurious_invalid_reads",
            "stalls",
            "crashes",
        ):
            self.counter(f"{prefix}.{field}").inc(getattr(counters, field))


def counter_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Per-counter increase between two :meth:`counter_values` snapshots
    (counters absent from *before* count from zero; zero deltas are
    dropped)."""
    delta = {}
    for name, value in after.items():
        d = value - before.get(name, 0.0)
        if d:
            delta[name] = d
    return delta


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the library's instrumentation feeds."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _GLOBAL
    prev, _GLOBAL = _GLOBAL, registry
    return prev
