"""Hierarchical span tracer — the timing substrate of :mod:`repro.obs`.

A *span* is a named, timed region of execution.  Spans nest: opening a
span inside another makes it a child, so a traced run yields a forest
whose per-phase totals answer the paper's central accounting question —
how reordering time relates to the analysis time it buys back (PAPER.md
§V, Figs. 6–8, 12).

Design constraints, in order:

1. **Near-zero overhead when disabled.**  ``span()`` on a disabled
   tracer performs one attribute check and returns a shared no-op
   context manager — no allocation, no clock read.  Hot paths therefore
   carry their instrumentation permanently; only *coarse* phases are
   bracketed (never per-vertex loops), which a guard test enforces.
2. **Thread/worker awareness.**  Each thread keeps its own span stack
   (``threading.local``), so spans opened on worker threads (the
   serving daemon's executor) nest correctly within their own thread and
   surface as roots tagged with the thread name rather than corrupting
   another thread's tree.
3. **Replayable exports.**  A finished trace serialises to JSON
   (:meth:`Span.to_dict`) or an indented flat-text tree
   (:func:`format_spans`), and aggregates to per-phase totals
   (:func:`phase_totals`) — the form the bench harness records.

Usage::

    from repro.obs import trace

    with trace.capture() as cap:          # enables the global tracer
        with trace.span("rabbit.detect", n=graph.num_vertices):
            ...
    print(cap.format())                   # indented tree with timings
    cap.phase_totals()                    # {"rabbit.detect": seconds, ...}
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "TraceCapture",
    "get_tracer",
    "set_tracer",
    "span",
    "enable",
    "disable",
    "is_enabled",
    "capture",
    "phase_totals",
    "format_spans",
    "iter_spans",
]


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One named, timed region; a node in the trace forest.

    Spans are context managers: entering starts the clock and pushes the
    span on the current thread's stack, exiting stops the clock and
    attaches the span to its parent (or to the tracer's roots).
    """

    __slots__ = (
        "name",
        "attrs",
        "thread",
        "start",
        "end",
        "children",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.thread = ""
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self._tracer = tracer

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self.thread = threading.current_thread().name
        self._tracer._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        # Pop self; tolerate (and repair) mispaired exits defensively.
        while stack and stack.pop() is not self:  # pragma: no cover
            pass
        if stack:
            stack[-1].children.append(self)
        else:
            with tracer._lock:
                tracer._roots.append(self)
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to a live (or finished) span."""
        self.attrs.update(attrs)
        return self

    # -- queries --------------------------------------------------------
    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All spans named *name* in this subtree."""
        return [s for s in self.walk() if s.name == name]

    # -- exporters ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation of the subtree."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, children={len(self.children)})"


class Tracer:
    """Collects spans; disabled (and free) unless switched on."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # -- the hot call ---------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a span; a no-op singleton when the tracer is disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    # -- internals ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- lifecycle ------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._roots = []

    @property
    def roots(self) -> list[Span]:
        """Finished top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    @contextmanager
    def capture(self) -> Iterator["TraceCapture"]:
        """Enable the tracer and collect the spans finished inside the
        ``with`` block, restoring the previous state afterwards."""
        prev_enabled = self.enabled
        with self._lock:
            prev_roots = self._roots
            self._roots = []
        self.enabled = True
        cap = TraceCapture()
        try:
            yield cap
        finally:
            self.enabled = prev_enabled
            with self._lock:
                cap.roots = self._roots
                self._roots = prev_roots


class TraceCapture:
    """The spans collected by one :meth:`Tracer.capture` block."""

    def __init__(self) -> None:
        self.roots: list[Span] = []

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.walk() if s.name == name]

    def phase_totals(self) -> dict[str, float]:
        return phase_totals(self.roots)

    def format(self) -> str:
        return format_spans(self.roots)

    def to_dict(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self.roots]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# Forest-level helpers (shared by TraceCapture and external callers).


def iter_spans(roots: list[Span]) -> Iterator[Span]:
    """Every span in a forest, preorder."""
    for root in roots:
        yield from root.walk()


def phase_totals(roots: list[Span]) -> dict[str, float]:
    """Total seconds per span name, aggregated over the whole forest.

    Nested spans each contribute their own duration, so a parent's total
    *includes* its children's time — exactly the per-phase attribution
    the bench format records (see docs/BENCH_FORMAT.md).
    """
    totals: dict[str, float] = {}
    for s in iter_spans(roots):
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def format_spans(roots: list[Span]) -> str:
    """Indented flat-text tree, one line per span."""
    lines: list[str] = []

    def emit(s: Span, depth: int) -> None:
        attrs = ""
        if s.attrs:
            attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(s.attrs.items()))
        lines.append(f"{'  ' * depth}{s.name:<{max(1, 40 - 2 * depth)}} {s.duration * 1e3:10.3f} ms{attrs}")
        for c in s.children:
            emit(c, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Global default tracer: the one the library's built-in instrumentation
# talks to.  ``trace.span(...)`` in any repro module routes here.

_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by the library's instrumentation."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _GLOBAL
    prev, _GLOBAL = _GLOBAL, tracer
    return prev


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (no-op while disabled)."""
    tracer = _GLOBAL
    if not tracer.enabled:
        return _NULL_SPAN
    return Span(tracer, name, attrs)


def enable() -> None:
    _GLOBAL.enabled = True


def disable() -> None:
    _GLOBAL.enabled = False


def is_enabled() -> bool:
    return _GLOBAL.enabled


def capture():
    """``with trace.capture() as cap:`` on the global tracer."""
    return _GLOBAL.capture()
