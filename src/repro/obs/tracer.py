"""Sim-time tracing: typed spans and instant events keyed to ``env.now``.

The tracer is the qualitative half of :mod:`repro.obs`: it records *what
happened when* in simulated time.  Because every timestamp comes from the
simulation clock — never the host clock — a trace is part of the replay
contract: the same seed produces a byte-identical exported trace.

Two event shapes:

* :class:`Span` — a named interval ``[start, end]`` with a category and
  optional structured args (Chrome ``trace_event`` "complete" events);
* :class:`Instant` — a named point in time (governor frequency steps,
  fault injections, ABR decisions).

Disabled tracing is the common case, so it must cost nothing: call sites
hold :data:`NULL_TRACER` (or check ``tracer.enabled``), whose methods are
allocation-free no-ops sharing one reusable context manager.  A span
opens only through the ``with tracer.span(...)`` context manager, which
closes it on *any* exit path, including exceptions and process
interrupts, and annotates it with the exception type when one escapes —
so no span is left open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol

Args = Optional[Dict[str, Any]]


class SimClock(Protocol):
    """Anything with a ``now`` — structurally, a simulation environment.

    The tracer only ever *reads* the clock, so :mod:`repro.obs` needs no
    import of (and creates no cycle with) :mod:`repro.sim`.
    """

    @property
    def now(self) -> float: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class Span:
    """One closed interval of simulated time."""

    name: str
    cat: str
    start: float
    end: float
    args: Args = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One point event at a simulated instant."""

    name: str
    cat: str
    t: float
    args: Args = None


@dataclass
class SpanHandle:
    """An open span: what ``with tracer.span(...)`` binds."""

    name: str
    cat: str
    start: float
    args: Args = None


class _SpanContext:
    """Context manager that closes a span on every exit path."""

    __slots__ = ("_tracer", "_handle")

    def __init__(self, tracer: "Tracer", handle: SpanHandle):
        self._tracer = tracer
        self._handle = handle

    def __enter__(self) -> SpanHandle:
        return self._handle

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            args = dict(self._handle.args or {})
            args["error"] = exc_type.__name__
            self._handle.args = args
        self._tracer._end_span(self._handle)
        return False


class _NullSpanContext:
    """Shared, stateless no-op context manager (zero per-call allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Records spans and instants stamped with simulated time."""

    enabled: bool = True

    def __init__(self, clock: SimClock):
        self._clock = clock
        self.spans: list[Span] = []
        self.instants: list[Instant] = []

    @property
    def now(self) -> float:
        return self._clock.now

    # -- recording --------------------------------------------------------

    def span(self, name: str, cat: str = "app",
             args: Args = None) -> _SpanContext:
        """Open a span closed automatically at ``with``-block exit."""
        return _SpanContext(
            self, SpanHandle(name=name, cat=cat, start=self._clock.now,
                             args=args),
        )

    def _end_span(self, handle: SpanHandle) -> Span:
        """Close a handle opened by :meth:`span` at the current time."""
        span = Span(name=handle.name, cat=handle.cat, start=handle.start,
                    end=self._clock.now, args=handle.args)
        self.spans.append(span)
        return span

    def complete(self, name: str, cat: str, start: float,
                 end: Optional[float] = None, args: Args = None) -> Span:
        """Record a span retroactively (both endpoints already known)."""
        span = Span(name=name, cat=cat, start=start,
                    end=self._clock.now if end is None else end, args=args)
        self.spans.append(span)
        return span

    def instant(self, name: str, cat: str = "app",
                args: Args = None) -> Instant:
        """Record a point event at the current simulated time."""
        event = Instant(name=name, cat=cat, t=self._clock.now, args=args)
        self.instants.append(event)
        return event

    # -- introspection ----------------------------------------------------

    def categories(self) -> tuple[str, ...]:
        """Every category seen so far, sorted."""
        return tuple(sorted({s.cat for s in self.spans}
                            | {i.cat for i in self.instants}))

    def counts_by_category(self) -> dict[str, int]:
        """Event counts (spans + instants) per category, sorted by name."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.cat] = counts.get(span.cat, 0) + 1
        for inst in self.instants:
            counts[inst.cat] = counts.get(inst.cat, 0) + 1
        return {cat: counts[cat] for cat in sorted(counts)}

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


class NullTracer:
    """Disabled tracer: every method is an allocation-free no-op.

    The single instance :data:`NULL_TRACER` is what
    :func:`repro.obs.tracer_of` hands to call sites in environments where
    :func:`repro.obs.install` never ran — the hot-path cost of disabled
    tracing is one attribute load and one no-op call.
    """

    __slots__ = ()
    enabled: bool = False

    def span(self, name: str, cat: str = "app",
             args: Args = None) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def complete(self, name: str, cat: str, start: float,
                 end: Optional[float] = None, args: Args = None) -> None:
        return None

    def instant(self, name: str, cat: str = "app",
                args: Args = None) -> None:
        return None


NULL_TRACER = NullTracer()

__all__ = [
    "Instant",
    "NULL_TRACER",
    "NullTracer",
    "SimClock",
    "Span",
    "SpanHandle",
    "Tracer",
]
