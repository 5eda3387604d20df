"""Deterministic sim-time observability: tracing, metrics, trace export.

``repro.obs`` is the measurement substrate of the reproduction: spans and
instant events stamped with *simulated* time (never the wall clock), a
registry of namespaced counters/gauges/histograms, and exporters for the
Chrome ``trace_event`` format (Perfetto / ``chrome://tracing``), flat
metrics JSON, and a text summary.  Because every timestamp and every
metric derives from seeded simulation state, traces are replay-identical:
the same seed exports byte-identical bytes.

Wiring model (no import cycles, zero cost when off):

* the kernel (:mod:`repro.sim.core`) carries plain ``tracer``/``metrics``
  attributes that default to ``None`` and never imports this package;
* :func:`install` attaches a :class:`Tracer` and
  :class:`MetricsRegistry` to an environment right after construction;
* instrumented subsystems call :func:`tracer_of` / :func:`metrics_of`
  once at construction time — in an uninstrumented environment they get
  the shared no-op singletons back, so the disabled hot path is one
  attribute load and a no-op call, with no event objects allocated.

See ``docs/observability.md`` for naming conventions and a Perfetto
walkthrough.
"""

from __future__ import annotations

from typing import Any, Tuple, Union

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    format_histogram,
    histogram_quantile,
    metrics_json,
    text_summary,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_MS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.perfstore import BudgetCheck, PerfEntry, PerfStore
from repro.obs.progress import ProgressRenderer
from repro.obs.runlog import (
    HOST_EVENTS,
    NULL_RUNLOG,
    NullRunLog,
    RUNLOG_NAME,
    RUNLOG_VERSION,
    RunLog,
    deterministic_bytes,
    deterministic_events,
    read_runlog,
)
from repro.obs.tracer import (
    Instant,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanHandle,
    Tracer,
)

AnyTracer = Union[Tracer, NullTracer]
AnyMetrics = Union[MetricsRegistry, NullMetrics]


def install(env: Any, metrics: "MetricsRegistry | None" = None,
            ) -> Tuple[Tracer, MetricsRegistry]:
    """Attach a new tracer and ``metrics`` (or a new registry) to ``env``.

    Must run right after ``Environment()`` — subsystems capture their
    tracer/metrics handles at construction time, so anything built before
    ``install`` stays uninstrumented.  Also wires the kernel's per-step
    ``sim.steps`` counter (the one hook the kernel reads directly).
    """
    tracer = Tracer(env)
    metrics = metrics if metrics is not None else MetricsRegistry()
    env.tracer = tracer
    env.metrics = metrics
    env._steps_counter = metrics.counter("sim.steps")
    return tracer, metrics


def tracer_of(env: Any) -> AnyTracer:
    """The environment's tracer, or the no-op singleton when not installed."""
    tracer = getattr(env, "tracer", None)
    return NULL_TRACER if tracer is None else tracer


def metrics_of(env: Any) -> AnyMetrics:
    """The environment's metrics registry, or the no-op singleton."""
    metrics = getattr(env, "metrics", None)
    return NULL_METRICS if metrics is None else metrics


__all__ = [
    "AnyMetrics",
    "AnyTracer",
    "BudgetCheck",
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "Gauge",
    "HOST_EVENTS",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_RUNLOG",
    "NULL_TRACER",
    "NullMetrics",
    "NullRunLog",
    "NullTracer",
    "PerfEntry",
    "PerfStore",
    "ProgressRenderer",
    "RUNLOG_NAME",
    "RUNLOG_VERSION",
    "RunLog",
    "Span",
    "SpanHandle",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "deterministic_bytes",
    "deterministic_events",
    "format_histogram",
    "histogram_quantile",
    "install",
    "metrics_json",
    "read_runlog",
    "text_summary",
    "write_chrome_trace",
]
