"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, text summary.

The Chrome format (loadable in Perfetto or ``chrome://tracing``) maps
naturally onto the tracer's event shapes:

* :class:`~repro.obs.tracer.Span` → a ``ph: "X"`` *complete* event with
  ``ts``/``dur`` in microseconds of simulated time;
* :class:`~repro.obs.tracer.Instant` → a ``ph: "i"`` *instant* event;
* each simulated session is its own process (``pid``), and each
  category gets its own thread row (``tid`` + ``thread_name`` metadata)
  so the sim kernel, netstack, web/video models, and device land on
  separate swimlanes.

Serialization is canonical — sorted keys, no whitespace, deterministic
float reprs of simulated quantities — so the exported bytes of a seeded
trial are part of the replay contract (tested byte-for-byte).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Microseconds per simulated second (Chrome's ``ts`` unit).
_US = 1e6


def _ts(seconds: float) -> float:
    """Simulated seconds → trace microseconds, stable to sub-ns."""
    return round(seconds * _US, 3)


def chrome_trace_events(tracer: Tracer, pid: int) -> list[dict]:
    """One process's ``traceEvents``: metadata rows + spans + instants."""
    categories = tracer.categories()
    tid_of = {cat: index + 1 for index, cat in enumerate(categories)}
    events: list[dict] = [{
        "args": {"name": "repro simulation"},
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
    }]
    for cat in categories:
        events.append({
            "args": {"name": cat},
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": tid_of[cat],
        })
    data: list[dict] = []
    for span in tracer.spans:
        event = {
            "cat": span.cat, "dur": _ts(span.duration), "name": span.name,
            "ph": "X", "pid": pid, "tid": tid_of[span.cat],
            "ts": _ts(span.start),
        }
        if span.args:
            event["args"] = span.args
        data.append(event)
    for inst in tracer.instants:
        event = {
            "cat": inst.cat, "name": inst.name, "ph": "i", "pid": pid,
            "s": "t", "tid": tid_of[inst.cat], "ts": _ts(inst.t),
        }
        if inst.args:
            event["args"] = inst.args
        data.append(event)
    # Stable sort: ties keep recording order, which is itself deterministic.
    data.sort(key=lambda e: (e["ts"], e["tid"]))
    return events + data


def chrome_trace_json(tracers: Sequence[Tracer]) -> str:
    """Canonical Chrome ``trace_event`` JSON: one process per tracer."""
    payload = {
        "displayTimeUnit": "ms",
        "metadata": {"clock": "simulated-seconds", "tool": "repro.obs"},
        "traceEvents": [
            event for pid, tracer in enumerate(tracers, 1)  # pids from 1
            for event in chrome_trace_events(tracer, pid)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracers: Sequence[Tracer],
                       path: Union[str, Path]) -> Path:
    """Write the Chrome trace to ``path``; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(chrome_trace_json(tracers), encoding="utf-8")
    return target


def metrics_json(metrics: MetricsRegistry) -> str:
    """Canonical flat-JSON serialization of a metrics snapshot."""
    return json.dumps(metrics.snapshot(), sort_keys=True,
                      separators=(",", ":"))


def histogram_quantile(hist: dict, q: float) -> float:
    """Bucket-derived upper bound of quantile ``q`` of a histogram dict.

    Takes the ``{"count", "sum", "buckets"}`` shape of
    :meth:`~repro.obs.metrics.Histogram.as_dict` (labels are stringified
    upper bounds plus ``"+Inf"``) and returns the smallest bucket bound
    whose cumulative count reaches ``q * count`` — the standard ``le``
    bucket estimate, exact to bucket resolution and fully deterministic.
    Observations beyond the last finite bound yield ``inf``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1] (got {q})")
    count = hist.get("count", 0)
    if count <= 0:
        return 0.0
    target = q * count
    finite = sorted(
        (float(label), n)
        for label, n in hist.get("buckets", {}).items() if label != "+Inf"
    )
    cumulative = 0
    for bound, n in finite:
        cumulative += n
        if cumulative >= target:
            return bound
    return float("inf")


def format_histogram(name: str, hist: dict) -> str:
    """One deterministic line describing a histogram snapshot value."""
    count = hist.get("count", 0)
    total = hist.get("sum", 0.0)
    mean = total / count if count else 0.0
    p50 = histogram_quantile(hist, 0.50)
    p95 = histogram_quantile(hist, 0.95)

    def bound(value: float) -> str:
        return "+Inf" if value == float("inf") else f"{value:g}"

    return (f"{name}: n={count} sum={total:.3f} mean={mean:.3f} "
            f"p50<={bound(p50)} p95<={bound(p95)}")


def text_summary(tracers: Sequence[Tracer], metrics: MetricsRegistry) -> str:
    """Human-readable one-screen digest of a traced trial's sessions."""
    lines = ["trace summary:"]
    counts = sum((Counter(t.counts_by_category()) for t in tracers),
                 Counter())
    if counts:
        per_cat = ", ".join(f"{cat}={counts[cat]}" for cat in sorted(counts))
        lines.append(f"  events: {sum(counts.values())} ({per_cat})")
    else:
        lines.append("  events: 0")
    snapshot = metrics.snapshot()
    if snapshot:
        lines.append(f"  metrics: {len(snapshot)}")
        for name, value in snapshot.items():
            if isinstance(value, dict):
                lines.append(f"    {format_histogram(name, value)}")
            else:
                lines.append(f"    {name}: {value:g}")
    return "\n".join(lines)


__all__ = [
    "chrome_trace_events",
    "chrome_trace_json",
    "format_histogram",
    "histogram_quantile",
    "metrics_json",
    "text_summary",
    "write_chrome_trace",
]
