"""Fleet report: the per-tier QoE document, as text or HTML.

Everything renders from :attr:`FleetReport.aggregate` — the streamed
snapshot — so the report is a pure function of the aggregate and
inherits its determinism: for a fixed cache state, the same seed renders
the same bytes at any worker count.

Quantiles come from :func:`repro.obs.export.histogram_quantile` (bucket
resolution); a quantile that lands in the ``+Inf`` overflow bucket
renders as ``>B`` where ``B`` is the last finite bucket bound.  The
report is built once as :mod:`repro.obs.document` blocks, whose two
writers also render run reports, so fleet reports look and ship alike.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.obs.document import (Block, Heading, Line, Table, Title,
                                write_html, write_text)
from repro.population.aggregate import ALL_TIER, WORKLOAD_METRICS
from repro.population.fleet import FleetReport

#: Quantiles every per-tier row reports.
QUANTILES = (0.5, 0.9, 0.99)

_TIER_HEADERS = ["tier", "n", "mean", "stdev", "min", "max",
                 "p50<=", "p90<=", "p99<="]


def _fmt_quantile(value: float, last_bound: float) -> str:
    if math.isinf(value):
        return f">{last_bound:g}"
    return f"{value:g}"


def _tier_order(report: FleetReport, entries: Dict[str, dict]) -> List[str]:
    """``all`` first, then configured tier order, then any leftovers."""
    order = [ALL_TIER] + [tier.name for tier in report.config.tiers]
    ordered = [name for name in order if name in entries]
    ordered += [name for name in sorted(entries) if name not in ordered]
    return ordered


def _metric_rows(report: FleetReport, workload: str,
                 metric: str) -> List[List[str]]:
    entries = report.series(workload, metric)
    rows: List[List[str]] = []
    for tier in _tier_order(report, entries):
        entry = entries[tier]
        n = entry["n"]
        if n == 0:
            rows.append([tier, "0", "n/a", "n/a", "n/a", "n/a",
                         "n/a", "n/a", "n/a"])
            continue
        last_bound = max(
            float(label) for label in entry["hist"]["buckets"]
            if label != "+Inf"
        )
        quantiles = [
            _fmt_quantile(report.quantile(workload, metric, q, tier),
                          last_bound)
            for q in QUANTILES
        ]
        rows.append([
            tier, str(n), f"{entry['mean']:.3f}", f"{entry['stdev']:.3f}",
            f"{entry['min']:.3f}", f"{entry['max']:.3f}", *quantiles,
        ])
    return rows


def _mix_line(counts: Dict[str, int], order: List[str]) -> str:
    ordered = [name for name in order if name in counts]
    ordered += [name for name in sorted(counts) if name not in ordered]
    return " ".join(f"{name}={counts[name]}" for name in ordered)


def _workload_order(report: FleetReport) -> List[str]:
    return [workload for workload, _ in report.config.workload_mix]


def _blocks(report: FleetReport) -> List[Block]:
    mix = report.aggregate.get("mix", {})
    failures = report.failures
    headline = (f"experiment {report.experiment} · {report.sessions} "
                f"sessions ({report.completed} ok, "
                f"{sum(failures.values())} failed)")
    if report.quarantined:
        headline += f" · {report.quarantined} quarantined"
    taxonomy = ", ".join(f"{status}={failures[status]}"
                         for status in sorted(failures))
    blocks: List[Block] = [
        Title("population fleet report"),
        Line(headline),
        Line("tiers: " + _mix_line(
            mix.get("tiers", {}), [t.name for t in report.config.tiers])),
        Line("workloads: " + _mix_line(
            mix.get("workloads", {}), _workload_order(report))),
        Line("networks: " + _mix_line(
            mix.get("networks", {}),
            [n.name for n in report.config.networks])),
        Line("failure taxonomy: "
             + (taxonomy or "clean (no failed sessions)")),
    ]
    for workload in _workload_order(report):
        for metric in WORKLOAD_METRICS.get(workload, ()):
            rows = _metric_rows(report, workload, metric)
            if rows:
                blocks += [Heading(f"{workload} · {metric}"),
                           Table(_TIER_HEADERS, rows)]
    return blocks


def render_text(report: FleetReport) -> str:
    """Plain-text fleet report (the ``population`` command's stdout)."""
    return write_text(_blocks(report))


def render_html(report: FleetReport) -> str:
    """Self-contained HTML fleet report (``--html`` artifact)."""
    return write_html(_blocks(report))


__all__ = ["QUANTILES", "render_html", "render_text"]
