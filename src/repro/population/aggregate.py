"""Streaming fleet aggregation: count/mean/M2 + fixed-bucket histograms.

The aggregator never retains per-session results.  Each QoE metric keeps
one :class:`StreamingStat` (Welford count/mean/M2) and one fixed-bucket :class:`~repro.obs.metrics.Histogram` per
device tier (plus the ``"all"`` rollup), so peak state is
O(tiers × metrics × buckets) — independent of how many sessions stream
through.

Equivalences the tests pin down:

* ``StreamingStat`` over any ordering of a value stream matches
  :func:`repro.analysis.stats.summarize` on the same values (population
  stdev, same n/min/max; means agree to float tolerance).
* Histogram snapshots use the exact
  :meth:`~repro.obs.metrics.Histogram.as_dict` shape, so
  :func:`repro.obs.export.histogram_quantile` reads them unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.obs.metrics import Histogram

#: Reserved tier label for the cross-tier rollup series.
ALL_TIER = "all"

#: Fixed histogram bucket bounds (``le`` semantics) per QoE metric.
METRIC_BUCKETS: Dict[str, Tuple[float, ...]] = {
    "plt_s": (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0,
              15.0, 20.0, 30.0, 45.0, 60.0, 90.0),
    "startup_s": (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0,
                  8.0, 10.0, 15.0, 20.0, 30.0),
    "stall_ratio": (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4,
                    0.5, 0.75),
    "setup_delay_s": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0,
                      20.0, 30.0, 45.0, 60.0),
    "frame_rate_fps": (5.0, 10.0, 15.0, 20.0, 24.0, 30.0, 45.0, 60.0),
}

#: QoE metrics each workload kind reports, in render order.
WORKLOAD_METRICS: Dict[str, Tuple[str, ...]] = {
    "web": ("plt_s",),
    "video": ("startup_s", "stall_ratio"),
    "rtc": ("setup_delay_s", "frame_rate_fps"),
}


class StreamingStat:
    """Welford count/mean/M2 accumulator with min/max.

    Matches :func:`repro.analysis.stats.summarize` semantics: population
    standard deviation (÷n), zeros for an empty stream.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def stdev(self) -> float:
        """Population standard deviation; 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / self.count)

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"n": 0, "mean": 0.0, "stdev": 0.0, "min": 0.0, "max": 0.0}
        return {
            "n": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
        }


class _Series:
    """One (workload, metric, tier) stream: moments + histogram."""

    __slots__ = ("stat", "hist")

    def __init__(self, workload: str, metric: str):
        self.stat = StreamingStat()
        self.hist = Histogram(f"population.{workload}.{metric}",
                              METRIC_BUCKETS[metric])

    def add(self, value: float) -> None:
        self.stat.add(value)
        self.hist.observe(value)

    def as_dict(self) -> dict:
        entry = self.stat.as_dict()
        entry["hist"] = self.hist.as_dict()
        return entry


def _bump(counts: Dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


class FleetAggregator:
    """Folds session results into per-tier metric series, O(buckets) state.

    Fold order matters only at float precision: the same multiset of
    sessions folded in any order yields the same counts and bucket
    populations exactly, and the same float accumulations (means,
    histogram sums) to ~1 ulp.  The fleet runner therefore folds in one
    canonical order so serialized aggregates are byte-identical across
    worker counts.
    """

    def __init__(self) -> None:
        self.sessions = 0
        self.failures: Dict[str, int] = {}
        self.tiers: Dict[str, int] = {}
        self.workloads: Dict[str, int] = {}
        self.networks: Dict[str, int] = {}
        self._series: Dict[Tuple[str, str, str], _Series] = {}

    @property
    def completed(self) -> int:
        return self.sessions - sum(self.failures.values())

    def _get(self, workload: str, metric: str, tier: str) -> _Series:
        key = (workload, metric, tier)
        series = self._series.get(key)
        if series is None:
            if metric not in METRIC_BUCKETS:
                raise ValueError(
                    f"metric {metric!r} has no bucket layout (known: "
                    f"{sorted(METRIC_BUCKETS)})")
            series = _Series(workload, metric)
            self._series[key] = series
        return series

    def observe(self, *, tier: str, workload: str, network: str,
                status: str, metrics: Dict[str, float]) -> None:
        """Fold one finished session (mix counts always, QoE on success)."""
        self.sessions += 1
        _bump(self.tiers, tier)
        _bump(self.workloads, workload)
        _bump(self.networks, network)
        if status != "ok":
            _bump(self.failures, status)
            return
        for metric in sorted(metrics):
            value = metrics[metric]
            self._get(workload, metric, tier).add(value)
            self._get(workload, metric, ALL_TIER).add(value)

    def snapshot(self) -> dict:
        """Canonical nested view, sorted at every level (JSON-stable)."""
        series: dict = {}
        for (workload, metric, tier), stream in self._series.items():
            series.setdefault(workload, {}).setdefault(metric, {})[tier] = (
                stream.as_dict())
        return {
            "sessions": self.sessions,
            "completed": self.completed,
            "failures": {k: self.failures[k] for k in sorted(self.failures)},
            "mix": {
                "networks": {k: self.networks[k]
                             for k in sorted(self.networks)},
                "tiers": {k: self.tiers[k] for k in sorted(self.tiers)},
                "workloads": {k: self.workloads[k]
                              for k in sorted(self.workloads)},
            },
            "series": {
                workload: {
                    metric: {tier: series[workload][metric][tier]
                             for tier in sorted(series[workload][metric])}
                    for metric in sorted(series[workload])
                }
                for workload in sorted(series)
            },
        }


__all__ = [
    "ALL_TIER",
    "FleetAggregator",
    "METRIC_BUCKETS",
    "StreamingStat",
    "WORKLOAD_METRICS",
]
