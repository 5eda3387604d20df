"""Population-scale QoE fleet simulation (``python -m repro population``).

Every study in :mod:`repro.core.studies` sweeps one device knob at a
time; the paper's distributional claim — that low-end hardware drags
web/video/RTC QoE down by multiples *across the market* — lives in
population CDFs over heterogeneous device/network mixes.  This package
composes the existing machinery at that scale:

* :mod:`repro.population.market` — device tiers (Table 1 phones plus a
  synthesized legacy tier), network profiles, and the workload mix.
* :mod:`repro.population.config` — :class:`PopulationConfig` and the
  seeded :class:`SessionSampler` (``derive_seed``/``make_rng`` only).
* :mod:`repro.population.aggregate` — the streaming
  count/mean/M2 + fixed-bucket-histogram aggregator: memory stays
  O(buckets) however many sessions run.
* :mod:`repro.population.fleet` — :class:`FleetRunner` dispatching
  sessions through :mod:`repro.parallel` executors with runlog,
  quarantine, and :mod:`repro.cache` integration, and the resulting
  :class:`FleetReport`.
* :mod:`repro.population.report` — the fleet report, as text or HTML.

Determinism contract: for a fixed cache state, the aggregate (and its
JSON) is byte-identical for any ``--jobs`` value — results are folded in
a canonical order via a bounded reorder buffer, never in completion
order.  See ``docs/population.md``.
"""

from repro.population.aggregate import (
    ALL_TIER,
    FleetAggregator,
    METRIC_BUCKETS,
    StreamingStat,
    WORKLOAD_METRICS,
)
from repro.population.config import PopulationConfig, SessionSampler, SessionSpec
from repro.population.fleet import FleetReport, FleetRunner, SessionResult
from repro.population.market import (
    DEFAULT_NETWORKS,
    DEFAULT_WORKLOAD_MIX,
    DeviceTier,
    NetworkProfile,
    WORKLOADS,
    default_market,
    legacy_tier_devices,
)
from repro.population.report import render_html, render_text

__all__ = [
    "ALL_TIER",
    "DEFAULT_NETWORKS",
    "DEFAULT_WORKLOAD_MIX",
    "DeviceTier",
    "FleetAggregator",
    "FleetReport",
    "FleetRunner",
    "METRIC_BUCKETS",
    "NetworkProfile",
    "PopulationConfig",
    "SessionResult",
    "SessionSampler",
    "SessionSpec",
    "StreamingStat",
    "WORKLOADS",
    "WORKLOAD_METRICS",
    "default_market",
    "legacy_tier_devices",
    "render_html",
    "render_text",
]
