"""Deterministic fault injection for the simulated testbed.

The paper measures QoE on healthy devices over a clean LAN; this package
injects the degraded conditions that dominate real mobile QoE — bursty
loss, outages, latency spikes, thermal throttling, memory pressure, and
outright crashes — as seeded, composable simulation processes.

Public API:

* :class:`FaultPlan` — declarative list of fault specs; ``install(env,
  rng=make_rng(seed), ...)`` binds them to one trial.
* Spec types — :class:`BurstLossSpec`, :class:`LinkFlapSpec`,
  :class:`LatencySpikeSpec`, :class:`ThermalThrottleSpec`,
  :class:`MemoryPressureSpec`, :class:`CrashSpec`.
* :class:`FaultTrace` / :class:`FaultEvent` — the canonical, replayable
  record of everything a plan injected.
* Injector classes (``*Injector``) — the runtime processes, normally
  constructed by ``FaultPlan.install`` rather than directly.

Determinism: every injector draws only from the seeded RNG stream handed
to it (``rng`` is a required argument), so the same
``(experiment, trial, FaultPlan)`` produces a byte-identical
``FaultTrace`` and identical QoE metrics.
"""

from repro.faults.device import MemoryPressureInjector, ThermalThrottleInjector
from repro.faults.link import (
    GilbertElliottLossInjector,
    LatencySpikeInjector,
    LinkFlapInjector,
)
from repro.faults.plan import (
    BurstLossSpec,
    CrashSpec,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultTrace,
    LatencySpikeSpec,
    LinkFlapSpec,
    MemoryPressureSpec,
    ThermalThrottleSpec,
    spawn_rng,
)
from repro.faults.process import CrashInjector

__all__ = [
    "BurstLossSpec",
    "CrashInjector",
    "CrashSpec",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultTrace",
    "GilbertElliottLossInjector",
    "LatencySpikeInjector",
    "LinkFlapInjector",
    "LinkFlapSpec",
    "LatencySpikeSpec",
    "MemoryPressureInjector",
    "MemoryPressureSpec",
    "ThermalThrottleInjector",
    "ThermalThrottleSpec",
    "spawn_rng",
]
