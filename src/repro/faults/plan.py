"""Declarative fault plans: specs, the event trace, and installation.

A :class:`FaultPlan` is the single entry point studies use to degrade a
simulated testbed.  It is a list of immutable fault *specs* (what can go
wrong, with which parameters); :meth:`FaultPlan.install` binds them to one
trial's environment, constructing the matching injector processes.

Determinism contract: ``install`` takes one explicit seeded RNG (built via
:func:`repro.core.background.make_rng`) and derives an independent child
stream per spec, *in spec order*, so a given ``(experiment, trial,
FaultPlan)`` triple replays bit-identically regardless of how the
injectors interleave at runtime.  Every state transition an injector makes
is appended to a :class:`FaultTrace`, whose canonical JSONL serialization
is the replay fingerprint tests assert on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro.core.background import make_rng
from repro.device import Device
from repro.netstack import Link
from repro.obs import metrics_of, tracer_of
from repro.sim import Environment, Process


def spawn_rng(rng: random.Random) -> random.Random:
    """Derive an independent child RNG stream from a parent.

    Drawing the child seed from the parent keeps one audited seeding root
    (``make_rng``) while decoupling the consumers: adding draws inside one
    injector never perturbs another injector's stream.
    """
    return make_rng(rng.getrandbits(32))


# -- the fault event trace ---------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One injector state transition at one simulated instant."""

    t: float
    injector: str
    action: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"t": self.t, "injector": self.injector,
                "action": self.action, "detail": self.detail}


class FaultTrace:
    """Ordered record of every fault the plan injected into one trial."""

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    def record(self, env: Environment, injector: str, action: str,
               detail: str = "") -> None:
        """Append one transition stamped with the current simulated time.

        Every injection is also mirrored into the environment's tracer
        (as a ``faults``-category instant) and counted in
        ``faults.injected`` when observability is installed.
        """
        self.events.append(
            FaultEvent(t=round(env.now, 9), injector=injector,
                       action=action, detail=detail)
        )
        tracer_of(env).instant(f"fault.{injector}", "faults",
                               args={"action": action, "detail": detail})
        metrics_of(env).counter("faults.injected").inc()

    def to_jsonl(self) -> str:
        """Canonical serialization — byte-identical across replays."""
        return "\n".join(
            json.dumps(event.as_dict(), sort_keys=True,
                       separators=(",", ":"))
            for event in self.events
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


# -- fault specs -------------------------------------------------------------


@dataclass(frozen=True)
class BurstLossSpec:
    """Gilbert–Elliott two-state burst loss on the link.

    The chain dwells exponentially in a *good* state (loss ``p_good``) and
    a *bad* state (loss ``p_bad``); shorter ``mean_bad_s`` with the same
    stationary loss means burstier damage, the axis the faults study
    sweeps.
    """

    start_s: float = 0.0
    p_good: float = 0.0
    p_bad: float = 0.30
    mean_good_s: float = 5.0
    mean_bad_s: float = 1.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if not 0 <= self.p_good < 1 or not 0 <= self.p_bad < 1:
            raise ValueError("loss probabilities must lie in [0, 1)")
        if self.mean_good_s <= 0 or self.mean_bad_s <= 0:
            raise ValueError("state dwell times must be positive")


@dataclass(frozen=True)
class LinkFlapSpec:
    """Full outages: the link goes down and comes back, repeatedly."""

    start_s: float = 0.0
    mean_up_s: float = 10.0
    mean_down_s: float = 1.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.mean_up_s <= 0 or self.mean_down_s <= 0:
            raise ValueError("mean up/down times must be positive")


@dataclass(frozen=True)
class LatencySpikeSpec:
    """Transient latency spikes (bufferbloat, rate-adaptation stalls)."""

    start_s: float = 0.0
    mean_interval_s: float = 4.0
    spike_s: float = 0.25
    spike_duration_s: float = 0.5

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.mean_interval_s <= 0:
            raise ValueError("mean interval must be positive")
        if self.spike_s <= 0 or self.spike_duration_s <= 0:
            raise ValueError("spike magnitude and duration must be positive")


@dataclass(frozen=True)
class ThermalThrottleSpec:
    """Deterministic thermal-throttle schedule capping the DVFS ladder.

    ``schedule`` is an ascending sequence of ``(t_s, cap_fraction)`` pairs;
    at each time the CPU's ladder is capped at ``cap_fraction`` of every
    cluster's top frequency (1.0 lifts the cap).
    """

    schedule: Tuple[Tuple[float, float], ...] = ((2.0, 0.5),)

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValueError("schedule must be non-empty")
        last = -1.0
        for t_s, cap in self.schedule:
            if t_s < 0:
                raise ValueError("schedule times must be non-negative")
            if t_s <= last:
                raise ValueError("schedule times must be strictly ascending")
            if not 0 < cap <= 1:
                raise ValueError("cap fractions must lie in (0, 1]")
            last = t_s


@dataclass(frozen=True)
class MemoryPressureSpec:
    """Stochastic memory-pressure episodes (competing apps, LMK churn)."""

    start_s: float = 0.0
    mean_interval_s: float = 2.0
    pressure_gb: Tuple[float, float] = (0.1, 0.5)

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.mean_interval_s <= 0:
            raise ValueError("mean interval must be positive")
        low, high = self.pressure_gb
        if low < 0 or high < low:
            raise ValueError("pressure_gb must be a non-negative (low, high)")


@dataclass(frozen=True)
class CrashSpec:
    """Crash (interrupt) the trial's foreground sim processes.

    With probability ``probability`` the injector picks a uniform instant
    in ``window_s`` and throws :class:`repro.sim.Interrupt` into every
    target process still alive, modelling app/measurement-harness crashes
    mid-run (the failure mode in-situ Android measurement studies report).
    """

    probability: float = 1.0
    window_s: Tuple[float, float] = (0.0, 5.0)
    cause: str = "fault:crash"

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must lie in [0, 1]")
        low, high = self.window_s
        if low < 0 or high < low:
            raise ValueError("window_s must be a non-negative (low, high)")


FaultSpec = Union[
    BurstLossSpec,
    LinkFlapSpec,
    LatencySpikeSpec,
    ThermalThrottleSpec,
    MemoryPressureSpec,
    CrashSpec,
]

_LINK_SPECS = (BurstLossSpec, LinkFlapSpec, LatencySpikeSpec)
_DEVICE_SPECS = (ThermalThrottleSpec, MemoryPressureSpec)


# -- the plan ----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, reusable list of fault specs for one scenario.

    The plan is declarative — it holds no environment or RNG state — so a
    single plan object can be installed into every trial of a study.
    """

    specs: Tuple[FaultSpec, ...] = ()

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        object.__setattr__(self, "specs", tuple(specs))
        for spec in self.specs:
            if not isinstance(spec, (_LINK_SPECS + _DEVICE_SPECS + (CrashSpec,))):
                raise TypeError(f"unknown fault spec {spec!r}")

    def describe(self) -> str:
        """One-line human summary, stable across runs."""
        return "; ".join(type(spec).__name__ for spec in self.specs) or "clean"

    def install(
        self,
        env: Environment,
        *,
        rng: random.Random,
        link: Optional[Link] = None,
        device: Optional[Device] = None,
        processes: Sequence[Process] = (),
        trace: Optional[FaultTrace] = None,
    ) -> FaultTrace:
        """Bind every spec to ``env``, returning the shared fault trace.

        ``rng`` must be an explicitly seeded stream (``make_rng(seed)``).
        Specs that need a target (``link``/``device``/``processes``) raise
        ``ValueError`` when it was not provided.
        """
        # Imported here to keep plan.py free of injector-module cycles.
        from repro.faults.device import MemoryPressureInjector, ThermalThrottleInjector
        from repro.faults.link import (
            GilbertElliottLossInjector,
            LatencySpikeInjector,
            LinkFlapInjector,
        )
        from repro.faults.process import CrashInjector

        trace = trace if trace is not None else FaultTrace()
        for spec in self.specs:
            child = spawn_rng(rng)
            if isinstance(spec, _LINK_SPECS):
                if link is None:
                    raise ValueError(
                        f"{type(spec).__name__} needs a link target; pass link="
                    )
                if isinstance(spec, BurstLossSpec):
                    GilbertElliottLossInjector(env, link, spec, rng=child,
                                               trace=trace)
                elif isinstance(spec, LinkFlapSpec):
                    LinkFlapInjector(env, link, spec, rng=child, trace=trace)
                else:
                    LatencySpikeInjector(env, link, spec, rng=child,
                                         trace=trace)
            elif isinstance(spec, _DEVICE_SPECS):
                if device is None:
                    raise ValueError(
                        f"{type(spec).__name__} needs a device target; "
                        f"pass device="
                    )
                if isinstance(spec, ThermalThrottleSpec):
                    ThermalThrottleInjector(env, device, spec, rng=child,
                                            trace=trace)
                else:
                    MemoryPressureInjector(env, device, spec, rng=child,
                                           trace=trace)
            else:
                if not processes:
                    raise ValueError(
                        "CrashSpec needs target processes; pass processes="
                    )
                CrashInjector(env, processes, spec, rng=child, trace=trace)
        return trace


__all__ = [
    "BurstLossSpec",
    "CrashSpec",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultTrace",
    "LatencySpikeSpec",
    "LinkFlapSpec",
    "MemoryPressureSpec",
    "ThermalThrottleSpec",
    "spawn_rng",
]
