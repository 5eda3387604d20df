"""Fault-injection QoE studies: degraded-condition extensions of §3/§4.

The paper measures QoE on healthy devices over a clean WiFi link; these
sweeps re-run the web PLT and video rebuffering experiments under the
conditions that dominate real mobile sessions — bursty Gilbert–Elliott
loss and thermal throttling — using :mod:`repro.faults` injectors and
:class:`~repro.core.experiments.RobustTrialRunner`, so a trial killed by
an injected crash degrades the summary (failure count) instead of the
study.

Every point is deterministic: trial ``i`` of a sweep position derives its
seed from the experiment name, the fault plan draws from child streams of
that seed, and re-running produces identical metrics and fault traces.

The faults injected here live *inside* the simulation (sim-time loss
bursts, throttling, crashes).  Host-level faults — a worker process dying
under ``--jobs N`` — are handled one layer down by
:class:`repro.parallel.SupervisedExecutor`: the runner journals a
quarantined trial as an ordinary crash/timeout/error row, so the two
fault layers share one failure taxonomy (see ``docs/parallelism.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.stats import Summary
from repro.core.experiments import RobustRunReport, RobustTrialRunner
from repro.core.session import simulate
from repro.device import DeviceSpec, NEXUS4
from repro.faults import BurstLossSpec, CrashSpec, FaultPlan, ThermalThrottleSpec
from repro.netstack import LinkSpec
from repro.parallel import Executor
from repro.sim import Environment
from repro.video import StreamingPlayer, VideoSpec
from repro.web import BrowserEngine
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec
from repro.workloads.regexcorpus import RegexWorkloadFactory


@dataclass
class FaultStudyConfig:
    """Scale and robustness knobs for the degraded-condition sweeps.

    Unlike the healthy-baseline studies, the default link is a congested
    cellular-class path (3 Mbps, 60 ms RTT) — just above the ABR's 720p
    bitrate, so injected loss bursts actually move PLT and stall ratio
    instead of vanishing into LAN headroom.
    """

    n_pages: int = 3
    trials: int = 5
    clip: VideoSpec = field(default_factory=lambda: VideoSpec(duration_s=60.0))
    link: LinkSpec = field(
        default_factory=lambda: LinkSpec(goodput_bps=3e6, rtt_s=0.060))
    #: Injected crash probability per trial (0 disables the crash injector).
    crash_probability: float = 0.0
    max_attempts: int = 2
    #: Kernel step budget per trial; None disables the guard.
    step_budget: Optional[int] = 5_000_000
    #: Directory for per-experiment trial journals (enables ``--resume``).
    journal_dir: Optional[Path] = None
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None

    def __post_init__(self) -> None:
        if self.step_budget is not None and self.step_budget < 1:
            raise ValueError("step budget must be at least 1")


@dataclass
class FaultSweepPoint:
    """One x-position of a degraded-condition figure."""

    label: str
    metric: Summary
    report: RobustRunReport


class FaultStudy:
    """Web-PLT and video-rebuffer sweeps under injected faults."""

    def __init__(self, config: Optional[FaultStudyConfig] = None):
        self.config = config or FaultStudyConfig()
        self.corpus: list[PageSpec] = generate_corpus(
            self.config.n_pages, factory=RegexWorkloadFactory(),
        )

    def _plan(self, p_bad: float = 0.0, cap: float = 1.0,
              throttle_at_s: float = 0.5) -> FaultPlan:
        """One sweep point's faults, then the crash injector when enabled.

        A Gilbert–Elliott burst-loss channel when ``p_bad > 0``; a
        thermal cap from sim time ``throttle_at_s`` when ``cap < 1``.
        """
        specs: list = []
        if p_bad > 0:
            specs.append(BurstLossSpec(p_bad=p_bad, mean_good_s=3.0,
                                       mean_bad_s=2.0))
        if cap < 1.0:
            specs.append(ThermalThrottleSpec(schedule=((throttle_at_s, cap),)))
        if self.config.crash_probability > 0:
            specs.append(CrashSpec(probability=self.config.crash_probability,
                                   window_s=(0.5, 8.0)))
        return FaultPlan(specs)

    # -- runner plumbing ---------------------------------------------------

    def _point(self, experiment: str, label: str, trial_fn,
               resume: bool) -> FaultSweepPoint:
        journal = None
        if self.config.journal_dir is not None:
            safe = experiment.replace(":", "_").replace("/", "_")
            journal = Path(self.config.journal_dir) / f"{safe}.json"
        report = RobustTrialRunner(
            trials=self.config.trials, experiment=experiment,
            max_attempts=self.config.max_attempts, journal_path=journal,
            executor=self.config.executor,
        ).run(trial_fn, resume=resume)
        return FaultSweepPoint(label=label, metric=report.summary(),
                               report=report)

    def _web_point(self, experiment: str, label: str, plan: FaultPlan,
                   spec: DeviceSpec, resume: bool) -> FaultSweepPoint:
        return self._point(experiment, label, _WebFaultTrial(
            spec=spec, link=self.config.link, pages=tuple(self.corpus),
            plan=plan, step_budget=self.config.step_budget,
            device_kwargs={"governor": "OD"}), resume)

    def _video_point(self, experiment: str, label: str, plan: FaultPlan,
                     spec: DeviceSpec, resume: bool,
                     metric: str = "stall") -> FaultSweepPoint:
        return self._point(experiment, label, _VideoFaultTrial(
            spec=spec, link=self.config.link, clip=self.config.clip,
            plan=plan, metric=metric, step_budget=self.config.step_budget,
            device_kwargs={"governor": "OD"}), resume)

    # -- sweeps ------------------------------------------------------------

    def plt_vs_burst_loss(
        self, spec: DeviceSpec = NEXUS4,
        p_bads: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
        resume: bool = False,
    ) -> list[FaultSweepPoint]:
        """Mean PLT as the bad-state loss rate of a GE channel grows."""
        return [self._web_point(f"faults:web:ge:{p_bad}", f"p_bad={p_bad}",
                                self._plan(p_bad=p_bad), spec, resume)
                for p_bad in p_bads]

    def plt_vs_thermal_cap(
        self, spec: DeviceSpec = NEXUS4,
        caps: Sequence[float] = (1.0, 0.75, 0.5, 0.35),
        resume: bool = False,
    ) -> list[FaultSweepPoint]:
        """Mean PLT as a thermal governor caps the DVFS ladder mid-load."""
        return [self._web_point(f"faults:web:thermal:{cap}", f"cap={cap}",
                                self._plan(cap=cap), spec, resume)
                for cap in caps]

    def rebuffer_vs_burst_loss(
        self, spec: DeviceSpec = NEXUS4,
        p_bads: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
        resume: bool = False,
    ) -> list[FaultSweepPoint]:
        """Stall ratio as the GE channel's bad-state loss rate grows."""
        return [self._video_point(f"faults:video:ge:{p_bad}",
                                  f"p_bad={p_bad}", self._plan(p_bad=p_bad),
                                  spec, resume)
                for p_bad in p_bads]

    def rebuffer_vs_thermal_cap(
        self, spec: DeviceSpec = NEXUS4,
        caps: Sequence[float] = (1.0, 0.75, 0.5, 0.35),
        resume: bool = False,
    ) -> list[FaultSweepPoint]:
        """Stall ratio as thermal throttling caps the decode clock.

        Expected near-zero across the whole sweep: §3.2's finding that the
        read-ahead buffer makes playback immune to slow clocks holds under
        injected thermal throttling too — the robustness analogue of
        Fig 4a's flat stall line.  The metric that *does* move is startup
        (see :meth:`startup_vs_thermal_cap`).
        """
        return [self._video_point(f"faults:video:thermal:{cap}",
                                  f"cap={cap}", self._plan(cap=cap),
                                  spec, resume)
                for cap in caps]

    def startup_vs_thermal_cap(
        self, spec: DeviceSpec = NEXUS4,
        caps: Sequence[float] = (1.0, 0.75, 0.5, 0.35),
        resume: bool = False,
    ) -> list[FaultSweepPoint]:
        """Start-up latency under thermal caps — the metric §3.2 says
        clock throttling actually hurts (player init is compute-bound)."""
        # Cap from t=0 so the init phase, not just steady state, runs
        # throttled.
        return [self._video_point(f"faults:video:startup:{cap}",
                                  f"cap={cap}",
                                  self._plan(cap=cap, throttle_at_s=0.0),
                                  spec, resume, metric="startup")
                for cap in caps]


@dataclass
class _WebFaultTrial:
    """Picklable robust-runner trial: mean faulted PLT over the corpus.

    Replaces the closure the sweeps used to build inline — closures cannot
    cross the process boundary, instances of this class can.
    """

    spec: DeviceSpec
    link: LinkSpec
    pages: tuple[PageSpec, ...]
    plan: FaultPlan
    step_budget: Optional[int]
    device_kwargs: dict

    def __call__(self, seed: int) -> float:
        plts = [
            simulate(Environment(), self.spec, self.link, seed + i,
                     lambda env, device, link: BrowserEngine(
                         env, device, link).load(page),
                     faults=self.plan, step_budget=self.step_budget,
                     **self.device_kwargs).plt
            for i, page in enumerate(self.pages)
        ]
        return sum(plts) / len(plts)


@dataclass
class _VideoFaultTrial:
    """Picklable robust-runner trial: one faulted streaming session."""

    spec: DeviceSpec
    link: LinkSpec
    clip: VideoSpec
    plan: FaultPlan
    metric: str
    step_budget: Optional[int]
    device_kwargs: dict

    def __call__(self, seed: int) -> float:
        result = simulate(Environment(), self.spec, self.link, seed,
                          lambda env, device, link: StreamingPlayer(
                              env, device, link, self.clip).run(),
                          faults=self.plan, step_budget=self.step_budget,
                          **self.device_kwargs)
        if self.metric == "startup":
            return result.startup_latency_s
        return result.stall_ratio


__all__ = ["FaultStudy", "FaultStudyConfig", "FaultSweepPoint"]
