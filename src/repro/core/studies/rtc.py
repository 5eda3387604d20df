"""Video-telephony QoE studies (Figs 2c, 5a–5d)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.cache import TrialCache
from repro.core.experiments import derive_seed
from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec, GOVERNOR_CODES, NEXUS4, TABLE1_DEVICES
from repro.netstack import LinkSpec
from repro.parallel import Executor, SerialExecutor
from repro.rtc import CallConfig, CallResult, VideoCall
from repro.sim import Environment


@dataclass
class RtcStudyConfig:
    """Scale knobs for the call experiments."""

    call: CallConfig = field(default_factory=lambda: CallConfig(call_duration_s=20.0))
    trials: int = 3
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None
    #: Content-addressed result cache; None checks the executor for an
    #: attached one (see :mod:`repro.cache`).
    cache: Optional[TrialCache] = None


@dataclass
class CallPoint:
    """One figure x-position: setup delay and frame rate."""

    label: object
    setup_delay: Summary
    frame_rate: Summary


class RtcStudy:
    """Parameterized call sweeps on the simulated testbed."""

    def __init__(self, config: Optional[RtcStudyConfig] = None):
        self.config = config or RtcStudyConfig()
        self.executor = self.config.executor or SerialExecutor()

    def _point(self, spec: DeviceSpec, label: object, experiment: str,
               **device_kwargs) -> CallPoint:
        seeds = [derive_seed(experiment, t)
                 for t in range(self.config.trials)]
        # Quarantined trials (supervised executors only) shrink n rather
        # than failing the sweep — same degradation as sim-level faults.
        results = cached_map(
            self.executor,
            _CallTask(spec=spec, link=self.config.link,
                      call=self.config.call, device_kwargs=device_kwargs),
            seeds, experiment=experiment, cache=self.config.cache,
        )
        return CallPoint(
            label=label,
            setup_delay=summarize([r.setup_delay_s for r in results]),
            frame_rate=summarize([r.frame_rate for r in results]),
        )

    def qoe_across_devices(
        self, devices: Sequence[DeviceSpec] = TABLE1_DEVICES
    ) -> list[CallPoint]:
        """Frame rate per Table 1 device (Fig 2c)."""
        return [
            self._point(spec, spec.name, f"fig2c:{spec.name}", governor="OD")
            for spec in devices
        ]

    def vs_clock(self, spec: DeviceSpec = NEXUS4,
                 ladder: Optional[Sequence[int]] = None) -> list[CallPoint]:
        """Fig 5a: the DVFS ladder sweep."""
        ladder = ladder or spec.clusters[0].freqs_mhz
        return [
            self._point(spec, mhz, f"fig5a:{mhz}", pinned_mhz=mhz)
            for mhz in ladder
        ]

    def vs_memory(self, spec: DeviceSpec = NEXUS4,
                  sizes_gb: Sequence[float] = (0.5, 1.0, 1.5, 2.0)
                  ) -> list[CallPoint]:
        """Fig 5b: memory sweep."""
        return [
            self._point(spec, gb, f"fig5b:{gb}", governor="OD", memory_gb=gb)
            for gb in sizes_gb
        ]

    def vs_cores(self, spec: DeviceSpec = NEXUS4,
                 cores: Sequence[int] = (1, 2, 3, 4)) -> list[CallPoint]:
        """Fig 5c: core-count sweep."""
        return [
            self._point(spec, n, f"fig5c:{n}", governor="OD", online_cores=n)
            for n in cores
        ]

    def vs_governor(self, spec: DeviceSpec = NEXUS4,
                    governors: Sequence[str] = GOVERNOR_CODES
                    ) -> list[CallPoint]:
        """Fig 5d: governor sweep (PF IN US OD PW)."""
        return [
            self._point(spec, code, f"fig5d:{code}", governor=code)
            for code in governors
        ]


@dataclass
class _CallTask:
    """Picklable per-trial task: one full call session."""

    spec: DeviceSpec
    link: LinkSpec
    call: CallConfig
    device_kwargs: dict

    def __call__(self, seed: int) -> CallResult:
        return simulate(Environment(), self.spec, self.link, seed,
                        lambda env, device, link: VideoCall(
                            env, device, link, self.call).run(),
                        **self.device_kwargs)


__all__ = ["CallPoint", "RtcStudy", "RtcStudyConfig"]
