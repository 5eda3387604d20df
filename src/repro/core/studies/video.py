"""Video-streaming QoE studies (Figs 2b, 4a–4d)."""

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
from repro.sim import Environment
from repro.video import StreamingPlayer, StreamingResult, VideoSpec


@dataclass
class VideoStudyConfig:
    """Scale knobs: the paper streams a 5-min FullHD clip 20 times."""

    clip: VideoSpec = field(default_factory=lambda: VideoSpec(duration_s=120.0))
    trials: int = 3
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None
    #: Content-addressed result cache; None checks the executor for an
    #: attached one (see :mod:`repro.cache`).
    cache: Optional[TrialCache] = None


@dataclass
class StreamingPoint:
    """One figure x-position: start-up latency and stall ratio."""

    label: object
    startup: Summary
    stall_ratio: Summary


class VideoStudy:
    """Parameterized streaming sweeps on the simulated testbed."""

    def __init__(self, config: Optional[VideoStudyConfig] = None):
        self.config = config or VideoStudyConfig()
        self.executor = self.config.executor or SerialExecutor()

    def _point(self, spec: DeviceSpec, label: object, experiment: str,
               **device_kwargs) -> StreamingPoint:
        seeds = [derive_seed(experiment, t)
                 for t in range(self.config.trials)]
        # Quarantined trials (supervised executors only) shrink n rather
        # than failing the sweep — same degradation as sim-level faults.
        results = cached_map(
            self.executor,
            _StreamTask(spec=spec, link=self.config.link,
                        clip=self.config.clip, device_kwargs=device_kwargs),
            seeds, experiment=experiment, cache=self.config.cache,
        )
        return StreamingPoint(
            label=label,
            startup=summarize([r.startup_latency_s for r in results]),
            stall_ratio=summarize([r.stall_ratio for r in results]),
        )

    def qoe_across_devices(
        self, devices: Sequence[DeviceSpec] = TABLE1_DEVICES
    ) -> list[StreamingPoint]:
        """Start-up latency / stall ratio per Table 1 device (Fig 2b)."""
        return [
            self._point(spec, spec.name, f"fig2b:{spec.name}", governor="OD")
            for spec in devices
        ]

    def vs_clock(self, spec: DeviceSpec = NEXUS4,
                 ladder: Optional[Sequence[int]] = None) -> list[StreamingPoint]:
        """Fig 4a: the DVFS ladder sweep."""
        ladder = ladder or spec.clusters[0].freqs_mhz
        return [
            self._point(spec, mhz, f"fig4a:{mhz}", pinned_mhz=mhz)
            for mhz in ladder
        ]

    def vs_memory(self, spec: DeviceSpec = NEXUS4,
                  sizes_gb: Sequence[float] = (0.5, 1.0, 1.5, 2.0)
                  ) -> list[StreamingPoint]:
        """Fig 4b: memory sweep."""
        return [
            self._point(spec, gb, f"fig4b:{gb}", governor="OD", memory_gb=gb)
            for gb in sizes_gb
        ]

    def vs_cores(self, spec: DeviceSpec = NEXUS4,
                 cores: Sequence[int] = (1, 2, 3, 4)) -> list[StreamingPoint]:
        """Fig 4c: core-count sweep."""
        return [
            self._point(spec, n, f"fig4c:{n}", governor="OD", online_cores=n)
            for n in cores
        ]

    def vs_governor(self, spec: DeviceSpec = NEXUS4,
                    governors: Sequence[str] = GOVERNOR_CODES
                    ) -> list[StreamingPoint]:
        """Fig 4d: governor sweep (PF IN US OD PW)."""
        return [
            self._point(spec, code, f"fig4d:{code}", governor=code)
            for code in governors
        ]


@dataclass
class _StreamTask:
    """Picklable per-trial task: one full streaming session."""

    spec: DeviceSpec
    link: LinkSpec
    clip: VideoSpec
    device_kwargs: dict

    def __call__(self, seed: int) -> StreamingResult:
        return simulate(Environment(), self.spec, self.link, seed,
                        lambda env, device, link: StreamingPlayer(
                            env, device, link, self.clip).run(),
                        **self.device_kwargs)


__all__ = ["StreamingPoint", "VideoStudy", "VideoStudyConfig"]
