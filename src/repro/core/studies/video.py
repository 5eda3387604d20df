"""Video-streaming QoE studies (Figs 2b, 4a–4d)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import AxisStudy
from repro.device import DeviceSpec
from repro.netstack import LinkSpec
from repro.parallel import Executor
from repro.video import StreamingPlayer, StreamingResult, VideoSpec


@dataclass
class VideoStudyConfig:
    """Scale knobs: the paper streams a 5-min FullHD clip 20 times."""

    clip: VideoSpec = field(default_factory=lambda: VideoSpec(duration_s=120.0))
    trials: int = 3
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None


@dataclass
class StreamingPoint:
    """One figure x-position: start-up latency and stall ratio."""

    label: object
    startup: Summary
    stall_ratio: Summary


class VideoStudy(AxisStudy):
    """Streaming sweeps: ``devices`` is Fig 2b, the other axes Figs 4a–4d."""

    FIGURES = {"devices": "fig2b", "clock": "fig4a", "memory": "fig4b",
               "cores": "fig4c", "governor": "fig4d"}

    def __init__(self, config: Optional[VideoStudyConfig] = None):
        super().__init__(config or VideoStudyConfig())

    def task(self, spec: DeviceSpec, device_kwargs: dict) -> "_StreamTask":
        return _StreamTask(spec, self.config.link, self.config.clip,
                           device_kwargs)

    def point(self, label: object,
              results: list[StreamingResult]) -> StreamingPoint:
        return StreamingPoint(
            label=label,
            startup=summarize([r.startup_latency_s for r in results]),
            stall_ratio=summarize([r.stall_ratio for r in results]),
        )


@dataclass
class _StreamTask:
    """Picklable per-trial task: one full streaming session."""

    spec: DeviceSpec
    link: LinkSpec
    clip: VideoSpec
    device_kwargs: dict

    def __call__(self, seed: int) -> StreamingResult:
        return simulate(self.spec, self.link, seed,
                        lambda env, device, link: StreamingPlayer(
                            env, device, link, self.clip).run(),
                        **self.device_kwargs)


__all__ = ["StreamingPoint", "VideoStudy", "VideoStudyConfig"]
