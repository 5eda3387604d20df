"""Video-streaming QoE studies (Figs 2b, 4a–4d)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import axis_points, run_trials
from repro.device import DeviceSpec, NEXUS4
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


@dataclass
class StreamingPoint:
    """One figure x-position: start-up latency and stall ratio."""

    label: object
    startup: Summary
    stall_ratio: Summary


class VideoStudy:
    """Parameterized streaming sweeps on the simulated testbed."""

    #: Figure id of each §3 axis.
    FIGURES = {"devices": "fig2b", "clock": "fig4a", "memory": "fig4b",
               "cores": "fig4c", "governor": "fig4d"}

    def __init__(self, config: Optional[VideoStudyConfig] = None):
        self.config = config or VideoStudyConfig()
        self.executor = self.config.executor or SerialExecutor()

    def sweep(self, axis: str, spec: DeviceSpec = NEXUS4,
              values: Optional[Sequence] = None) -> list[StreamingPoint]:
        """Start-up latency and stall ratio along one §3 axis.

        ``devices`` is Fig 2b, ``clock``/``memory``/``cores``/``governor``
        are Figs 4a–4d; ``values=None`` sweeps the axis default.
        """
        points = []
        for label, experiment, point_spec, device_kwargs in axis_points(
                self.FIGURES, axis, spec, values):
            task = _StreamTask(spec=point_spec, link=self.config.link,
                               clip=self.config.clip,
                               device_kwargs=device_kwargs)
            results = run_trials(self.executor, task, experiment,
                                 self.config.trials)
            points.append(StreamingPoint(
                label=label,
                startup=summarize([r.startup_latency_s for r in results]),
                stall_ratio=summarize([r.stall_ratio for r in results]),
            ))
        return points


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
