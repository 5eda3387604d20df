"""Video-telephony QoE studies (Figs 2c, 5a–5d)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import AxisStudy
from repro.device import DeviceSpec
from repro.netstack import LinkSpec
from repro.parallel import Executor
from repro.rtc import CallConfig, CallResult, VideoCall


@dataclass
class RtcStudyConfig:
    """Scale knobs for the call experiments."""

    call: CallConfig = field(default_factory=lambda: CallConfig(call_duration_s=20.0))
    trials: int = 3
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None


@dataclass
class CallPoint:
    """One figure x-position: setup delay and frame rate."""

    label: object
    setup_delay: Summary
    frame_rate: Summary


class RtcStudy(AxisStudy):
    """Call sweeps: ``devices`` is Fig 2c, the other axes Figs 5a–5d."""

    FIGURES = {"devices": "fig2c", "clock": "fig5a", "memory": "fig5b",
               "cores": "fig5c", "governor": "fig5d"}

    def __init__(self, config: Optional[RtcStudyConfig] = None):
        super().__init__(config or RtcStudyConfig())

    def task(self, spec: DeviceSpec, device_kwargs: dict) -> "_CallTask":
        return _CallTask(spec, self.config.link, self.config.call,
                         device_kwargs)

    def point(self, label: object, results: list[CallResult]) -> CallPoint:
        return CallPoint(
            label=label,
            setup_delay=summarize([r.setup_delay_s for r in results]),
            frame_rate=summarize([r.frame_rate for r in results]),
        )


@dataclass
class _CallTask:
    """Picklable per-trial task: one full call session."""

    spec: DeviceSpec
    link: LinkSpec
    call: CallConfig
    device_kwargs: dict

    def __call__(self, seed: int) -> CallResult:
        return simulate(self.spec, self.link, seed,
                        lambda env, device, link: VideoCall(
                            env, device, link, self.call).run(),
                        **self.device_kwargs)


__all__ = ["CallPoint", "RtcStudy", "RtcStudyConfig"]
