"""Video-telephony QoE studies (Figs 2c, 5a–5d)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import axis_points, run_trials
from repro.device import DeviceSpec, NEXUS4
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


@dataclass
class CallPoint:
    """One figure x-position: setup delay and frame rate."""

    label: object
    setup_delay: Summary
    frame_rate: Summary


class RtcStudy:
    """Parameterized call sweeps on the simulated testbed."""

    #: Figure id of each §3 axis.
    FIGURES = {"devices": "fig2c", "clock": "fig5a", "memory": "fig5b",
               "cores": "fig5c", "governor": "fig5d"}

    def __init__(self, config: Optional[RtcStudyConfig] = None):
        self.config = config or RtcStudyConfig()
        self.executor = self.config.executor or SerialExecutor()

    def sweep(self, axis: str, spec: DeviceSpec = NEXUS4,
              values: Optional[Sequence] = None) -> list[CallPoint]:
        """Call setup delay and frame rate along one §3 axis.

        ``devices`` is Fig 2c, ``clock``/``memory``/``cores``/``governor``
        are Figs 5a–5d; ``values=None`` sweeps the axis default.
        """
        points = []
        for label, experiment, point_spec, device_kwargs in axis_points(
                self.FIGURES, axis, spec, values):
            task = _CallTask(spec=point_spec, link=self.config.link,
                             call=self.config.call,
                             device_kwargs=device_kwargs)
            results = run_trials(self.executor, task, experiment,
                                 self.config.trials)
            points.append(CallPoint(
                label=label,
                setup_delay=summarize([r.setup_delay_s for r in results]),
                frame_rate=summarize([r.frame_rate for r in results]),
            ))
        return points


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
