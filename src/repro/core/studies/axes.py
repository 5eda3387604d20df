"""The five §3 resource axes, defined once for every app study.

§3 isolates one resource "by changing its value while keeping the
remaining setup constant".  Figs 2–5 are that one loop, run once per
(app, axis): :class:`AxisStudy` lays out the points of an axis and
:func:`run_trials` folds one point's seeded trials through the study's
executor.  Each app study (``web``, ``video``, ``rtc``) keeps only its
picklable per-trial task, its point type and its figure ids.

This module imports no app package, so a study's cache fingerprint
still covers its own app and nothing else.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.experiments import derive_seed
from repro.core.pipeline import cached_map
from repro.device import DeviceSpec, GOVERNOR_CODES, NEXUS4, TABLE1_DEVICES
from repro.parallel import Executor, SerialExecutor

#: axis -> (default values on a device, device kwargs of one value).
#: ``devices`` also swaps the spec itself; every axis but ``clock`` and
#: ``governor`` runs under the phones' default ondemand governor.
AXES: dict[str, Tuple[Callable[[DeviceSpec], Sequence],
                      Callable[[Any], dict]]] = {
    "devices": (lambda spec: TABLE1_DEVICES,
                lambda device: {"governor": "OD"}),
    "clock": (lambda spec: spec.clusters[0].freqs_mhz,
              lambda mhz: {"pinned_mhz": mhz}),
    "memory": (lambda spec: (0.5, 1.0, 1.5, 2.0),
               lambda gb: {"governor": "OD", "memory_gb": gb}),
    "cores": (lambda spec: (1, 2, 3, 4),
              lambda n: {"governor": "OD", "online_cores": n}),
    "governor": (lambda spec: GOVERNOR_CODES,
                 lambda code: {"governor": code}),
}

#: The single-device axes of Figs 3–5, in figure order (a–d).
RESOURCE_AXES = ("clock", "memory", "cores", "governor")


def run_trials(executor: Executor, task: Callable[[int], Any],
               experiment: str, trials: int) -> list:
    """``task`` over one point's seeded trials, in trial order.

    Trial ``t`` runs with ``derive_seed(experiment, t)`` and replays from
    the cache attached to ``executor`` when one holds it.  A trial the
    supervisor quarantined drops out (smaller n), mirroring how sim-level
    failures degrade a point.
    """
    seeds = [derive_seed(experiment, trial) for trial in range(trials)]
    return cached_map(executor, task, seeds, experiment=experiment)


class AxisStudy:
    """An app study's §3 sweeps, one per axis of :data:`AXES`.

    A subclass names each axis's figure in ``FIGURES``, builds a point's
    per-trial task in ``task(spec, device_kwargs)`` and folds its
    surviving trials in ``point(label, results)``; its config carries
    ``trials`` and ``executor`` (``None``: in-process serial).
    """

    FIGURES: Mapping[str, str] = {}

    def __init__(self, config: Any):
        self.config = config
        self.executor = config.executor or SerialExecutor()

    def _points(self, axis: str, spec: DeviceSpec, values: Optional[Sequence],
                ) -> Iterator[Tuple[Any, str, Any]]:
        """``(label, experiment, task)`` per point; only ``values=None``
        means the axis default.  A label is its value (a device's name on
        ``devices``), its experiment ``f"{FIGURES[axis]}:{label}"``, so its
        trial seeds never depend on which other points run."""
        defaults, device_kwargs = AXES[axis]
        for value in defaults(spec) if values is None else values:
            label, point_spec = (value.name, value) if axis == "devices" \
                else (value, spec)
            yield (label, f"{self.FIGURES[axis]}:{label}",
                   self.task(point_spec, device_kwargs(value)))

    def sweep(self, axis: str, spec: DeviceSpec = NEXUS4,
              values: Optional[Sequence] = None) -> list:
        """One point per value of ``axis`` (``None``: the axis default)."""
        return [self.point(label, run_trials(self.executor, task, experiment,
                                             self.config.trials))
                for label, experiment, task in self._points(axis, spec,
                                                            values)]

    def layouts(self) -> Iterator[Tuple[str, Any, None]]:
        """``(experiment, task, None)`` of every seeded sweep this study
        folds at its defaults on the Nexus 4."""
        for axis in AXES:
            for _, experiment, task in self._points(axis, NEXUS4, None):
                yield experiment, task, None


__all__ = ["AXES", "AxisStudy", "RESOURCE_AXES", "run_trials"]
