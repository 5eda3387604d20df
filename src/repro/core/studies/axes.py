"""The five §3 resource axes, defined once for every app study.

§3 isolates one resource "by changing its value while keeping the
remaining setup constant".  Figs 2–5 are that one loop, run once per
(app, axis): :func:`axis_points` lays out the points of an axis and
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
from repro.device import DeviceSpec, GOVERNOR_CODES, TABLE1_DEVICES
from repro.parallel import Executor

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


def axis_points(figures: Mapping[str, str], axis: str, spec: DeviceSpec,
                values: Optional[Sequence] = None,
                ) -> Iterator[Tuple[Any, str, DeviceSpec, dict]]:
    """``(label, experiment, spec, device kwargs)`` for each point.

    Only ``values=None`` means the axis default; an empty selection
    stays empty.  A point's label is its value (a device's name on the
    ``devices`` axis) and its experiment is ``f"{figures[axis]}:{label}"``,
    so its trial seeds never depend on which other points run.
    """
    defaults, device_kwargs = AXES[axis]
    for value in defaults(spec) if values is None else values:
        label, point_spec = (value.name, value) if axis == "devices" \
            else (value, spec)
        yield (label, f"{figures[axis]}:{label}", point_spec,
               device_kwargs(value))


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


__all__ = ["AXES", "RESOURCE_AXES", "axis_points", "run_trials"]
