"""Trace any figure session: ``repro trace <experiment> [--trial N]``.

Every figure folds one picklable task per *experiment*, the name its
seeds and cache keys derive from (``fig2a:Google Nexus4``, ``fig3a:384``,
``fig6``, ``faults:web:ge:0.2``, ...).  :func:`experiments` lists them
from the studies' own ``layouts`` at default configs, :func:`resolve`
turns a name and a trial index into ``(task, item)``, and
:func:`run_traced_trial` runs ``task(item)`` with observability
installed on each session it simulates (through
:data:`repro.core.session.on_environment`).

The Chrome ``trace_event`` export loads in https://ui.perfetto.dev: one
process per session, in run order, one swimlane per subsystem category.
All sessions share one metrics registry.  Same experiment and trial ⇒
byte-identical export (tests assert this).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from repro.core import session
from repro.core.experiments import derive_seed
from repro.obs import (MetricsRegistry, Tracer, install, metrics_json,
                       text_summary, write_chrome_trace)


def experiments() -> Iterator[Tuple[str, Callable[[Any], Any],
                                    Optional[Sequence]]]:
    """``(experiment, task, items)`` of every experiment a figure folds;
    ``items`` is ``None`` for a seeded sweep (trial ``t`` runs
    ``derive_seed(experiment, t)``), else an unseeded map's pages or
    clocks.  Each study is built only once it is reached."""
    from repro.core.studies import (FaultStudy, OffloadStudy, RtcStudy,
                                    VideoStudy, WebStudy, history, joint,
                                    network)

    yield from WebStudy().layouts()
    yield from VideoStudy().layouts()
    yield from RtcStudy().layouts()
    yield from history.layouts()
    yield from network.layouts()
    yield from OffloadStudy().layouts()
    yield from joint.layouts()
    yield from FaultStudy().layouts()


def resolve(experiment: str, trial: int) -> Tuple[Callable[[Any], Any], Any]:
    """``(task, item)`` of one trial; raises :class:`ValueError` for an
    unknown experiment or an out-of-range trial.  Runs nothing."""
    for name, task, items in experiments():
        if name != experiment:
            continue
        if items is None and trial >= 0:
            return task, derive_seed(experiment, trial)
        if items is not None and 0 <= trial < len(items):
            return task, items[trial]
        raise ValueError(f"trial {trial} is out of range for {experiment!r}"
                         + ("" if items is None else f" ({len(items)} items)"))
    raise ValueError(f"unknown experiment {experiment!r}")


@dataclass
class TracedTrial:
    """One traced trial: its task's result plus each session's tracer."""

    result: Any
    tracers: list[Tracer]  #: one per session, in run order
    metrics: MetricsRegistry  #: shared by every session


def run_traced_trial(experiment: str, trial: int = 0) -> TracedTrial:
    """Run one trial of ``experiment`` with observability installed."""
    return _trace(*resolve(experiment, trial))


def _trace(task: Callable[[Any], Any], item: Any) -> TracedTrial:
    metrics = MetricsRegistry()
    tracers: list[Tracer] = []
    session.on_environment = lambda env: tracers.append(
        install(env, metrics=metrics)[0])
    try:
        result = task(item)
    finally:
        session.on_environment = None
    return TracedTrial(result, tracers, metrics)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro trace``."""
    parser = argparse.ArgumentParser(
        prog="repro trace", description="Trace one trial of a figure's "
        "experiment: a Chrome trace with one process per session (open it "
        "in https://ui.perfetto.dev).")
    parser.add_argument("experiment", help="e.g. 'fig2a:Google Nexus4', "
                        "'fig3a:384', 'fig6' or 'faults:web:ge:0.2'")
    parser.add_argument("--trial", type=int, default=0,
                        help="trial of a seeded sweep, or page/clock index "
                             "of an unseeded map (default 0)")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace_event JSON output path")
    parser.add_argument("--metrics-out", default=None,
                        help="also write the merged metrics snapshot here")
    options = parser.parse_args(argv)
    try:
        task, item = resolve(options.experiment, options.trial)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        traced = _trace(task, item)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    write_chrome_trace(traced.tracers, options.out)
    print(text_summary(traced.tracers, traced.metrics))
    print(f"{options.experiment} trial {options.trial}: "
          f"{len(traced.tracers)} sessions, "
          f"{traced.metrics.snapshot()['sim.steps']:g} steps")
    print(f"[wrote {options.out}]")
    if options.metrics_out:
        Path(options.metrics_out).write_text(metrics_json(traced.metrics),
                                             encoding="utf-8")
        print(f"[wrote {options.metrics_out}]")
    return 0


__all__ = ["TracedTrial", "experiments", "main", "resolve",
           "run_traced_trial"]
