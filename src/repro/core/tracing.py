"""Traceable trials: canonical scenarios wired to :mod:`repro.obs`.

``python -m repro trace <trial>`` runs one seeded scenario with the
tracer and metrics registry installed and exports a Chrome
``trace_event`` JSON that Perfetto (https://ui.perfetto.dev) loads
directly: one swimlane per subsystem category (``sim``, ``net``, ``web``
or ``video``, ``device``, ``faults``), spans and instants on the
simulated clock.

Each traceable trial is a thin builder over an existing study scenario —
a Fig 2a page load, the Fig 3a low-clock point, a Fig 4a streaming
session, a Fig 6 iperf run, and a faulted page load — chosen so a single
trace exercises the kernel, the netstack, a QoE model, and the device
model at once.  Determinism contract: same trial + same seed ⇒
byte-identical exported trace (tests assert this).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from repro.core.experiments import derive_seed
from repro.core.session import simulate
from repro.device import NEXUS4
from repro.faults import BurstLossSpec, FaultPlan, ThermalThrottleSpec
from repro.netstack import LinkSpec, iperf_downstream
from repro.obs import (
    MetricsRegistry,
    Tracer,
    install,
    metrics_json,
    text_summary,
    write_chrome_trace,
)
from repro.sim import Environment
from repro.video import StreamingPlayer, VideoSpec
from repro.web import BrowserEngine
from repro.workloads import generate_corpus


@dataclass
class TracedTrial:
    """One traced scenario run: its QoE value plus the full observation."""

    name: str
    seed: int
    metric_name: str
    value: float
    sim_time_s: float
    steps: int
    tracer: Tracer
    metrics: MetricsRegistry


def _web_load(env: Environment, seed: int, experiment: str, *,
              plan: Optional[FaultPlan] = None,
              **device_kwargs) -> Tuple[str, float]:
    """Shared fig2a-shaped page load: NEXUS4, ondemand, background jitter."""
    page = generate_corpus(1)[0]
    result = simulate(env, NEXUS4, LinkSpec(), derive_seed(experiment, seed),
                      lambda env, device, link: BrowserEngine(
                          env, device, link).load(page),
                      faults=plan, governor="OD", **device_kwargs)
    return "plt_s", result.plt


def _fig2a(env: Environment, seed: int) -> Tuple[str, float]:
    """Fig 2a: one corpus page on the Nexus 4 at the default governor."""
    return _web_load(env, seed, "trace.fig2a")


def _fig3a_low(env: Environment, seed: int) -> Tuple[str, float]:
    """Fig 3a, lowest x-position: the same load with the clock pinned low."""
    return _web_load(env, seed, "trace.fig3a-low", pinned_mhz=384)


def _faults_web(env: Environment, seed: int) -> Tuple[str, float]:
    """The fig2a load under burst loss + thermal throttling.

    Faults draw from the session seed and install after the load's
    process, the same wiring :class:`~repro.core.studies.FaultStudy`
    trials use.
    """
    plan = FaultPlan([BurstLossSpec(p_bad=0.2, mean_bad_s=0.5),
                      ThermalThrottleSpec()])
    return _web_load(env, seed, "trace.faults-web", plan=plan)


def _fig4a(env: Environment, seed: int) -> Tuple[str, float]:
    """Fig 4a: a short streaming session on the Nexus 4."""
    clip = VideoSpec(duration_s=30.0)
    result = simulate(env, NEXUS4, LinkSpec(),
                      derive_seed("trace.fig4a", seed),
                      lambda env, device, link: StreamingPlayer(
                          env, device, link, clip).run(),
                      governor="OD")
    return "stall_ratio", result.stall_ratio


def _fig6(env: Environment, seed: int) -> Tuple[str, float]:
    """Fig 6: downstream bulk TCP for 5 simulated seconds (unseeded)."""
    result = simulate(env, NEXUS4, LinkSpec(), None,
                      partial(iperf_downstream, duration_s=5.0),
                      governor="PF")
    return "throughput_mbps", result.throughput_mbps


#: Name → builder.  Builders run the whole scenario inside the prepared env.
TRACEABLE: dict[str, Callable[[Environment, int], Tuple[str, float]]] = {
    "fig2a": _fig2a,
    "fig3a-low": _fig3a_low,
    "fig4a": _fig4a,
    "fig6": _fig6,
    "faults-web": _faults_web,
}


def run_traced_trial(name: str, seed: int = 0) -> TracedTrial:
    """Run one traceable trial with observability installed."""
    try:
        builder = TRACEABLE[name]
    except KeyError:
        known = ", ".join(sorted(TRACEABLE))
        raise ValueError(f"unknown traceable trial {name!r}; one of: {known}")
    env = Environment()
    tracer, metrics = install(env)
    metric_name, value = builder(env, seed)
    metrics.gauge("sim.time_s").set(env.now)
    return TracedTrial(
        name=name, seed=seed, metric_name=metric_name, value=value,
        sim_time_s=env.now, steps=env.steps_processed,
        tracer=tracer, metrics=metrics,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro trace``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one traceable trial and export a Chrome trace "
                    "(load the output in https://ui.perfetto.dev).",
    )
    parser.add_argument("trial", choices=sorted(TRACEABLE),
                        help="which scenario to trace")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace_event JSON output path")
    parser.add_argument("--seed", type=int, default=0,
                        help="trial seed (same seed ⇒ byte-identical trace)")
    parser.add_argument("--metrics-out", default=None,
                        help="also write the flat metrics snapshot JSON here")
    options = parser.parse_args(argv)
    try:
        traced = run_traced_trial(options.trial, seed=options.seed)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    write_chrome_trace(traced.tracer, options.out)
    print(text_summary(traced.tracer, traced.metrics))
    print(f"{traced.name}: {traced.metric_name}={traced.value:.4f} "
          f"(seed {traced.seed}, {traced.steps} steps, "
          f"{traced.sim_time_s:.3f} sim-s)")
    print(f"[wrote {options.out}]")
    if options.metrics_out:
        Path(options.metrics_out).write_text(metrics_json(traced.metrics),
                                             encoding="utf-8")
        print(f"[wrote {options.metrics_out}]")
    return 0


__all__ = ["TRACEABLE", "TracedTrial", "main", "run_traced_trial"]
