"""Host cost of the simulation model: an untraced population fleet.

Times ``FleetRunner(...).run()`` over a 50-session population with no
tracer, no metrics and no cache.  The runner (market, page corpus and
regex profiling) is built outside the timer, so the time is sampling and
simulation only: the sim kernel, device, netstack and the web, video and
rtc apps.  The fastest of a few runs is recorded, as
``perf.fleet_cold.session_ms`` (wall time per session) and
``perf.fleet_cold.host_us_per_event`` (the same wall time over the kernel
events those sessions dispatched).  Events come from
``Environment.steps_processed`` in a separate pass that is not timed.
"""

from __future__ import annotations

import time

from repro.core import session
from repro.population import FleetRunner, PopulationConfig

SESSIONS = 50
#: Timed runs of the same population; the fastest is recorded.
RUNS = 3


def count_events(config: PopulationConfig, monkeypatch) -> int:
    """Kernel events dispatched by every session of ``config``."""
    environments: list = []
    with monkeypatch.context() as patch:
        patch.setattr(session, "on_environment", environments.append)
        FleetRunner(config).run()
    return sum(env.steps_processed for env in environments)


def test_fleet_cold_host_cost(fig_printer, perf_track, monkeypatch):
    config = PopulationConfig(sessions=SESSIONS, seed=1)
    runner = FleetRunner(config)
    timings, outputs = [], set()
    for _ in range(RUNS):
        start = time.perf_counter()  # simlint: disable=DET001
        report = runner.run()
        timings.append(time.perf_counter() - start)  # simlint: disable=DET001
        outputs.add(report.to_json())
    assert report.completed == SESSIONS
    assert len(outputs) == 1  # every run simulates the same sessions
    events = count_events(config, monkeypatch)
    assert events > 0

    wall_s = min(timings)
    session_ms = wall_s / SESSIONS * 1e3
    us_per_event = wall_s / events * 1e6
    perf_track("perf.fleet_cold.session_ms", session_ms, unit="ms",
               sessions=SESSIONS)
    perf_track("perf.fleet_cold.host_us_per_event", us_per_event, unit="us",
               sessions=SESSIONS, events=events)
    fig_printer("Model hot path: untraced fleet, cold", "\n".join([
        f"sessions          {SESSIONS}",
        f"kernel events     {events}",
        f"fastest run       {wall_s:8.3f} s of "
        + ", ".join(f"{t:.3f}" for t in timings),
        f"per session       {session_ms:8.2f} ms",
        f"per event         {us_per_event:8.2f} us",
    ]))
