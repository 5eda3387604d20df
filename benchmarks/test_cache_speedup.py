"""Cold vs warm sweeps through the content-addressed trial cache.

Runs the same kernel-heavy trial batch twice against one ``--cache``
directory: the cold pass executes and stores every trial, the warm pass
must replay every one from the store without touching the executor.  The
trajectory (``cache.speedup.*``) feeds the perf budget check in CI, and
the byte-identity assertion is the cache's core guarantee — warmth must
be invisible in the journal.

The fleet case does the same for a population run
(``cache.fleet_replay.*``), whose session task carries the whole page
corpus.  ``warm_s`` replays through a new runner each time, so it pays
the sweep's key derivation; ``rerun_s`` replays through one runner, the
shape of ``benchmarks/perf``'s ``fleet-warm``, which derives it once.
"""

from __future__ import annotations

import json
import time

from repro.cache import TrialCache
from repro.core.background import make_rng
from repro.core.experiments import RobustTrialRunner
from repro.population import FleetRunner, PopulationConfig
from repro.sim import Environment

TRIALS = 6
FLEET_SESSIONS = 50
#: Warm replays timed; the fastest is recorded (each is ~tens of ms).
FLEET_REPLAYS = 5


def kernel_heavy_trial(seed: int) -> float:
    """~0.3s of pure event-loop work: the shape of every figure trial."""
    env = Environment()
    rng = make_rng(seed)

    def spin():
        for _ in range(200_000):
            yield env.timeout(rng.uniform(0.1, 1.0))

    env.run(env.process(spin()))
    return env.now


def run_batch(cache_root, journal_path) -> tuple:
    cache = TrialCache(cache_root)
    runner = RobustTrialRunner(trials=TRIALS, experiment="cachebench",
                               journal_path=journal_path, cache=cache)
    start = time.perf_counter()  # simlint: disable=DET001
    report = runner.run(kernel_heavy_trial)
    elapsed = time.perf_counter() - start  # simlint: disable=DET001
    assert report.failures == 0
    return elapsed, cache.stats


def test_cache_speedup(tmp_path, fig_printer, perf_track):
    cache_root = tmp_path / "cache"
    cold_journal = tmp_path / "cold.json"
    warm_journal = tmp_path / "warm.json"
    cold_s, cold_stats = run_batch(cache_root, cold_journal)
    warm_s, warm_stats = run_batch(cache_root, warm_journal)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    perf_track("cache.speedup.cold_s", cold_s, trials=TRIALS)
    perf_track("cache.speedup.warm_s", warm_s, trials=TRIALS)
    body = "\n".join([
        f"trials            {TRIALS}",
        f"cold (execute)    {cold_s:8.3f} s   {cold_stats.line()}",
        f"warm (replay)     {warm_s:8.3f} s   {warm_stats.line()}",
        f"speedup           {speedup:8.1f}x",
    ])
    fig_printer("Result cache: cold vs warm sweep trajectory", body)

    # The warm pass replayed everything: full hits, no executor work.
    assert warm_stats.hit_ratio == 1.0
    assert warm_stats.stores == 0

    # Warmth must be invisible in the journal bytes.
    assert cold_journal.read_bytes() == warm_journal.read_bytes()
    payload = json.loads(cold_journal.read_text())
    assert len(payload["records"]) == TRIALS

    # A replay is a key derivation plus a JSON read; well under the cold
    # cost of ~0.3s of kernel work per trial.
    assert warm_s < cold_s / 4


def timed_fleet_run(config, cache, runner=None) -> tuple:
    runner = runner or FleetRunner(config)
    runner.cache = cache
    start = time.perf_counter()  # simlint: disable=DET001
    aggregate = runner.run().to_json()
    elapsed = time.perf_counter() - start  # simlint: disable=DET001
    return elapsed, aggregate


def fastest_replay(config, root, cold, runner=None) -> tuple:
    """The fastest of ``FLEET_REPLAYS`` replays, each via a fresh handle."""
    runs = []
    for _ in range(FLEET_REPLAYS):
        cache = TrialCache(root)
        elapsed, aggregate = timed_fleet_run(config, cache, runner)
        # Every session replayed, nothing recomputed, same bytes.
        assert cache.stats.hit_ratio == 1.0
        assert cache.stats.stores == 0
        assert aggregate == cold
        runs.append((elapsed, cache.stats))
    return min(runs, key=lambda run: run[0])


def test_fleet_cache_replay(tmp_path, fig_printer, perf_track):
    config = PopulationConfig(sessions=FLEET_SESSIONS, seed=1)
    cold_s, cold = timed_fleet_run(config, TrialCache(tmp_path))
    warm_s, warm_stats = fastest_replay(config, tmp_path, cold)
    rerun_s, _ = fastest_replay(config, tmp_path, cold, FleetRunner(config))

    perf_track("cache.fleet_replay.cold_s", cold_s, sessions=FLEET_SESSIONS)
    perf_track("cache.fleet_replay.warm_s", warm_s, sessions=FLEET_SESSIONS,
               replays=FLEET_REPLAYS)
    perf_track("cache.fleet_replay.rerun_s", rerun_s,
               sessions=FLEET_SESSIONS, replays=FLEET_REPLAYS)
    body = "\n".join([
        f"sessions          {FLEET_SESSIONS}",
        f"cold (simulate)   {cold_s:8.3f} s",
        f"warm (replay)     {warm_s:8.3f} s   {warm_stats.line()}",
        f"rerun (1 runner)  {rerun_s:8.3f} s",
        f"per session       {warm_s / FLEET_SESSIONS * 1e3:8.3f} ms",
    ])
    fig_printer("Result cache: fleet cold fill vs warm replay", body)
