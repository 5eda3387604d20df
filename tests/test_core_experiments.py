"""Unit tests for seed derivation, the trial runner and background load."""

import random

import pytest

from repro.core import BackgroundLoad, RobustTrialRunner
from repro.core.experiments import derive_seed
from repro.device import Device, NEXUS4, by_name
from repro.sim import Environment


def test_derive_seed_is_stable():
    assert derive_seed("exp", 0) == derive_seed("exp", 0)
    assert derive_seed("exp", 0) != derive_seed("exp", 1)
    assert derive_seed("a", 0) != derive_seed("b", 0)


def _benchmark_experiment_names() -> list[str]:
    """Every experiment name a figure command derives seeds or cache keys
    from, as ``repro trace`` enumerates them (default configs)."""
    from repro.core.tracing import experiments

    return [name for name, _, _ in experiments()]


def test_derive_seed_has_no_collisions_across_benchmarks():
    """CRC-32 is weak mixing, so check the real namespace stays injective.

    The documented birthday bound for this many (experiment, trial) pairs
    is ~3e-2; this test pins the *actual* namespace collision-free. If it
    ever fails, strengthen the mixing in derive_seed (and regenerate the
    figure baselines — see the module docstring of repro.core.experiments).
    """
    names = _benchmark_experiment_names()
    assert len(names) == len(set(names))
    seeds = {
        (name, trial): derive_seed(name, trial)
        for name in names
        for trial in range(100)
    }
    assert len(set(seeds.values())) == len(seeds), (
        "derive_seed collision in the benchmark namespace"
    )
    # Retry streams must not collide with any first-attempt stream either.
    from repro.core.experiments import derive_retry_seed

    retry = {
        (name, trial, attempt): derive_retry_seed(name, trial, attempt)
        for name in names[:20]
        for trial in range(20)
        for attempt in range(3)
    }
    assert len(set(retry.values())) == len(retry)


def test_runner_executes_all_trials():
    runner = RobustTrialRunner(trials=4, experiment="t")
    seeds = runner.run(lambda seed: seed).values
    assert len(seeds) == 4
    assert len(set(seeds)) == 4


def test_runner_summary():
    runner = RobustTrialRunner(trials=3, experiment="t")
    summary = runner.run(lambda seed: float(seed % 7)).summary()
    assert summary.n == 3


def test_background_load_emits_bursts():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    load = BackgroundLoad(env, device, random.Random(1))
    env.run(until=10.0)
    assert load.bursts > 3
    assert device.cpu.busy_time() > 0


def test_background_load_seed_determinism():
    counts = []
    for _ in range(2):
        env = Environment()
        device = Device(env, NEXUS4, governor="PF")
        load = BackgroundLoad(env, device, random.Random(42))
        env.run(until=5.0)
        counts.append(load.bursts)
    assert counts[0] == counts[1]


def test_background_load_hurts_slow_devices_more():
    """The jitter mechanism behind the paper's low-end error bars."""
    stolen = {}
    for name in ("Intex Amaze+", "Google Pixel2"):
        env = Environment()
        device = Device(env, by_name(name), governor="PF")
        BackgroundLoad(env, device, random.Random(7))
        env.run(until=10.0)
        stolen[name] = device.cpu.busy_time()
    assert stolen["Intex Amaze+"] > 2 * stolen["Google Pixel2"]


def test_background_load_rejects_bad_interval():
    env = Environment()
    device = Device(env, NEXUS4)
    with pytest.raises(ValueError):
        BackgroundLoad(env, device, random.Random(1), mean_interval_s=0)
