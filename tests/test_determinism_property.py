"""Property-based determinism checks: same seed => bit-identical metrics.

This is the runtime counterpart of simlint's static rules — the invariant
that makes every figure benchmark meaningful. A small web page load and a
short RTC call are each run twice with the same seed (bit-identical metric
dicts required) and with different seeds.  A seed only drives background
OS bursts, so two sessions diverge when a burst lands before either one
ends (a burst off the critical path still moves the CPU's energy); when
every burst comes after the end, both equal the quiet session.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.core.background import BackgroundLoad, make_rng
from repro.core.session import simulate
from repro.device import NEXUS4
from repro.netstack import LinkSpec
from repro.rtc import CallConfig, VideoCall
from repro.sim import Environment
from repro.web import BrowserEngine
from repro.workloads import generate_corpus

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

# Shared across examples: corpus generation is the expensive part, and
# each simulate() call builds its session in a fresh Environment.
_PAGE = generate_corpus(1)[0]
_CALL = CallConfig(call_duration_s=5.0)


def web_metrics(seed: int) -> dict:
    result = simulate(NEXUS4, LinkSpec(), seed,
                      lambda env, device, link: BrowserEngine(
                          env, device, link).load(_PAGE),
                      governor="OD")
    metrics = dataclasses.asdict(result)
    metrics.pop("activities")  # event records, not scalar metrics
    return metrics


def rtc_metrics(seed: int) -> dict:
    result = simulate(NEXUS4, LinkSpec(), seed,
                      lambda env, device, link: VideoCall(
                          env, device, link, _CALL).run(),
                      governor="OD")
    return dataclasses.asdict(result)


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_web_same_seed_bit_identical(seed):
    assert web_metrics(seed) == web_metrics(seed)


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_rtc_same_seed_bit_identical(seed):
    assert rtc_metrics(seed) == rtc_metrics(seed)


class _BurstLog:
    """Stands in for a device: records when background bursts arrive."""

    def __init__(self, env: Environment):
        self.env = env
        self.times: list[float] = []

    def submit(self, cycles: float) -> None:
        self.times.append(self.env.now)


def first_burst_s(seed: int) -> float:
    """When the background load of session ``seed`` submits its first burst."""
    env = Environment()
    log = _BurstLog(env)
    BackgroundLoad(env, log, make_rng(seed))
    while not log.times:
        env.step()
    return log.times[0]


@settings(max_examples=5, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=2, max_size=2, unique=True))
# Both first bursts (4.09 s, 2.85 s) come after the 2.82 s page load.
@example(seeds=[595, 1154])
def test_web_different_seeds_diverge(seeds):
    first, second = (web_metrics(seed) for seed in seeds)
    burst_in_session = any(first_burst_s(seed) < metrics["plt"]
                           for seed, metrics in zip(seeds, (first, second)))
    if burst_in_session:
        assert first != second
    else:
        assert first == second


@settings(max_examples=5, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=2, max_size=2, unique=True))
def test_rtc_different_seeds_diverge(seeds):
    first, second = (rtc_metrics(seed) for seed in seeds)
    assert first != second
