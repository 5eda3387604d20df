"""Fault-injection package: specs, injectors, traces, and determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.background import make_rng
from repro.device import Device, NEXUS4
from repro.faults import (
    BurstLossSpec,
    CrashSpec,
    FaultPlan,
    FaultTrace,
    LatencySpikeSpec,
    LinkFlapSpec,
    MemoryPressureSpec,
    ThermalThrottleSpec,
    spawn_rng,
)
from repro.netstack import Link, LinkSpec
from repro.sim import Environment, Interrupt

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


# -- spec validation --------------------------------------------------------

def test_spec_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BurstLossSpec(p_bad=1.0)
    with pytest.raises(ValueError):
        BurstLossSpec(mean_good_s=0.0)
    with pytest.raises(ValueError):
        LinkFlapSpec(mean_down_s=-1.0)
    with pytest.raises(ValueError):
        LatencySpikeSpec(spike_s=0.0)
    with pytest.raises(ValueError):
        ThermalThrottleSpec(schedule=())
    with pytest.raises(ValueError):
        ThermalThrottleSpec(schedule=((1.0, 0.5), (1.0, 0.4)))
    with pytest.raises(ValueError):
        ThermalThrottleSpec(schedule=((1.0, 1.5),))
    with pytest.raises(ValueError):
        MemoryPressureSpec(pressure_gb=(0.5, 0.1))
    with pytest.raises(ValueError):
        CrashSpec(probability=1.5)


def test_plan_rejects_non_spec_objects():
    with pytest.raises(TypeError):
        FaultPlan(["not a spec"])


def test_plan_describe_is_stable():
    plan = FaultPlan((BurstLossSpec(), CrashSpec()))
    assert plan.describe() == "BurstLossSpec; CrashSpec"
    assert FaultPlan().describe() == "clean"


def test_install_requires_targets():
    env = Environment()
    rng = make_rng(1)
    with pytest.raises(ValueError, match="link"):
        FaultPlan((BurstLossSpec(),)).install(env, rng=rng)
    with pytest.raises(ValueError, match="device"):
        FaultPlan((ThermalThrottleSpec(),)).install(env, rng=rng)
    with pytest.raises(ValueError, match="processes"):
        FaultPlan((CrashSpec(),)).install(env, rng=rng)


# -- link injectors ---------------------------------------------------------

def test_ge_loss_injector_toggles_link_loss():
    env = Environment()
    link = Link(env, LinkSpec())
    trace = FaultTrace()
    plan = FaultPlan((BurstLossSpec(p_good=0.0, p_bad=0.3),))
    plan.install(env, rng=make_rng(7), link=link, trace=trace)
    env.run(until=30.0)
    actions = {e.action for e in trace}
    assert {"good", "bad"} <= actions
    losses = {e.detail for e in trace if e.injector == "ge-loss"}
    assert "loss=0.3" in losses


def test_link_flap_blocks_transfer_until_restored():
    env = Environment()
    link = Link(env, LinkSpec(goodput_bps=8e6))
    done = []

    def take_down_then_up():
        yield env.timeout(0.1)
        link.take_down()
        assert link.is_down
        yield env.timeout(2.0)
        link.bring_up()

    def sender():
        yield env.timeout(0.2)  # starts while the link is down
        yield from link.transmit(1_000_000)
        done.append(env.now)

    env.process(take_down_then_up())
    env.process(sender())
    env.run(until=10.0)
    # 1 MB at 1 MB/s = 1 s of serialization, starting only at t=2.1.
    assert done == [pytest.approx(3.1)]


def test_latency_spike_adds_delay():
    env = Environment()
    link = Link(env, LinkSpec(goodput_bps=8e6))
    link.set_extra_delay(0.5)
    done = []

    def sender():
        yield from link.transmit(1_000_000)
        done.append(env.now)

    env.process(sender())
    env.run(until=10.0)
    assert done == [pytest.approx(1.5)]


# -- device injectors -------------------------------------------------------

def test_thermal_throttle_caps_then_lifts():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    full_mhz = device.cpu.clusters[0].freq_mhz
    trace = FaultTrace()
    spec = ThermalThrottleSpec(schedule=((1.0, 0.5), (5.0, 1.0)))
    FaultPlan((spec,)).install(env, rng=make_rng(3), device=device,
                               trace=trace)
    env.run(until=2.0)
    capped_mhz = device.cpu.clusters[0].freq_mhz
    assert capped_mhz <= 0.5 * full_mhz
    env.run(until=6.0)
    assert device.cpu.clusters[0].freq_mhz == full_mhz
    assert [e.action for e in trace] == ["cap", "lift"]


def test_memory_pressure_injector_raises_pressure():
    env = Environment()
    device = Device(env, NEXUS4)
    trace = FaultTrace()
    spec = MemoryPressureSpec(mean_interval_s=0.5, pressure_gb=(0.2, 0.4))
    FaultPlan((spec,)).install(env, rng=make_rng(11), device=device,
                               trace=trace)
    env.run(until=10.0)
    assert 0.2 <= device.fault_pressure_gb <= 0.4
    assert any(e.action == "evict" for e in trace)


# -- crash injector ---------------------------------------------------------

def test_crash_injector_interrupts_foreground_process():
    env = Environment()

    def workload():
        yield env.timeout(100.0)

    proc = env.process(workload())
    plan = FaultPlan((CrashSpec(probability=1.0, window_s=(1.0, 2.0)),))
    trace = plan.install(env, rng=make_rng(5), processes=[proc])
    with pytest.raises(Interrupt) as exc_info:
        env.run(proc)
    assert exc_info.value.cause == "fault:crash"
    assert 1.0 <= trace.events[0].t <= 2.0


def test_crash_injector_never_fires_at_zero_probability():
    env = Environment()

    def workload():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(workload())
    plan = FaultPlan((CrashSpec(probability=0.0),))
    trace = plan.install(env, rng=make_rng(5), processes=[proc])
    assert env.run(proc) == "done"
    assert len(trace) == 0


# -- determinism: the replay contract ---------------------------------------

def _full_scenario_trace(seed: int) -> str:
    """Run every injector type for 20 sim-seconds; return the trace bytes."""
    env = Environment()
    device = Device(env, NEXUS4, governor="OD")
    link = Link(env, LinkSpec())

    def workload():
        while True:
            yield from link.transmit(100_000)
            yield from device.run(5e6)

    proc = env.process(workload())
    plan = FaultPlan((
        BurstLossSpec(mean_good_s=2.0, mean_bad_s=1.0),
        LinkFlapSpec(mean_up_s=4.0, mean_down_s=0.5),
        LatencySpikeSpec(mean_interval_s=3.0),
        ThermalThrottleSpec(schedule=((2.0, 0.5), (10.0, 1.0))),
        MemoryPressureSpec(mean_interval_s=2.0),
        CrashSpec(probability=0.5, window_s=(15.0, 40.0)),
    ))
    trace = plan.install(env, rng=make_rng(seed), link=link, device=device,
                         processes=[proc])
    try:
        env.run(until=20.0)
    except Interrupt:
        pass
    return trace.to_jsonl()


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_fault_trace_replays_bit_identically(seed):
    assert _full_scenario_trace(seed) == _full_scenario_trace(seed)


@settings(max_examples=5, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=2, max_size=2, unique=True))
def test_fault_trace_diverges_across_seeds(seeds):
    first, second = (_full_scenario_trace(seed) for seed in seeds)
    assert first != second


def test_spawn_rng_decouples_sibling_streams():
    # Extra draws on the first child must not shift the second child's
    # stream relative to a fresh derivation from the same parent seed.
    parent_a = make_rng(99)
    child_a1 = spawn_rng(parent_a)
    child_a1.random()  # consume from the first child only
    child_a2 = spawn_rng(parent_a)
    parent_b = make_rng(99)
    spawn_rng(parent_b)
    child_b2 = spawn_rng(parent_b)
    assert child_a2.random() == child_b2.random()


def test_trace_jsonl_is_canonical():
    env = Environment()
    trace = FaultTrace()
    trace.record(env, "x", "start", "k=1")
    line = trace.to_jsonl()
    assert line == '{"action":"start","detail":"k=1","injector":"x","t":0.0}'


def test_faulted_page_load_qoe_is_deterministic():
    from repro.core.session import simulate
    from repro.web import BrowserEngine
    from repro.workloads import generate_corpus

    plan = FaultPlan((BurstLossSpec(p_bad=0.4, mean_good_s=1.0,
                                    mean_bad_s=1.0),))
    page = generate_corpus(1)[0]

    def load() -> float:
        return simulate(NEXUS4,
                        LinkSpec(goodput_bps=3e6, rtt_s=0.060), 1234,
                        lambda env, device, link: BrowserEngine(
                            env, device, link).load(page),
                        faults=plan, governor="OD").plt

    assert load() == load()
