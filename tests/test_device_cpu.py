"""Unit tests for the CPU/cluster model."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.device import Device, NEXUS4, PIXEL2
from repro.device.cpu import CPU, Cluster, ClusterSpec
from repro.sim import Environment


def run_task(device, cycles, **kwargs):
    env = device.env
    task = device.submit(cycles, **kwargs)
    env.run(task.done)
    return env.now


def test_task_time_scales_inverse_with_clock():
    times = {}
    for mhz in (384, 810, 1512):
        env = Environment()
        device = Device(env, NEXUS4, pinned_mhz=mhz)
        times[mhz] = run_task(device, 1e9)
    assert times[384] == pytest.approx(times[1512] * 1512 / 384, rel=1e-3)
    assert times[384] == pytest.approx(times[810] * 810 / 384, rel=1e-3)


def test_ipc_scales_execution_rate():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    elapsed = run_task(device, 1e9)
    expected = 1e9 / (1512e6 * 1.40)
    assert elapsed == pytest.approx(expected, rel=1e-6)


def test_mem_stall_is_frequency_independent():
    elapsed = {}
    for mhz in (384, 1512):
        env = Environment()
        device = Device(env, NEXUS4, pinned_mhz=mhz)
        elapsed[mhz] = run_task(device, 0, mem_stall=0.5)
    assert elapsed[384] == pytest.approx(0.5, rel=1e-6)
    assert elapsed[1512] == pytest.approx(0.5, rel=1e-6)


def test_parallel_tasks_use_multiple_cores():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    tasks = [device.submit(1e9) for _ in range(4)]
    env.run(env.all_of([t.done for t in tasks]))
    single = 1e9 / (1512e6 * 1.40)
    assert env.now == pytest.approx(single, rel=1e-2)


def test_single_core_serializes_tasks():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512, online_cores=1)
    tasks = [device.submit(1e9) for _ in range(4)]
    env.run(env.all_of([t.done for t in tasks]))
    single = 1e9 / (1512e6 * 1.40)
    assert env.now == pytest.approx(4 * single, rel=5e-2)


def test_round_robin_fairness_on_one_core():
    """Two equal tasks on one core finish at roughly the same time."""
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512, online_cores=1)
    t1 = device.submit(1e9)
    t2 = device.submit(1e9)
    finish = {}

    def watch(name, task):
        yield task.done
        finish[name] = env.now

    env.process(watch("t1", t1))
    env.process(watch("t2", t2))
    env.run()
    assert abs(finish["t1"] - finish["t2"]) < 0.05


def test_big_little_prefers_big_cluster():
    env = Environment()
    device = Device(env, PIXEL2, governor="PF")
    elapsed = run_task(device, 1e9)
    big_rate = 2457e6 * 2.20
    assert elapsed == pytest.approx(1e9 / big_rate, rel=1e-3)


def test_zero_cycle_task_completes_immediately():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    assert run_task(device, 0) == 0.0


def test_negative_work_rejected():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    with pytest.raises(ValueError):
        device.submit(-1)


def test_cycle_multiplier_inflates_time():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    device.cpu.set_cycle_multiplier(2.0)
    elapsed = run_task(device, 1e9)
    assert elapsed == pytest.approx(2e9 / (1512e6 * 1.40), rel=1e-3)


def test_cycle_multiplier_cannot_deflate():
    env = Environment()
    device = Device(env, NEXUS4)
    with pytest.raises(ValueError):
        device.cpu.set_cycle_multiplier(0.5)


def test_busy_time_accounting():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512)
    elapsed = run_task(device, 1e9)
    assert device.cpu.busy_time() == pytest.approx(elapsed, rel=1e-6)


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec("bad", 0, (100, 200))
    with pytest.raises(ValueError):
        ClusterSpec("bad", 2, ())
    with pytest.raises(ValueError):
        ClusterSpec("bad", 2, (200, 100))
    with pytest.raises(ValueError):
        ClusterSpec("bad", 2, (100, 200), ipc=0)


def test_online_cores_bounds():
    env = Environment()
    with pytest.raises(ValueError):
        CPU(env, [ClusterSpec("c", 4, (100, 200))], online_cores=5)
    with pytest.raises(ValueError):
        CPU(env, [ClusterSpec("c", 4, (100, 200))], online_cores=0)


def test_set_freq_mhz_snaps_to_ladder():
    env = Environment()
    cpu = CPU(env, [ClusterSpec("c", 1, (300, 600, 900))])
    cluster = cpu.clusters[0]
    cluster.set_freq_mhz(450)
    assert cluster.freq_mhz == 600
    cluster.set_freq_mhz(9999)
    assert cluster.freq_mhz == 900
    cluster.set_freq_mhz(100)
    assert cluster.freq_mhz == 300


def test_offline_cores_prefer_keeping_big_cluster():
    env = Environment()
    device = Device(env, PIXEL2, online_cores=2, governor="PF")
    rates = [c.rate_hz for c in device.cpu.clusters if c.online_cores > 0]
    assert max(rates) == pytest.approx(2457e6 * 2.20)


def reference_pick(clusters):
    """The sort-then-max rule ``CPU._pick_cluster`` once spelled out."""
    candidates = [c for c in clusters if c.online_cores > 0]
    for cluster in sorted(candidates, key=lambda c: -c.rate_hz):
        if cluster.pool.count < cluster.pool.capacity:
            return cluster
    return max(candidates, key=lambda c: c.rate_hz)


# Few distinct ladders and IPCs, so equal rates (ties) are common.
_cluster_states = st.tuples(
    st.integers(1, 4),              # n_cores
    st.integers(0, 4),              # online cores (clamped to n_cores)
    st.integers(0, 2),              # ladder step
    st.sampled_from([1.0, 2.0]),    # ipc
    st.integers(0, 5),              # requests made on the pool
)


@settings(max_examples=200, deadline=None)
@given(states=st.lists(_cluster_states, min_size=1, max_size=4))
def test_pick_cluster_matches_sort_then_max_rule(states):
    assume(any(min(online, n) > 0 for n, online, *_ in states))
    env = Environment()
    specs = [ClusterSpec(f"c{i}", n, (300, 600, 600), ipc)
             for i, (n, _, _, ipc, _) in enumerate(states)]
    cpu = CPU(env, specs)
    cpu.clusters = []
    for spec, (n, online, step, _, requests) in zip(specs, states):
        cluster = Cluster(env, spec, min(online, n))
        cluster.set_freq_index(step)
        for _ in range(requests):
            cluster.pool.request()
        cpu.clusters.append(cluster)
    assert cpu._pick_cluster() is reference_pick(cpu.clusters)
