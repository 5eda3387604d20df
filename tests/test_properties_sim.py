"""Property-based tests on kernel and device invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.device import Device, NEXUS4
from repro.device.memory import MemoryModel, MemorySpec
from repro.sim import Container, Environment, Resource


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
def test_timeouts_fire_in_order(delays):
    env = Environment()
    fired = []

    def waiter(delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(delay))
    env.run()
    assert fired == sorted(fired)
    assert env.now == max(delays)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 8),
    holds=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=24),
)
def test_resource_never_over_granted(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    peak = [0]

    def worker(hold):
        with resource.request() as req:
            yield req
            peak[0] = max(peak[0], resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(worker(hold))
    env.run()
    assert peak[0] <= capacity
    assert resource.count == 0


@settings(max_examples=40, deadline=None)
@given(
    puts=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=15),
)
def test_container_conserves_mass(puts):
    env = Environment()
    tank = Container(env, capacity=1e9)
    for amount in puts:
        tank.put(amount)
    env.run()
    assert tank.level == sum(puts)


@settings(max_examples=30, deadline=None)
@given(
    cycles=st.floats(1e6, 1e9),
    mhz=st.sampled_from([384, 594, 810, 1134, 1512]),
)
def test_task_time_formula(cycles, mhz):
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=mhz)
    task = device.submit(cycles)
    env.run(task.done)
    expected = cycles / (mhz * 1e6 * 1.40)
    assert abs(env.now - expected) <= max(1e-9, expected * 1e-6)


@settings(max_examples=50, deadline=None)
@given(
    size=st.floats(0.5, 8.0),
    ws_a=st.floats(0.0, 4.0),
    ws_b=st.floats(0.0, 4.0),
)
def test_memory_multiplier_monotone(size, ws_a, ws_b):
    model = MemoryModel(MemorySpec(size))
    low, high = sorted([ws_a, ws_b])
    assert model.cycle_multiplier(low) <= model.cycle_multiplier(high)
    assert 1.0 <= model.cycle_multiplier(low) <= model.max_penalty


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_device_simulation_is_seed_deterministic(seed):
    """Same seed → identical busy time; different work → consistent kernel."""
    busy = []
    for _ in range(2):
        env = Environment()
        device = Device(env, NEXUS4, governor="OD")
        rng = random.Random(seed)
        for _ in range(5):
            device.submit(rng.uniform(1e6, 1e8))
        env.run(until=2.0)
        busy.append(device.cpu.busy_time())
    assert busy[0] == busy[1]
