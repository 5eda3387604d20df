"""Unit tests for Resource and Container."""

import pytest

from repro.sim import Container, Environment, Resource


# -- Resource -----------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def worker(name):
        with res.request() as req:
            yield req
            granted.append((env.now, name))
            yield env.timeout(1)

    for name in "abc":
        env.process(worker(name))
    env.run()
    assert granted == [(0, "a"), (0, "b"), (1, "c")]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(name, start):
        yield env.timeout(start)
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(10)

    env.process(worker("first", 0))
    env.process(worker("second", 1))
    env.process(worker("third", 2))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_release_is_idempotent():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    res.release(req)
    assert res.count == 0


def test_resource_rejects_bad_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_queued_request_can_withdraw():
    env = Environment()
    res = Resource(env, capacity=1)
    holder = res.request()
    queued = res.request()
    env.run()
    assert res.count == 1
    queued.cancel()
    res.release(holder)
    assert res.count == 0
    assert not res.queue


# -- Container ----------------------------------------------------------------


def test_container_level_accounting():
    env = Environment()
    tank = Container(env, capacity=10, init=4)
    tank.put(3)
    tank.get(5)
    env.run()
    assert tank.level == 2


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100)
    times = []

    def consumer():
        yield tank.get(10)
        times.append(env.now)

    def producer():
        for _ in range(10):
            yield env.timeout(1)
            yield tank.put(1)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [10]


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=5, init=5)
    times = []

    def producer():
        yield tank.put(2)
        times.append(env.now)

    def consumer():
        yield env.timeout(7)
        yield tank.get(3)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [7]


def test_container_rejects_bad_amounts():
    env = Environment()
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=9)
