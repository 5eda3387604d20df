"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
    Timeout,
)
from repro.sim.core import Initialize


def test_time_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_nan_delay_rejected_not_a_false_deadlock():
    # NaN passed a ``delay < 0`` guard and compares false both ways, so its
    # heap entry stayed on top: run() stopped at once and raised
    # SimDeadlock although the 1.0 timeout was still queued.
    env = Environment()
    fired = []

    def sleeper():
        yield env.timeout(1.0)
        fired.append(env.now)

    def bad():
        yield env.timeout(float("nan"))

    env.process(bad())
    env.process(sleeper())
    with pytest.raises(ValueError):
        env.run()
    env.run()
    assert fired == [1.0]
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=float("nan"))
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=-1.0)


def test_hot_path_events_have_no_instance_dict():
    # Slots set by hand in each __init__; a subclass that forgets
    # __slots__ would quietly bring back a per-instance __dict__.
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    process = env.process(proc())
    events = [env.timeout(1.0), Initialize(env, process), process,
              Resource(env).request()]
    for event in events:
        assert not hasattr(event, "__dict__"), type(event).__name__


def test_run_until_time_sets_now():
    env = Environment()
    env.run(until=42.0)
    assert env.now == 42.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_sequencing():
    env = Environment()
    log = []

    def proc():
        log.append(env.now)
        yield env.timeout(1)
        log.append(env.now)
        yield env.timeout(2)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0, 1, 3]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    result = env.run(env.process(proc()))
    assert result == "done"


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def firer():
        yield env.timeout(3)
        gate.succeed("go")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert seen == [(3, "go")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_propagates_exception():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as error:
            caught.append(str(error))

    def firer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_process_crash_surfaces():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("crash")

    env.process(bad())
    with pytest.raises(ValueError, match="crash"):
        env.run()


def test_waiting_on_already_processed_event():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    env.run()
    seen = []

    def late_waiter():
        value = yield gate
        seen.append(value)

    env.process(late_waiter())
    env.run()
    assert seen == ["early"]


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc():
        yield env.all_of([env.timeout(1), env.timeout(5), env.timeout(3)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [5]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0]


def test_all_of_collects_values():
    env = Environment()
    collected = {}

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        values = yield env.all_of([t1, t2])
        collected.update(values)

    env.process(proc())
    env.run()
    assert sorted(collected.values()) == ["a", "b"]


def test_all_of_fails_with_the_first_failing_event():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield env.all_of([env.timeout(5), gate])
        except RuntimeError as error:
            caught.append((env.now, str(error)))

    def firer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == [(1, "boom")]


def test_all_of_rejects_events_of_another_environment():
    env, other = Environment(), Environment()
    with pytest.raises(SimulationError, match="share the env"):
        AllOf(env, [env.event(), other.event()])


def test_all_of_over_processed_events_fires_with_their_values():
    env = Environment()
    first, second = env.timeout(1, value="a"), env.timeout(2, value="b")
    env.run()
    assert first.callbacks is None and second.callbacks is None
    seen = []

    def proc():
        values = yield env.all_of([first, second])
        seen.append((env.now, values))

    env.process(proc())
    env.run()
    assert seen == [(2, {first: "a", second: "b"})]


def test_interrupt_throws_into_process():
    env = Environment()
    outcomes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            outcomes.append((env.now, interrupt.cause))

    def attacker(proc):
        yield env.timeout(2)
        proc.interrupt("stop")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert outcomes == [(2, "stop")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_deterministic_tie_breaking():
    """Events at the same instant fire in scheduling order."""
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_nested_processes():
    env = Environment()

    def inner():
        yield env.timeout(2)
        return 21

    def outer():
        value = yield env.process(inner())
        return value * 2

    assert env.run(env.process(outer())) == 42


def test_run_until_event_returns_value():
    env = Environment()
    gate = env.event()

    def firer():
        yield env.timeout(1)
        gate.succeed(99)

    env.process(firer())
    assert env.run(gate) == 99


def test_run_until_event_never_fires_raises():
    env = Environment()
    gate = env.event()
    with pytest.raises(SimulationError):
        env.run(gate)
