"""Unit tests for the link model."""

import pytest

from repro.netstack import Link, LinkSpec
from repro.obs import install
from repro.sim import Environment


def test_spec_defaults_match_testbed():
    spec = LinkSpec()
    assert spec.rtt_s == pytest.approx(0.010)
    assert spec.loss == 0.0
    assert 40e6 < spec.goodput_bps < 55e6


def test_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(goodput_bps=0)
    with pytest.raises(ValueError):
        LinkSpec(rtt_s=-1)
    with pytest.raises(ValueError):
        LinkSpec(loss=1.0)


def test_spec_rejects_non_finite_values():
    with pytest.raises(ValueError):
        LinkSpec(goodput_bps=float("inf"))
    with pytest.raises(ValueError):
        LinkSpec(goodput_bps=float("nan"))
    with pytest.raises(ValueError):
        LinkSpec(goodput_bps=-5.0)
    with pytest.raises(ValueError):
        LinkSpec(rtt_s=float("inf"))


def test_bdp():
    spec = LinkSpec(goodput_bps=48e6, rtt_s=0.010)
    assert spec.bdp_bytes == pytest.approx(48e6 / 8 * 0.010)


def test_serialization_time():
    env = Environment()
    link = Link(env, LinkSpec(goodput_bps=8e6))  # 1 MB/s
    assert link.serialization_time(1_000_000) == pytest.approx(1.0)


def test_transmit_occupies_line():
    env = Environment()
    _, metrics = install(env)
    link = Link(env, LinkSpec(goodput_bps=8e6))
    done = []

    def sender(name, nbytes):
        yield from link.transmit(nbytes)
        done.append((name, env.now))

    env.process(sender("a", 500_000))
    env.process(sender("b", 500_000))
    env.run()
    assert done == [("a", pytest.approx(0.5)), ("b", pytest.approx(1.0))]
    assert metrics.snapshot()["net.link.tx_bytes"] == 1_000_000


def test_transmit_rejects_negative():
    env = Environment()
    link = Link(env)

    def bad():
        yield from link.transmit(-1)

    env.process(bad())
    with pytest.raises(ValueError):
        env.run()


@pytest.mark.parametrize("nbytes", [0, -0.5, float("nan"), float("inf"),
                                    "1000"])
def test_transmit_rejects_degenerate_sizes(nbytes):
    env = Environment()
    link = Link(env)

    def bad():
        yield from link.transmit(nbytes)

    env.process(bad())
    with pytest.raises((ValueError, TypeError), match="transmit"):
        env.run()


def test_set_loss_and_extra_delay_validation():
    env = Environment()
    link = Link(env)
    with pytest.raises(ValueError):
        link.set_loss(1.0)
    with pytest.raises(ValueError):
        link.set_loss(-0.1)
    with pytest.raises(ValueError):
        link.set_extra_delay(-1.0)


def test_loss_inflates_serialization_time():
    env = Environment()
    link = Link(env, LinkSpec(goodput_bps=8e6))  # 1 MB/s
    link.set_loss(0.5)
    # Retransmission inflation: nbytes / (1 - loss).
    assert link.effective_serialization_time(1_000_000) == pytest.approx(2.0)
    link.set_loss(0.0)
    assert link.effective_serialization_time(1_000_000) == pytest.approx(1.0)


def test_bring_up_without_outage_is_a_no_op():
    env = Environment()
    link = Link(env)
    assert not link.is_down
    link.bring_up()
    assert not link.is_down
