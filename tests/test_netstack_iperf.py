"""Fig 6 behaviour: iperf throughput vs CPU clock."""

from functools import partial

import pytest

from repro.core import session
from repro.core.session import simulate
from repro.device import NEXUS4, PIXEL2
from repro.netstack import LinkSpec, iperf_downstream


def _iperf(spec, mhz, duration_s, link=LinkSpec()):
    """One unseeded Fig 6 session with the clock pinned at ``mhz``."""
    return simulate(spec, link, None,
                    partial(iperf_downstream, duration_s=duration_s),
                    governor="PF", pinned_mhz=mhz)


def test_high_clock_reaches_link_ceiling():
    result = _iperf(NEXUS4, 1512, 5.0)
    assert result.throughput_mbps == pytest.approx(48, abs=2.0)


def test_low_clock_is_cpu_bound():
    result = _iperf(NEXUS4, 384, 5.0)
    assert result.throughput_mbps == pytest.approx(32, abs=2.0)


def test_throughput_monotone_in_clock():
    values = [
        _iperf(NEXUS4, mhz, 4.0).throughput_mbps
        for mhz in (384, 486, 594, 810, 1512)
    ]
    assert all(a <= b + 0.5 for a, b in zip(values, values[1:]))


def test_fast_device_always_link_limited():
    low = _iperf(PIXEL2, 300, 4.0)
    # Even the Pixel2's lowest big-core clock is ~2× a Nexus4 384 MHz.
    assert low.throughput_mbps > 35


def test_link_capacity_scales_result():
    slow_link = LinkSpec(goodput_bps=10e6)
    result = _iperf(NEXUS4, 1512, 4.0, link=slow_link)
    assert result.throughput_mbps == pytest.approx(10, abs=1.0)


def test_result_accounting():
    result = _iperf(NEXUS4, 1512, 2.0)
    assert result.duration_s == 2.0
    assert result.bytes_received > 0
    assert result.throughput_bps == pytest.approx(
        result.bytes_received * 8 / 2.0
    )


def test_session_ends_when_the_window_closes(monkeypatch):
    envs = []
    monkeypatch.setattr(session, "on_environment", envs.append)
    _iperf(NEXUS4, 1512, 2.0)
    assert [env.now for env in envs] == [2.0]
