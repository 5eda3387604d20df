"""iperf-style bulk TCP throughput measurement (paper §4.1, Fig 6).

The paper runs a 5-minute downstream iperf from the LAN server to the
phone, 20 times per clock step.  The simulation is deterministic, so the
default run is shorter (the estimate converges within seconds); duration
and repetitions are parameters for full-fidelity runs.

:func:`iperf_downstream` is the app; a session runs it through
:func:`repro.core.session.simulate` like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device import Device
from repro.netstack.hoststack import HostStack, PacketCostModel
from repro.netstack.link import Link
from repro.netstack.tcp import BURST_CAP_BYTES, TcpConnection
from repro.sim import Environment


@dataclass(frozen=True)
class IperfResult:
    """Outcome of one iperf run."""

    duration_s: float
    bytes_received: float

    @property
    def throughput_bps(self) -> float:
        return self.bytes_received * 8.0 / self.duration_s

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6


def _sink(env: Environment, conn: TcpConnection, stop_at: float):
    """Receive bursts back-to-back until the measurement window closes."""
    yield from conn.connect()
    first = True
    while env.now < stop_at:
        yield from conn.receive(BURST_CAP_BYTES, first_byte_latency=first)
        first = False


def iperf_downstream(env: Environment, device: Device, link: Link,
                     duration_s: float = 20.0,
                     cost: PacketCostModel = PacketCostModel()):
    """Process: bulk TCP from the LAN server for ``duration_s`` seconds.

    Starts the sink, holds the measurement window open, then returns the
    :class:`IperfResult` for the bytes received within it.
    """
    conn = TcpConnection(env, link, HostStack(env, device, cost))
    env.process(_sink(env, conn, env.now + duration_s))
    yield env.timeout(duration_s)
    return IperfResult(duration_s=duration_s,
                       bytes_received=conn.bytes_downloaded)


__all__ = ["IperfResult", "iperf_downstream"]
