"""Clock-frequency impact on TCP throughput (Fig 6, §4.1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.core.session import simulate
from repro.device import DeviceSpec, NEXUS4
from repro.netstack import LinkSpec, iperf_downstream
from repro.sim import Environment


@dataclass(frozen=True)
class ThroughputPoint:
    """One x-position of Fig 6."""

    clock_mhz: int
    throughput_mbps: float


def throughput_vs_clock(
    spec: DeviceSpec = NEXUS4,
    ladder: Optional[Sequence[int]] = None,
    duration_s: float = 15.0,
    link: LinkSpec = LinkSpec(),
) -> list[ThroughputPoint]:
    """iperf throughput at each pinned clock (the paper's 12-step sweep).

    The paper measures 5 minutes × 20 repetitions; the simulation is
    deterministic and converges within seconds, so ``duration_s`` defaults
    far lower.  Each run is an unseeded session: the paper's quiet phone.
    Only ``ladder=None`` means the device's whole ladder; an empty
    ladder gives no points.
    """
    if ladder is None:
        ladder = spec.clusters[0].freqs_mhz
    window = partial(iperf_downstream, duration_s=duration_s)
    points = []
    for mhz in ladder:
        result = simulate(Environment(), spec, link, None, window,
                          governor="PF", pinned_mhz=mhz)
        points.append(ThroughputPoint(mhz, result.throughput_mbps))
    return points


__all__ = ["ThroughputPoint", "throughput_vs_clock"]
