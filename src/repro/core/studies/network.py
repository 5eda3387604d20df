"""Clock-frequency impact on TCP throughput (Fig 6, §4.1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence, Tuple

from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec, NEXUS4
from repro.netstack import LinkSpec, iperf_downstream
from repro.parallel import Executor, SerialExecutor


@dataclass(frozen=True)
class ThroughputPoint:
    """One x-position of Fig 6."""

    clock_mhz: int
    throughput_mbps: float


@dataclass(frozen=True)
class _IperfTask:
    """Picklable per-clock task: one quiet iperf session at a pinned clock."""

    spec: DeviceSpec
    link: LinkSpec
    duration_s: float

    def __call__(self, mhz: int) -> ThroughputPoint:
        result = simulate(self.spec, self.link, None,
                          partial(iperf_downstream,
                                  duration_s=self.duration_s),
                          governor="PF", pinned_mhz=mhz)
        return ThroughputPoint(mhz, result.throughput_mbps)


def layouts(spec: DeviceSpec = NEXUS4, ladder: Optional[Sequence[int]] = None,
            duration_s: float = 15.0, link: LinkSpec = LinkSpec(),
            ) -> Iterator[Tuple[str, _IperfTask, Sequence[int]]]:
    """Fig 6's one unseeded map, ``("fig6", task, clocks)``; only
    ``ladder=None`` means the whole ladder (``()`` gives no clocks)."""
    clocks = spec.clusters[0].freqs_mhz if ladder is None else ladder
    yield "fig6", _IperfTask(spec, link, duration_s), tuple(clocks)


def throughput_vs_clock(
    spec: DeviceSpec = NEXUS4,
    ladder: Optional[Sequence[int]] = None,
    duration_s: float = 15.0,
    link: LinkSpec = LinkSpec(),
    executor: Optional[Executor] = None,
) -> list[ThroughputPoint]:
    """iperf throughput at each pinned clock (the paper's 12-step sweep).

    The paper measures 5 minutes × 20 repetitions; the simulation is
    deterministic and converges within seconds, so ``duration_s`` defaults
    far lower.  Each run is an unseeded session: the paper's quiet phone.
    A clock whose session a supervised executor quarantined drops out.
    """
    ((experiment, task, clocks),) = layouts(spec, ladder, duration_s, link)
    return cached_map(executor or SerialExecutor(), task, clocks,
                      experiment=experiment)


__all__ = ["ThroughputPoint", "layouts", "throughput_vs_clock"]
