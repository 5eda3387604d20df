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
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec, NEXUS4
from repro.netstack import HostStack, HttpClient, LinkSpec
from repro.parallel import Executor, SerialExecutor
from repro.sim import Environment
from repro.web import BrowserEngine
from repro.web.costmodel import browser_profile
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec
from repro.workloads.regexcorpus import RegexWorkloadFactory


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


def _corpus(n_pages: int) -> list[PageSpec]:
    return generate_corpus(n_pages, factory=RegexWorkloadFactory())


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

        return simulate(Environment(), self.spec, self.link_spec, None,
                        program, governor="OD", pinned_mhz=self.clock_mhz)


def joint_network_device_grid(
    spec: DeviceSpec = NEXUS4,
    bandwidths_mbps: Sequence[float] = (2.0, 8.0, 48.5),
    clocks_mhz: Sequence[int] = (384, 810, 1512),
    n_pages: int = 4,
    executor: Optional[Executor] = None,
) -> list[JointPoint]:
    """PLT over the bandwidth × clock grid.

    On fast links the device dominates (the paper's regime); on slow
    links the crossover moves and upgrading the CPU stops paying.
    """
    executor = executor or SerialExecutor()
    pages = _corpus(n_pages)
    points = []
    for mbps in bandwidths_mbps:
        link_spec = LinkSpec(goodput_bps=mbps * 1e6)
        for mhz in clocks_mhz:
            # Supervised executors may retire a page load after repeated
            # host faults; the cell averages whatever loads survived
            # (n=0 renders "n/a", times fall back to 0).
            results = cached_map(
                executor, _GridLoadTask(spec, link_spec, mhz), pages,
                experiment=f"joint:{mbps}:{mhz}")
            n = len(results) or 1
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
    def tls_overhead_frac(self) -> float:
        """Share of the TLS-on PLT attributable to TLS."""
        if self.plt_tls.mean <= 0:
            return 0.0
        return 1.0 - self.plt_plain.mean / self.plt_tls.mean


def tls_overhead(
    spec: DeviceSpec = NEXUS4,
    clocks_mhz: Sequence[int] = (384, 810, 1512),
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
    executor = executor or SerialExecutor()
    pages = _corpus(n_pages)
    link_spec = LinkSpec()
    points = []
    for mhz in clocks_mhz:
        tls_on = cached_map(
            executor, _GridLoadTask(spec, link_spec, mhz, tls=True), pages,
            experiment=f"tls:{mhz}:on")
        tls_off = cached_map(
            executor, _GridLoadTask(spec, link_spec, mhz, tls=False), pages,
            experiment=f"tls:{mhz}:off")
        points.append(TlsPoint(
            clock_mhz=mhz,
            plt_tls=summarize([r.plt for r in tls_on]),
            plt_plain=summarize([r.plt for r in tls_off]),
        ))
    return points


def browsers_vs_clock(
    spec: DeviceSpec = NEXUS4,
    browsers: Sequence[str] = ("chrome63", "firefox57", "operamini"),
    clocks_mhz: Sequence[int] = (384, 1512),
    n_pages: int = 4,
    executor: Optional[Executor] = None,
) -> dict[str, dict[int, Summary]]:
    """PLT per browser profile across clocks.

    The paper reports Chrome/Firefox/Opera-Mini are qualitatively alike;
    the profiles reproduce that (same ordering and similar slowdown
    factors), with Opera Mini's proxy mode least clock-sensitive.
    """
    executor = executor or SerialExecutor()
    pages = _corpus(n_pages)
    link_spec = LinkSpec()
    table: dict[str, dict[int, Summary]] = {}
    for browser_name in browsers:
        table[browser_name] = {}
        for mhz in clocks_mhz:
            results = cached_map(
                executor,
                _GridLoadTask(spec, link_spec, mhz,
                              browser_name=browser_name),
                pages, experiment=f"browsers:{browser_name}:{mhz}",
            )
            table[browser_name][mhz] = summarize([r.plt for r in results])
    return table


__all__ = [
    "JointPoint",
    "TlsPoint",
    "browsers_vs_clock",
    "joint_network_device_grid",
    "tls_overhead",
]
