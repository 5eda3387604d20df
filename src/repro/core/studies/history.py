"""Fig 1: Web performance vs device-capability evolution, 2011–2018.

Regenerates the paper's opening figure: page load times climb ~4× over
eight years even though clock, core count, memory, and OS version all
grow — because page complexity (bytes, and scripting even more) grows
faster than single-core performance, and the browser cannot spend the
extra cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.stats import mean
from repro.core.session import simulate
from repro.device import Device
from repro.netstack import HostStack, HttpClient, Link
from repro.sim import Environment
from repro.web import BrowserEngine
from repro.workloads.history import CELLULAR_PROFILE, YearMedians, all_years
from repro.workloads.pages import PageSpec, generate_page
from repro.workloads.regexcorpus import RegexWorkloadFactory


@dataclass(frozen=True)
class TimelinePoint:
    """One year of Fig 1: the left-axis PLT plus every right-axis series."""

    year: int
    plt_s: float
    clock_ghz: float
    cores: int
    memory_gb: float
    os_version: float
    page_size_mb: float


def _browse(env: Environment, device: Device, link: Link, page: PageSpec,
            year: int):
    """One page load on that year's stack."""
    stack = HostStack(env, device)
    # HTTPS only became the Web's default around 2015.
    http = HttpClient(env, link, stack, tls=year >= 2015)
    return BrowserEngine(env, device, link, stack=stack, http=http).load(page)


def _plt_for_year(medians: YearMedians, n_pages: int,
                  factory: RegexWorkloadFactory) -> float:
    """Median-device PLT over that year's pages on the fixed profile."""
    plts = []
    spec = medians.device_spec()
    for index in range(n_pages):
        page = generate_page(
            1000 + medians.year * 10 + index,
            category=("news", "shopping", "business")[index % 3],
            factory=factory,
            bytes_factor=medians.page_bytes_factor,
            ops_factor=medians.page_ops_factor,
            chain_intensity=medians.page_ops_factor,
        )
        plts.append(simulate(Environment(), spec, CELLULAR_PROFILE, None,
                             partial(_browse, page=page, year=medians.year),
                             governor="OD").plt)
    return mean(plts)


def evolution_timeline(n_pages: int = 3) -> list[TimelinePoint]:
    """The full Fig 1 series (PLT plus device parameters per year)."""
    factory = RegexWorkloadFactory()
    points = []
    for medians in all_years():
        points.append(TimelinePoint(
            year=medians.year,
            plt_s=_plt_for_year(medians, n_pages, factory),
            clock_ghz=medians.clock_ghz,
            cores=medians.cores,
            memory_gb=medians.memory_gb,
            os_version=medians.os_version,
            page_size_mb=medians.page_size_mb,
        ))
    return points


__all__ = ["TimelinePoint", "evolution_timeline"]
