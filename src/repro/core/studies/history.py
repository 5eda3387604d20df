"""Fig 1: Web performance vs device-capability evolution, 2011–2018.

Regenerates the paper's opening figure: page load times climb ~4× over
eight years even though clock, core count, memory, and OS version all
grow — because page complexity (bytes, and scripting even more) grows
faster than single-core performance, and the browser cannot spend the
extra cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec
from repro.netstack import HostStack, HttpClient
from repro.parallel import Executor, SerialExecutor
from repro.web import BrowserEngine
from repro.workloads.history import CELLULAR_PROFILE, all_years
from repro.workloads.pages import PageSpec, generate_page
from repro.workloads.regexcorpus import RegexWorkloadFactory


@dataclass(frozen=True)
class TimelinePoint:
    """One year of Fig 1: the left-axis PLT plus every right-axis series."""

    year: int
    plt: Summary
    clock_ghz: float
    cores: int
    memory_gb: float
    os_version: float
    page_size_mb: float


@dataclass(frozen=True)
class _YearLoadTask:
    """Picklable per-page task: one load on that year's median device."""

    spec: DeviceSpec
    year: int

    def __call__(self, page: PageSpec) -> float:
        def program(env, device, link):
            stack = HostStack(env, device)
            # HTTPS only became the Web's default around 2015.
            http = HttpClient(env, link, stack, tls=self.year >= 2015)
            return BrowserEngine(env, device, link, stack=stack,
                                 http=http).load(page)

        return simulate(self.spec, CELLULAR_PROFILE, None, program,
                        governor="OD").plt


def layouts(n_pages: int = 3) -> Iterator[Tuple[str, _YearLoadTask, list]]:
    """``(experiment, task, pages)`` of each Fig 1 year (unseeded maps)."""
    factory = RegexWorkloadFactory()
    for medians in all_years():
        pages = [
            generate_page(
                1000 + medians.year * 10 + index,
                category=("news", "shopping", "business")[index % 3],
                factory=factory,
                bytes_factor=medians.page_bytes_factor,
                ops_factor=medians.page_ops_factor,
                chain_intensity=medians.page_ops_factor,
            )
            for index in range(n_pages)
        ]
        yield (f"fig1:{medians.year}",
               _YearLoadTask(medians.device_spec(), medians.year), pages)


def evolution_timeline(n_pages: int = 3, executor: Optional[Executor] = None,
                       ) -> list[TimelinePoint]:
    """The full Fig 1 series (PLT plus device parameters per year); a
    year's PLT covers the page loads a supervised executor let through."""
    executor = executor or SerialExecutor()
    return [
        TimelinePoint(medians.year,
                      summarize(cached_map(executor, task, pages,
                                           experiment=experiment)),
                      medians.clock_ghz, medians.cores, medians.memory_gb,
                      medians.os_version, medians.page_size_mb)
        for medians, (experiment, task, pages) in zip(all_years(),
                                                      layouts(n_pages))
    ]


__all__ = ["TimelinePoint", "evolution_timeline", "layouts"]
