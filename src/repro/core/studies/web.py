"""Web-browsing QoE studies (Figs 2a, 3a–3d; §3.1).

Each method sweeps one device parameter while holding everything else at
defaults, exactly as §3 prescribes ("the effect of a given resource is
isolated by changing its value while keeping the remaining setup
constant"), loading the Alexa-like corpus repeatedly with per-trial
background jitter and reporting mean ± std.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.cache import TrialCache
from repro.core.experiments import derive_seed
from repro.core.pipeline import cached_map
from repro.core.session import simulate
from repro.device import DeviceSpec, GOVERNOR_CODES, NEXUS4, TABLE1_DEVICES
from repro.netstack import LinkSpec
from repro.parallel import Executor, SerialExecutor
from repro.sim import Environment
from repro.web import BrowserEngine, PageLoadResult
from repro.workloads import generate_corpus
from repro.workloads.pages import CATEGORIES, PageSpec
from repro.workloads.regexcorpus import RegexWorkloadFactory


@dataclass
class WebStudyConfig:
    """Scale and environment of the study.

    The paper loads the top 50 pages 20 times; simulation defaults are
    smaller for CI speed — raise ``n_pages``/``trials`` for full scale.
    """

    n_pages: int = 10
    trials: int = 3
    categories: Sequence[str] = CATEGORIES
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None
    #: Content-addressed result cache; None checks the executor for an
    #: attached one (see :mod:`repro.cache`).
    cache: Optional[TrialCache] = None


@dataclass
class ClockSweepPoint:
    """One x-position of Fig 3a with its §3.1 decomposition."""

    clock_mhz: int
    plt: Summary
    compute_time: Summary
    network_time: Summary
    scripting_share: float
    layout_paint_share: float


class WebStudy:
    """Shared page corpus + parameterized page-load sweeps."""

    def __init__(self, config: Optional[WebStudyConfig] = None):
        self.config = config or WebStudyConfig()
        self.executor = self.config.executor or SerialExecutor()
        self._factory = RegexWorkloadFactory()
        self.corpus: list[PageSpec] = generate_corpus(
            self.config.n_pages, categories=tuple(self.config.categories),
            factory=self._factory,
        )

    def _results(self, spec: DeviceSpec, experiment: str,
                 pages: Optional[Sequence[PageSpec]] = None,
                 **device_kwargs) -> list[PageLoadResult]:
        # None means the whole corpus; an empty selection stays empty.
        task = _PageLoadTask(
            spec=spec, link=self.config.link,
            pages=tuple(self.corpus if pages is None else pages),
            device_kwargs=device_kwargs)
        seeds = [derive_seed(experiment, trial)
                 for trial in range(self.config.trials)]
        # cached_map() returns trial-order results whatever the completion
        # order, so the flattened list matches the serial loop exactly —
        # and replays any trial whose exact (params, seed, code) result
        # is already stored.  A trial the supervisor quarantined drops
        # out (smaller n), mirroring how sim-level failures degrade.
        return [result
                for trial_results in cached_map(
                    self.executor, task, seeds, experiment=experiment,
                    cache=self.config.cache)
                for result in trial_results]

    def plt_summary(self, spec: DeviceSpec, experiment: str,
                    pages: Optional[Sequence[PageSpec]] = None,
                    **device_kwargs) -> Summary:
        """Mean ± std PLT across pages × trials for one configuration."""
        results = self._results(spec, experiment, pages, **device_kwargs)
        return summarize([r.plt for r in results])

    # -- Fig 2a -------------------------------------------------------------

    def qoe_across_devices(
        self, devices: Sequence[DeviceSpec] = TABLE1_DEVICES
    ) -> list[tuple[DeviceSpec, Summary]]:
        """PLT per Table 1 device at the default governor (Fig 2a)."""
        return [
            (spec, self.plt_summary(spec, f"fig2a:{spec.name}", governor="OD"))
            for spec in devices
        ]

    # -- Fig 3a -------------------------------------------------------------

    def plt_vs_clock(
        self,
        spec: DeviceSpec = NEXUS4,
        ladder: Optional[Sequence[int]] = None,
    ) -> list[ClockSweepPoint]:
        """PLT and critical-path decomposition across the DVFS ladder."""
        ladder = ladder or spec.clusters[0].freqs_mhz
        points = []
        for mhz in ladder:
            results = self._results(spec, f"fig3a:{mhz}", pinned_mhz=mhz)
            # Every trial of a point can be quarantined under host faults;
            # the shares then render as 0 next to an "n/a (n=0)" summary
            # instead of dividing by zero.
            n = len(results) or 1
            points.append(ClockSweepPoint(
                clock_mhz=mhz,
                plt=summarize([r.plt for r in results]),
                compute_time=summarize([r.compute_time for r in results]),
                network_time=summarize([r.network_time for r in results]),
                scripting_share=(
                    sum(r.scripting_share for r in results) / n
                ),
                layout_paint_share=(
                    sum(r.layout_paint_share for r in results) / n
                ),
            ))
        return points

    # -- Fig 3b/3c/3d ---------------------------------------------------------

    def plt_vs_memory(
        self, spec: DeviceSpec = NEXUS4,
        sizes_gb: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    ) -> list[tuple[float, Summary]]:
        """PLT for RAM-disk-restricted memory sizes (Fig 3b)."""
        return [
            (gb, self.plt_summary(spec, f"fig3b:{gb}", governor="OD",
                                  memory_gb=gb))
            for gb in sizes_gb
        ]

    def plt_vs_cores(
        self, spec: DeviceSpec = NEXUS4,
        cores: Sequence[int] = (1, 2, 3, 4),
    ) -> list[tuple[int, Summary]]:
        """PLT with cores hot-unplugged (Fig 3c)."""
        return [
            (n, self.plt_summary(spec, f"fig3c:{n}", governor="OD",
                                 online_cores=n))
            for n in cores
        ]

    def plt_vs_governor(
        self, spec: DeviceSpec = NEXUS4,
        governors: Sequence[str] = GOVERNOR_CODES,
    ) -> list[tuple[str, Summary]]:
        """PLT per frequency governor (Fig 3d; PF IN US OD PW)."""
        return [
            (code, self.plt_summary(spec, f"fig3d:{code}", governor=code))
            for code in governors
        ]

    # -- §3.1: category sensitivity -------------------------------------------

    def category_clock_sensitivity(
        self, spec: DeviceSpec = NEXUS4,
        high_mhz: Optional[int] = None, low_mhz: Optional[int] = None,
    ) -> dict[str, float]:
        """Per-category PLT(low clock)/PLT(high clock) slowdown factors.

        The paper finds news/sports pages ≈6× more affected because they
        are script-heavy.
        """
        high_mhz = high_mhz or spec.max_clock_mhz
        low_mhz = low_mhz or spec.min_clock_mhz
        sensitivity: dict[str, float] = {}
        for category in self.config.categories:
            pages = [p for p in self.corpus if p.category == category]
            if not pages:
                continue
            fast = self.plt_summary(spec, f"cat:{category}:hi", pages,
                                    pinned_mhz=high_mhz)
            slow = self.plt_summary(spec, f"cat:{category}:lo", pages,
                                    pinned_mhz=low_mhz)
            # Every trial of a side can be quarantined under host faults:
            # with no sample there is no ratio, so the category is omitted.
            if fast.n and slow.n:
                sensitivity[category] = slow.mean / fast.mean
        return sensitivity


@dataclass
class _PageLoadTask:
    """Picklable per-trial task: load every page of a corpus slice once."""

    spec: DeviceSpec
    link: LinkSpec
    pages: tuple[PageSpec, ...]
    device_kwargs: dict

    def __call__(self, seed: int) -> list[PageLoadResult]:
        return [
            simulate(Environment(), self.spec, self.link, seed,
                     lambda env, device, link: BrowserEngine(
                         env, device, link).load(page),
                     **self.device_kwargs)
            for page in self.pages
        ]


__all__ = ["ClockSweepPoint", "WebStudy", "WebStudyConfig"]
