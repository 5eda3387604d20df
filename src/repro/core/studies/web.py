"""Web-browsing QoE studies (Figs 2a, 3a–3d; §3.1).

:meth:`WebStudy.sweep` walks one §3 resource axis while holding
everything else at defaults, exactly as §3 prescribes ("the effect of a
given resource is isolated by changing its value while keeping the
remaining setup constant"), loading the Alexa-like corpus repeatedly
with per-trial background jitter and reporting mean ± std.  The axes
themselves live in :mod:`repro.core.studies.axes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import axis_points, run_trials
from repro.device import DeviceSpec, NEXUS4
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


@dataclass
class PageLoadPoint:
    """One x-position of Fig 2a/3a–3d with its §3.1 decomposition."""

    label: object
    plt: Summary
    compute_time: Summary
    network_time: Summary
    scripting_share: float
    layout_paint_share: float


class WebStudy:
    """Shared page corpus + parameterized page-load sweeps."""

    #: Figure id of each §3 axis.
    FIGURES = {"devices": "fig2a", "clock": "fig3a", "memory": "fig3b",
               "cores": "fig3c", "governor": "fig3d"}

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
        return [result
                for trial_results in run_trials(self.executor, task,
                                                experiment,
                                                self.config.trials)
                for result in trial_results]

    def plt_summary(self, spec: DeviceSpec, experiment: str,
                    pages: Optional[Sequence[PageSpec]] = None,
                    **device_kwargs) -> Summary:
        """Mean ± std PLT across pages × trials for one configuration."""
        results = self._results(spec, experiment, pages, **device_kwargs)
        return summarize([r.plt for r in results])

    def sweep(self, axis: str, spec: DeviceSpec = NEXUS4,
              values: Optional[Sequence] = None) -> list[PageLoadPoint]:
        """PLT and critical-path decomposition along one §3 axis.

        ``devices`` is Fig 2a, ``clock``/``memory``/``cores``/``governor``
        are Figs 3a–3d; ``values=None`` sweeps the axis default.
        """
        points = []
        for label, experiment, point_spec, device_kwargs in axis_points(
                self.FIGURES, axis, spec, values):
            results = self._results(point_spec, experiment, **device_kwargs)
            # Every trial of a point can be quarantined under host faults;
            # the shares then render as 0 next to an "n/a (n=0)" summary
            # instead of dividing by zero.
            n = len(results) or 1
            points.append(PageLoadPoint(
                label=label,
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


__all__ = ["PageLoadPoint", "WebStudy", "WebStudyConfig"]
