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
from typing import Iterator, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import AxisStudy, run_trials
from repro.device import DeviceSpec, NEXUS4
from repro.netstack import LinkSpec
from repro.parallel import Executor
from repro.web import BrowserEngine, PageLoadResult
from repro.workloads import generate_corpus
from repro.workloads.pages import CATEGORIES, PageSpec


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


class WebStudy(AxisStudy):
    """Page-load sweeps over one shared corpus: ``devices`` is Fig 2a,
    the other axes Figs 3a–3d, each with its §3.1 critical path."""

    FIGURES = {"devices": "fig2a", "clock": "fig3a", "memory": "fig3b",
               "cores": "fig3c", "governor": "fig3d"}

    def __init__(self, config: Optional[WebStudyConfig] = None):
        super().__init__(config or WebStudyConfig())
        self.corpus: list[PageSpec] = generate_corpus(
            self.config.n_pages, categories=tuple(self.config.categories))

    def task(self, spec: DeviceSpec, device_kwargs: dict,
             pages: Optional[Sequence[PageSpec]] = None) -> "_PageLoadTask":
        """Per-trial task: each of ``pages`` loaded once (``None``: the
        whole corpus; an empty selection stays empty)."""
        return _PageLoadTask(
            spec=spec, link=self.config.link,
            pages=tuple(self.corpus if pages is None else pages),
            device_kwargs=device_kwargs)

    def point(self, label: object,
              trials: list[list[PageLoadResult]]) -> PageLoadPoint:
        results = [result for loads in trials for result in loads]
        # Every trial can be quarantined under host faults: the shares then
        # render as 0 next to an "n/a (n=0)" summary, not a division error.
        n = len(results) or 1
        return PageLoadPoint(
            label=label,
            plt=summarize([r.plt for r in results]),
            compute_time=summarize([r.compute_time for r in results]),
            network_time=summarize([r.network_time for r in results]),
            scripting_share=sum(r.scripting_share for r in results) / n,
            layout_paint_share=sum(r.layout_paint_share for r in results) / n,
        )

    def layouts(self) -> Iterator[Tuple[str, "_PageLoadTask", None]]:
        """Figs 2a and 3a–3d, then §3.1, at the defaults."""
        yield from super().layouts()
        for _, experiment, task in self._category_points(NEXUS4):
            yield experiment, task, None

    # -- §3.1: category sensitivity -------------------------------------------

    def _category_points(self, spec: DeviceSpec,
                         high_mhz: Optional[int] = None,
                         low_mhz: Optional[int] = None,
                         ) -> Iterator[Tuple[str, str, "_PageLoadTask"]]:
        """``(category, experiment, task)``: each category's pages at the
        high clock, then at the low clock."""
        for category in self.config.categories:
            pages = [p for p in self.corpus if p.category == category]
            for side, mhz in (("hi", high_mhz or spec.max_clock_mhz),
                              ("lo", low_mhz or spec.min_clock_mhz)):
                if pages:
                    yield (category, f"cat:{category}:{side}",
                           self.task(spec, {"pinned_mhz": mhz}, pages))

    def category_clock_sensitivity(
        self, spec: DeviceSpec = NEXUS4,
        high_mhz: Optional[int] = None, low_mhz: Optional[int] = None,
    ) -> dict[str, float]:
        """Per-category PLT(low clock)/PLT(high clock) slowdown factors.

        The paper finds news/sports pages ≈6× more affected because they
        are script-heavy.
        """
        plts: dict[str, list[Summary]] = {}
        for category, experiment, task in self._category_points(
                spec, high_mhz, low_mhz):
            point = self.point(category, run_trials(
                self.executor, task, experiment, self.config.trials))
            plts.setdefault(category, []).append(point.plt)
        # Every trial of a side can be quarantined under host faults: with
        # no sample there is no ratio, so the category is omitted.
        return {category: slow.mean / fast.mean
                for category, (fast, slow) in plts.items()
                if fast.n and slow.n}


@dataclass
class _PageLoadTask:
    """Picklable per-trial task: load every page of a corpus slice once."""

    spec: DeviceSpec
    link: LinkSpec
    pages: tuple[PageSpec, ...]
    device_kwargs: dict

    def __call__(self, seed: int) -> list[PageLoadResult]:
        return [
            simulate(self.spec, self.link, seed,
                     lambda env, device, link: BrowserEngine(
                         env, device, link).load(page),
                     **self.device_kwargs)
            for page in self.pages
        ]


__all__ = ["PageLoadPoint", "WebStudy", "WebStudyConfig"]
