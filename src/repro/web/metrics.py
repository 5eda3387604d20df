"""Page-load measurement records (the WProf-style view of one load).

Every timed activity carries its dependency edges, so the load produces a
replayable activity DAG.  :mod:`repro.analysis.critpath` extracts the
critical path and splits it into compute vs network — the decomposition
the paper reports in §3.1 — and :mod:`repro.core.offload` replays the same
DAG with regex functions re-priced on the DSP (the ePLT methodology of
§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.critpath import COMPUTE_KINDS, NETWORK_KINDS


@dataclass
class ActivityRecord:
    """One timed activity with its dependency edges (WProf's unit)."""

    id: int
    kind: str
    label: str
    start: float
    end: float
    deps: tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PageLoadResult:
    """Everything measured during one page load.

    ``compute_time``/``network_time`` are the critical-path decomposition
    (filled by the analyzer after the load); ``main_busy_time`` is raw
    integrated main-thread busy time; per-kind ``*_time`` fields are
    actual main-thread durations regardless of criticality.
    """

    url: str
    category: str
    plt: float = 0.0
    compute_time: float = 0.0
    network_time: float = 0.0
    main_busy_time: float = 0.0
    parse_time: float = 0.0
    script_time: float = 0.0
    script_regex_fn_time: float = 0.0  # time in functions containing regex
    style_time: float = 0.0
    layout_time: float = 0.0
    paint_time: float = 0.0
    decode_time: float = 0.0
    bytes_fetched: float = 0.0
    n_requests: int = 0
    energy_j: float = 0.0
    dsp_busy_s: float = 0.0
    dsp_energy_j: float = 0.0
    cp_kind_breakdown: dict[str, float] = field(default_factory=dict)
    activities: list[ActivityRecord] = field(default_factory=list)
    #: Execution intervals of regex-containing functions (for the Fig 7b
    #: power-trace analysis).
    regex_fn_intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def scripting_share(self) -> float:
        """Scripting as a fraction of critical-path compute."""
        total = sum(
            t for kind, t in self.cp_kind_breakdown.items()
            if kind in COMPUTE_KINDS or kind.endswith("-queue")
        )
        if total <= 0:
            return 0.0
        return self.cp_kind_breakdown.get("script", 0.0) / total

    @property
    def layout_paint_share(self) -> float:
        total = self.compute_time
        if total <= 0:
            return 0.0
        layout = self.cp_kind_breakdown.get("layout", 0.0)
        paint = self.cp_kind_breakdown.get("paint", 0.0)
        return (layout + paint) / total


__all__ = ["ActivityRecord", "COMPUTE_KINDS", "NETWORK_KINDS", "PageLoadResult"]
