"""Sweep points with no sample render as missing data, never as numbers.

A supervised executor may quarantine every trial of a sweep point, and a
page selection may be empty.  Either way the point's summary has n = 0:
studies and the CLI must then say "n/a" (or omit a ratio), not print a
made-up 0.00 or die on a division by zero.
"""

from __future__ import annotations

import repro.cli as cli
from repro.analysis.stats import summarize
from repro.core.studies import WebStudy, WebStudyConfig
from repro.device import NEXUS4
from repro.parallel.chaos import (
    CHAOS_CORRUPT,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
)


def _quarantine_every_trial() -> ChaosExecutor:
    """Each sweep here dispatches one trial; its result never arrives."""
    plan = ChaosPlan(faults=(ChaosFault(index=0, kind=CHAOS_CORRUPT),))
    return ChaosExecutor(2, plan, max_task_retries=0, poll_interval_s=0.02)


def test_quarantined_points_have_no_sample_and_no_ratio():
    study = WebStudy(WebStudyConfig(n_pages=1, trials=1,
                                    categories=("news",),
                                    executor=_quarantine_every_trial()))
    ((_, memory_point),) = study.plt_vs_memory(sizes_gb=(1.0,))
    assert memory_point.n == 0
    assert memory_point.fmt_mean(".2f") == "n/a"
    # No surviving sample on either side: no slowdown factor to report.
    assert study.category_clock_sensitivity() == {}


def test_an_empty_page_selection_stays_empty():
    study = WebStudy(WebStudyConfig(n_pages=3, trials=1))
    assert summarize([]) == study.plt_summary(NEXUS4, "empty", pages=[],
                                              governor="OD")
    assert study.plt_summary(NEXUS4, "all", governor="OD").n == 3


def test_cli_renders_empty_points_as_na(monkeypatch, capsys):
    empty = summarize([])
    monkeypatch.setattr(WebStudy, "plt_vs_memory",
                        lambda self: [(1.0, empty)])
    monkeypatch.setattr(WebStudy, "plt_vs_cores", lambda self: [(1, empty)])
    monkeypatch.setattr(WebStudy, "plt_vs_governor",
                        lambda self: [("OD", empty)])
    assert cli.main(["fig3bcd", "--pages", "1"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out and "0.00" not in out

    import repro.core.studies as studies
    from repro.core.studies.joint import TlsPoint

    monkeypatch.setattr(studies, "joint_network_device_grid",
                        lambda **kwargs: [])
    monkeypatch.setattr(studies, "tls_overhead",
                        lambda **kwargs: [TlsPoint(384, empty, empty)])
    monkeypatch.setattr(studies, "browsers_vs_clock",
                        lambda **kwargs: {"chrome63": {384: empty,
                                                       1512: empty}})
    assert cli.main(["joint", "--pages", "1"]) == 0
    captured = capsys.readouterr()
    rows = {line.split()[0]: line.split()
            for line in captured.out.splitlines() if line.strip()}
    assert rows["384"] == ["384", "n/a", "n/a", "n/a"]
    assert rows["chrome63"] == ["chrome63", "n/a", "n/a", "n/a"]
    assert captured.err == ""
