"""Sweep points with no sample render as missing data, never as numbers.

A supervised executor may quarantine every trial of a sweep point, and a
page or value selection may be empty.  Either way there is no sample:
studies and the CLI must then say "n/a" (or omit a ratio, or return no
points), not print a made-up 0.00, die on a division by zero or fall back
to the default sweep.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.analysis.stats import summarize
from repro.core.studies import (
    RtcStudy,
    RtcStudyConfig,
    VideoStudy,
    VideoStudyConfig,
    WebStudy,
    WebStudyConfig,
    throughput_vs_clock,
)
from repro.core.studies.axes import run_trials
from repro.core.studies.offload import EpltClockPoint, OffloadComparison
from repro.core.studies.web import PageLoadPoint
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
    return ChaosExecutor(2, plan, max_task_retries=0)


def test_quarantined_points_have_no_sample_and_no_ratio():
    study = WebStudy(WebStudyConfig(n_pages=1, trials=1,
                                    categories=("news",),
                                    executor=_quarantine_every_trial()))
    (memory_point,) = study.sweep("memory", values=(1.0,))
    assert memory_point.plt.n == 0
    assert memory_point.plt.fmt_mean(".2f") == "n/a"
    assert memory_point.scripting_share == 0.0
    # No surviving sample on either side: no slowdown factor to report.
    assert study.category_clock_sensitivity() == {}


def test_an_empty_page_selection_stays_empty():
    study = WebStudy(WebStudyConfig(n_pages=3, trials=1))

    def plt(experiment, pages=None):
        task = study.task(NEXUS4, {"governor": "OD"}, pages)
        return study.point(experiment, run_trials(study.executor, task,
                                                  experiment, 1)).plt

    assert summarize([]) == plt("empty", pages=[])
    assert plt("all").n == 3


@pytest.mark.parametrize("sweep", [
    lambda: WebStudy(WebStudyConfig(n_pages=1, trials=1)).sweep(
        "clock", values=()),
    lambda: VideoStudy(VideoStudyConfig(trials=1)).sweep("cores", values=()),
    lambda: RtcStudy(RtcStudyConfig(trials=1)).sweep("devices", values=[]),
    lambda: throughput_vs_clock(ladder=()),
], ids=["web-clock", "video-cores", "rtc-devices", "iperf-ladder"])
def test_an_empty_value_list_sweeps_nothing(sweep):
    # Only None means "the axis default"; () must not run the whole ladder.
    assert sweep() == []


def test_cli_renders_empty_points_as_na(monkeypatch, capsys):
    empty = summarize([])
    monkeypatch.setattr(WebStudy, "sweep", lambda self, axis: [
        PageLoadPoint({"memory": 1.0, "cores": 1, "governor": "OD"}[axis],
                      empty, empty, empty, 0.0, 0.0)])
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


def test_offload_wins_need_a_sample_on_both_sides():
    empty, sample = summarize([]), summarize([2.0])
    assert OffloadComparison(sample, empty, sample, empty) \
        .eplt_improvement is None
    assert EpltClockPoint(300, empty, sample).improvement is None
    assert EpltClockPoint(300, sample, summarize([1.5])).improvement == 0.25


def test_cli_renders_quarantined_fig1_and_fig7_as_na(monkeypatch, capsys):
    # Every page load of Fig 1 and every trial of Fig 7 is quarantined.
    monkeypatch.setattr(cli, "_executor",
                        lambda args: _quarantine_every_trial())
    assert cli.main(["fig1", "--pages", "2"]) == 0
    rows = [line.split() for line in
            capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 8 and all(row[1] == "n/a" for row in rows)

    assert cli.main(["fig7", "--pages", "1"]) == 0
    captured = capsys.readouterr()
    assert "ePLT improvement: n/a" in captured.out
    assert "Fig 7b: median power n/a" in captured.out
    assert "%" not in captured.out and "0.00" not in captured.out
    assert captured.err == ""
