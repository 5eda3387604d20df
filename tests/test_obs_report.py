"""Run reports: journal-version tolerance, renderers, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.experiments import JOURNAL_VERSION, RobustTrialRunner
from repro.obs.report import (
    JournalView,
    ReportData,
    cache_counts,
    cache_line,
    dispatch_counts,
    host_wall_by_trial,
    load_report_data,
    main as report_main,
    quarantined_count,
    render_html,
    render_text,
    supervision_timeline,
)
from repro.obs.runlog import RunLog
from repro.core.background import make_rng
from repro.parallel.chaos import (
    CHAOS_CRASH,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
)
from repro.sim import Environment, Interrupt


def crashy_trial(seed: int) -> float:
    rng = make_rng(seed)
    if rng.random() < 0.4:
        raise Interrupt("fault:crash")
    return rng.uniform(1.0, 2.0)


def write_journal(path, records, version=JOURNAL_VERSION, experiment="exp",
                  trials=None, extra=None):
    payload = {"experiment": experiment, "records": records,
               "trials": len(records) if trials is None else trials}
    if version is not None:
        payload["version"] = version
    payload.update(extra or {})
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def record(trial, status="ok", value=1.5, **fields):
    base = {"trial": trial, "seed": 1000 + trial, "status": status,
            "attempts": 1, "value": value if status == "ok" else None,
            "error": "" if status == "ok" else f"fault:{status}"}
    base.update(fields)
    return base


# -- version tolerance -------------------------------------------------------

def test_versionless_journal_loads_as_v1(tmp_path):
    path = write_journal(tmp_path / "j.json",
                         [record(0), record(1, status="crash")],
                         version=None)
    data = load_report_data(path)
    journal = data.journals[0]
    assert (journal.version, journal.trials) == (1, 2)
    assert journal.completed == 1 and journal.failures == 1
    assert journal.taxonomy() == {"crash": 1}


def test_v2_journal_with_wall_and_metrics_loads(tmp_path):
    rows = [record(0, duration_wall_s=0.5, steps=100,
                   metrics={"sim.steps": 100.0}),
            record(1, duration_wall_s=0.7, steps=140,
                   metrics={"sim.steps": 140.0})]
    path = write_journal(tmp_path / "j.json", rows, version=2)
    data = load_report_data(path)
    journal = data.journals[0]
    assert journal.version == 2
    assert journal.completed == 2
    assert [r["steps"] for r in journal.records] == [100, 140]
    text, page = render_text(data), render_html(data)
    assert "experiment exp (journal v2, 2 trials)" in text
    assert "slowest: trial 1 (140 steps), trial 0 (100 steps)" in text
    assert "(journal v2, 2 trials)" in page
    # The v2 ``metrics`` snapshots load but render nowhere.
    for document in (text, page):
        assert "sim.steps" not in document
        assert "merged metrics" not in document


def test_live_v3_journal_loads_without_importing_trial_record(tmp_path):
    runner = RobustTrialRunner(trials=5, experiment="live", max_attempts=1,
                               journal_path=tmp_path / "live.json")
    report = runner.run(crashy_trial)
    journal = load_report_data(tmp_path / "live.json").journals[0]
    assert journal.version == JOURNAL_VERSION
    assert journal.completed == report.completed
    assert journal.failures == report.failures
    assert sum(journal.taxonomy().values()) == report.failures


def test_records_are_sorted_by_trial_on_load(tmp_path):
    path = write_journal(tmp_path / "j.json",
                         [record(2), record(0), record(1)])
    journal = load_report_data(path).journals[0]
    assert [r["trial"] for r in journal.records] == [0, 1, 2]


# -- input resolution --------------------------------------------------------

def test_directory_scan_collects_journals_and_runlog(tmp_path):
    write_journal(tmp_path / "a.json", [record(0)], experiment="a")
    write_journal(tmp_path / "b.json", [record(0)], experiment="b")
    (tmp_path / "not-a-journal.json").write_text('{"other": true}')
    with RunLog(tmp_path / "run.jsonl") as runlog:
        runlog.emit("run_start", experiment="a", trials=1)
    data = load_report_data(tmp_path)
    assert [j.experiment for j in data.journals] == ["a", "b"]
    assert data.runlog_path == tmp_path / "run.jsonl"
    assert data.events[0]["event"] == "run_start"


def test_runlog_path_pulls_in_sibling_journals(tmp_path):
    write_journal(tmp_path / "a.json", [record(0)], experiment="a")
    with RunLog(tmp_path / "run.jsonl") as runlog:
        runlog.emit("run_start", experiment="a", trials=1)
    data = load_report_data(tmp_path / "run.jsonl")
    assert len(data.journals) == 1 and len(data.events) == 1


def test_strict_single_file_errors(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ValueError, match="unreadable journal"):
        load_report_data(tmp_path / "bad.json")
    (tmp_path / "other.json").write_text('{"other": 1}')
    with pytest.raises(ValueError, match="not a trial journal"):
        load_report_data(tmp_path / "other.json")
    with pytest.raises(FileNotFoundError):
        load_report_data(tmp_path / "missing.json")
    with pytest.raises(ValueError, match="no journals and no runlog"):
        load_report_data(tmp_path / ".." / tmp_path.name)  # empty-ish dir
        # (the dir contains only non-journal json files)


# -- runlog digestion --------------------------------------------------------

CHAOS_EVENTS = [
    {"event": "run_start", "experiment": "e1", "trials": 2},
    {"event": "task_dispatch", "index": 0, "attempt": 0},
    {"event": "trial_complete", "trial": 0, "status": "ok",
     "host": {"wall_s": 0.25}},
    {"event": "task_retry", "index": 1, "kind": "worker_crash",
     "error": "died"},
    {"event": "pool_rebuild", "workers": 2},
    {"event": "task_complete", "index": 1},
    {"event": "trial_complete", "trial": 1, "status": "ok",
     "host": {"wall_s": 0.75}},
    {"event": "run_end", "completed": 2},
]


def test_host_wall_and_timeline_extraction():
    walls = host_wall_by_trial(CHAOS_EVENTS)
    assert walls == {"e1": {0: 0.25, 1: 0.75}}
    timeline = supervision_timeline(CHAOS_EVENTS)
    assert timeline == [
        ("e1", "task_retry(error=died, index=1, kind=worker_crash)"),
        ("e1", "pool_rebuild(workers=2)"),
    ]
    assert dispatch_counts(CHAOS_EVENTS) == {"task_dispatch": 1,
                                             "task_complete": 1}


def test_cache_counts_and_line():
    events = [{"event": "cache_hit"}, {"event": "cache_hit"},
              {"event": "cache_miss"}, {"event": "cache_store"},
              {"event": "trial_complete"}]
    counts = cache_counts(events)
    assert counts == {"cache_hit": 2, "cache_miss": 1, "cache_store": 1}
    assert cache_line(counts) == "2 hits, 1 misses, 1 stores (67% hit ratio)"
    assert cache_line(cache_counts(CHAOS_EVENTS)) is None  # no cache traffic


def test_renderers_show_cache_traffic_only_when_present(tmp_path):
    data = ReportData(events=[
        {"event": "run_start", "experiment": "e", "trials": 1},
        {"event": "cache_hit", "index": 0},
        {"event": "trial_complete", "trial": 0, "status": "ok"},
    ])
    assert "result cache: 1 hits, 0 misses" in render_text(data)
    assert "result cache: 1 hits, 0 misses" in render_html(data)
    quiet = ReportData(events=[
        {"event": "run_start", "experiment": "e", "trials": 1},
    ])
    assert "result cache" not in render_text(quiet)
    assert "result cache" not in render_html(quiet)


# -- renderers ---------------------------------------------------------------

def chaos_report_data(tmp_path):
    """A real chaos run with a quarantined trial, journaled + runlogged."""
    plan = ChaosPlan(faults=tuple(
        ChaosFault(index=1, kind=CHAOS_CRASH, attempt=a) for a in range(9)))
    executor = ChaosExecutor(2, plan, max_task_retries=1)
    executor.runlog = RunLog(tmp_path / "run.jsonl")
    runner = RobustTrialRunner(trials=3, experiment="chaos",
                               journal_path=tmp_path / "chaos.json",
                               executor=executor)
    report = runner.run(crashy_trial)
    executor.runlog.close()
    assert report.quarantined == 1
    return load_report_data(tmp_path)


def test_text_report_covers_chaos_run(tmp_path):
    data = chaos_report_data(tmp_path)
    text = render_text(data)
    assert f"experiment chaos (journal v{JOURNAL_VERSION}, 3 trials)" in text
    assert "quarantined" in text           # taxonomy row from the journal
    assert "pool_rebuild(workers=2)" in text
    assert "quarantine(" in text           # supervision timeline entry
    assert "slowest:" in text and "wall_s" in text
    assert text.endswith("\n")


def test_supervision_line_counts_quarantined_trials(tmp_path):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    runlog = RunLog(clean_dir / "run.jsonl")
    runner = RobustTrialRunner(trials=3, experiment="clean",
                               journal_path=clean_dir / "clean.json",
                               runlog=runlog)
    assert runner.run(lambda seed: 1.0).quarantined == 0
    runlog.close()
    clean = load_report_data(clean_dir)
    assert "0 quarantined" in render_text(clean)
    assert "0 quarantined" in render_html(clean)
    chaos = chaos_report_data(tmp_path / "chaos")
    assert quarantined_count(chaos.events) == 1
    assert "1 quarantined" in render_text(chaos)
    assert "1 quarantined" in render_html(chaos)


def test_text_report_falls_back_to_steps_without_runlog(tmp_path):
    rows = [record(0, steps=500), record(1, steps=900)]
    path = write_journal(tmp_path / "j.json", rows)
    text = render_text(load_report_data(path))
    assert "slowest: trial 1 (900 steps), trial 0 (500 steps)" in text
    assert "no runlog found" in text


def test_text_report_is_deterministic(tmp_path):
    data = chaos_report_data(tmp_path)
    assert render_text(data) == render_text(load_report_data(tmp_path))


def test_html_report_is_single_file_and_escaped(tmp_path):
    rows = [record(0, status="error<script>", error="<b>boom</b>")]
    write_journal(tmp_path / "j.json", rows,
                  experiment="exp<&>")
    html = render_html(load_report_data(tmp_path / "j.json"))
    assert html.startswith("<!DOCTYPE html>")
    assert "<style>" in html               # inline CSS ...
    assert "href=" not in html and "src=" not in html  # ... no external refs
    assert "exp&lt;&amp;&gt;" in html
    assert "&lt;b&gt;boom&lt;/b&gt;" in html
    assert "<script>" not in html


def test_html_report_renders_chaos_timeline_table(tmp_path):
    data = chaos_report_data(tmp_path)
    html = render_html(data)
    assert "<table" in html
    assert "supervision timeline" in html
    assert "quarantine(" in html
    assert 'class="bad"' in html           # the quarantined trial's row


def test_top_k_limits_slowest_list():
    journal = JournalView(path=None, version=3, experiment="e", trials=4,
                          records=[record(i, steps=i * 100) for i in
                                   range(4)])
    text = render_text(ReportData(journals=[journal]), top_k=1)
    assert "slowest: trial 3 (300 steps)" in text
    assert "trial 2 (200" not in text


# -- CLI ---------------------------------------------------------------------

def test_report_cli_text_to_stdout(tmp_path, capsys):
    write_journal(tmp_path / "j.json", [record(0)])
    assert report_main([str(tmp_path / "j.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run report")


def test_report_cli_html_to_file(tmp_path, capsys):
    write_journal(tmp_path / "j.json", [record(0)])
    out_path = tmp_path / "nested" / "report.html"
    assert report_main([str(tmp_path), "--format", "html",
                        "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("<!DOCTYPE html>")
    assert f"[wrote {out_path}]" in capsys.readouterr().out


def test_report_cli_error_paths(tmp_path, capsys):
    assert report_main([str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err
    write_journal(tmp_path / "j.json", [record(0)])
    assert report_main([str(tmp_path / "j.json"), "--top", "-1"]) == 2
    assert "--top cannot be negative" in capsys.readouterr().err
