"""CLI error paths and the faults study's journal/resume round trip."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.studies import FaultStudy, FaultStudyConfig
from repro.video import VideoSpec


# -- error paths: nonzero exit, one-line message, no traceback --------------

def test_unknown_figure_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["figZZ"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "figZZ" in err
    assert "Traceback" not in err


def test_trials_zero_is_rejected_with_one_line_message(capsys):
    assert main(["fig6", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_resume_requires_journal(capsys):
    assert main(["faults", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "error: --resume requires --journal" in err
    assert "Traceback" not in err


def test_crash_probability_out_of_range_is_rejected(capsys):
    assert main(["faults", "--crash-probability", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1", "-4"])
def test_nonpositive_jobs_is_rejected_with_one_line_message(capsys, jobs):
    assert main(["faults", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.strip().startswith("error: --jobs must be at least 1")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_supervision_flags_require_parallel_jobs(capsys):
    assert main(["faults", "--task-timeout", "30"]) == 2
    assert "--jobs 2 or more" in capsys.readouterr().err
    assert main(["faults", "--jobs", "2", "--task-timeout", "0"]) == 2
    assert "positive" in capsys.readouterr().err
    assert main(["faults", "--jobs", "2", "--max-task-retries", "-1"]) == 2
    assert "negative" in capsys.readouterr().err


def test_command_exception_prints_one_line_error(capsys, monkeypatch):
    import repro.cli as cli

    def explode(args):
        raise RuntimeError("study blew up")

    monkeypatch.setitem(cli._COMMANDS, "fig6", explode)
    assert main(["fig6"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: study blew up"
    assert "Traceback" not in err


def test_list_includes_faults(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.split()
    assert "faults" in names
    assert "lint" in names
    assert "report" in names
    assert "perf" in names


# -- run-level observability through the CLI --------------------------------

FAST_FAULTS = ["faults", "--trials", "1", "--pages", "4", "--media-s", "15"]


def test_parallel_run_prints_supervision_summary_on_stderr(capsys):
    assert main(FAST_FAULTS + ["--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "supervision: 0 rebuilds, 0 retries, 0 quarantined" in captured.err
    assert "supervision" not in captured.out


def test_serial_run_prints_no_supervision_summary(capsys):
    assert main(FAST_FAULTS) == 0
    assert "supervision" not in capsys.readouterr().err


def test_journaled_run_writes_runlog_and_progress_to_stderr(tmp_path,
                                                            capsys):
    from repro.obs.runlog import read_runlog

    assert main(FAST_FAULTS + ["--journal", str(tmp_path), "--progress"]) == 0
    captured = capsys.readouterr()
    # --journal on a faults run implies a sibling runlog.
    events = read_runlog(tmp_path / "run.jsonl")
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "run_end"
    assert any(e["event"] == "trial_complete" for e in events)
    # Progress rendering never contaminates stdout.
    assert "trials" in captured.err
    assert "trials" not in captured.out


def test_explicit_runlog_flag_controls_the_path(tmp_path):
    from repro.obs.runlog import read_runlog

    path = tmp_path / "nested" / "events.jsonl"
    path.parent.mkdir()
    assert main(FAST_FAULTS + ["--runlog", str(path)]) == 0
    events = read_runlog(path)
    assert {e["event"] for e in events} >= {"run_start", "run_end"}


def test_report_and_perf_dispatch_through_the_cli(tmp_path, capsys):
    assert main(FAST_FAULTS + ["--journal", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("run report")

    from repro.obs.perfstore import PerfStore

    store = PerfStore(tmp_path / "BENCH_obs.json")
    store.append("bench.wall_s", 1.0)
    store.append("bench.wall_s", 1.1)
    assert main(["perf", "check", str(store.path)]) == 0
    assert "within the" in capsys.readouterr().out


# -- journal/resume round trip through the study ----------------------------

def _tiny_study(tmp_path) -> FaultStudy:
    return FaultStudy(FaultStudyConfig(
        n_pages=1, trials=2, clip=VideoSpec(duration_s=5.0),
        journal_dir=tmp_path, max_attempts=1,
    ))


def test_interrupted_then_resume_reexecutes_only_missing(tmp_path,
                                                        monkeypatch):
    study = _tiny_study(tmp_path)
    first = study.plt_vs_burst_loss(p_bads=(0.3,))
    (journal,) = tmp_path.glob("*.json")
    assert journal.name == "faults_web_ge_0.3.json"

    # Simulate an interrupt: drop the journal's second trial.
    import json

    payload = json.loads(journal.read_text())
    assert len(payload["records"]) == 2
    payload["records"] = payload["records"][:1]
    journal.write_text(json.dumps(payload))

    import repro.core.studies.faults as faults_study

    resumed_study = _tiny_study(tmp_path)
    loads = []
    original = faults_study.simulate

    def counting(*args, **kwargs):
        loads.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(faults_study, "simulate", counting)
    second = resumed_study.plt_vs_burst_loss(p_bads=(0.3,), resume=True)
    assert len(loads) == 1            # one page x the single missing trial
    assert second[0].report.resumed == 1
    assert second[0].metric == first[0].metric
