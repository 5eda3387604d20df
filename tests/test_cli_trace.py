"""CLI contract of ``python -m repro trace`` and runner steps capture."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.core.experiments import RobustTrialRunner, TrialRecord
from repro.sim import Environment


# -- trace subcommand -------------------------------------------------------

def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "fig2a", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trace summary:" in stdout
    assert "plt_s=" in stdout
    assert f"[wrote {out}]" in stdout
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    assert events
    lanes = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"sim", "net", "web", "device"} <= lanes


def test_trace_output_is_byte_identical_for_same_seed(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["trace", "fig2a", "--out", str(first), "--seed", "7"]) == 0
    assert main(["trace", "fig2a", "--out", str(second), "--seed", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_trace_metrics_out_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["trace", "fig6", "--out", str(out),
                 "--metrics-out", str(metrics)]) == 0
    snapshot = json.loads(metrics.read_text())
    assert snapshot["sim.steps"] > 0
    assert snapshot["net.link.tx_bytes"] > 0


def test_trace_metrics_out_is_byte_identical_for_same_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["trace", "fig2a", "--out", str(tmp_path / "t.json"),
                     "--metrics-out", str(path), "--seed", "11"]) == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert list(json.loads(first)) == sorted(json.loads(first))


def test_trace_rejects_unknown_trial(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "nope", "--out", str(tmp_path / "t.json")])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_list_includes_trace(capsys):
    assert main(["list"]) == 0
    assert "trace" in capsys.readouterr().out.split()


# -- RobustTrialRunner steps capture ---------------------------------------

@dataclass
class _RunawayTrial:
    """A trial that never finishes on its own: only its step budget ends it."""

    step_budget: int

    def __call__(self, seed: int) -> float:
        env = Environment()

        def spin():
            while True:
                yield env.timeout(1.0)

        env.process(spin())
        env.run(until=1e9, max_steps=self.step_budget)
        return env.now


def test_runner_records_steps_on_budget_exhaustion():
    runner = RobustTrialRunner(trials=1, experiment="budget", max_attempts=1)
    (record,) = runner.run(_RunawayTrial(step_budget=25)).records
    assert record.status == "timeout"
    assert record.steps == 25


def test_trial_fn_without_metrics_param_gets_none_fields():
    runner = RobustTrialRunner(trials=1, experiment="plain")
    (record,) = runner.run(lambda seed: 1.0).records
    assert record.ok
    assert record.metrics is None and record.steps is None


def test_trial_record_round_trips_new_fields():
    record = TrialRecord(trial=1, seed=9, status="ok", value=2.0,
                         duration_wall_s=0.25, steps=100,
                         metrics={"sim.steps": 100.0})
    assert TrialRecord.from_dict(record.as_dict()) == record
    # v1 journal rows (without the new fields) still load with defaults.
    legacy = TrialRecord.from_dict(
        {"trial": 0, "seed": 1, "status": "ok", "value": 1.0})
    assert legacy.duration_wall_s == 0.0
    assert legacy.steps is None and legacy.metrics is None
