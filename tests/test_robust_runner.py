"""RobustTrialRunner: graceful degradation, retries, journal/resume."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.core.experiments import (
    RobustTrialRunner,
    TrialError,
    TrialRecord,
    derive_retry_seed,
    derive_seed,
)
from repro.core.background import make_rng
from repro.core.studies import FaultStudyConfig
from repro.sim import Environment, Interrupt, SimDeadlock, StepBudgetExceeded


def crashy_trial(seed: int) -> float:
    """~30% of seeds crash via the kernel's Interrupt mechanism."""
    rng = make_rng(seed)
    if rng.random() < 0.3:
        raise Interrupt("fault:crash")
    return rng.uniform(1.0, 2.0)


# -- graceful degradation ---------------------------------------------------

def test_thirty_percent_crash_rate_completes_with_failure_counts():
    runner = RobustTrialRunner(trials=30, experiment="degrade",
                               max_attempts=1)
    report = runner.run(crashy_trial)
    assert len(report.records) == 30
    assert report.completed + report.failures == 30
    assert report.failures > 0          # ~30% rate must hit at least once
    assert report.completed > 0
    assert report.failure_counts() == {"crash": report.failures}
    summary = report.summary()
    assert summary.n == report.completed
    assert summary.failures == report.failures
    assert f"[{report.failures} failed]" in str(summary)
    assert all(1.0 <= value <= 2.0 for value in report.values)


def test_report_is_deterministic():
    def run_once(max_attempts):
        runner = RobustTrialRunner(trials=10, experiment="det",
                                   max_attempts=max_attempts)
        report = runner.run(crashy_trial)
        rows = []
        for record in report.records:
            row = record.as_dict()
            # The only intentionally non-deterministic field: attempt wall
            # duration is host timing, everything else must replay exactly.
            assert row.pop("duration_wall_s") >= 0.0
            rows.append(row)
        return rows

    # Two attempts rescue every crash of this experiment; with one, some
    # trials keep a failure, whose error text must replay exactly too.
    assert run_once(2) == run_once(2)
    failed_once = run_once(1)
    assert any(row["error"] for row in failed_once)
    assert failed_once == run_once(1)


# -- retry with derived reseed ----------------------------------------------

def test_retry_uses_derived_reseed():
    assert derive_retry_seed("exp", 3, 0) == derive_seed("exp", 3)
    assert derive_retry_seed("exp", 3, 1) != derive_seed("exp", 3)
    assert derive_retry_seed("exp", 3, 1) != derive_retry_seed("exp", 3, 2)


def test_retry_can_rescue_a_stochastic_crash():
    seen: list[int] = []

    def crash_on_first_attempt(seed: int) -> float:
        seen.append(seed)
        if len(seen) == 1:
            raise Interrupt("fault:crash")
        return 1.0

    runner = RobustTrialRunner(trials=1, experiment="rescue",
                               max_attempts=2)
    report = runner.run(crash_on_first_attempt)
    assert report.failures == 0
    assert report.records[0].attempts == 2
    assert seen == [derive_retry_seed("rescue", 0, 0),
                    derive_retry_seed("rescue", 0, 1)]


def test_attempts_exhausted_keeps_last_failure():
    def always_crash(seed: int) -> float:
        raise Interrupt("boom")

    runner = RobustTrialRunner(trials=2, experiment="doomed",
                               max_attempts=3)
    report = runner.run(always_crash)
    assert report.failures == 2
    assert all(record.attempts == 3 for record in report.records)
    assert report.values == []
    assert report.summary().n == 0


# -- error taxonomy ---------------------------------------------------------

def test_taxonomy_classification():
    def classified(seed: int) -> float:
        trial = seed_to_trial[seed]
        if trial == 0:
            raise Interrupt("fault:crash")
        if trial == 1:
            env = Environment()

            def stuck(env):
                yield env.event()

            env.process(stuck(env))
            env.run()  # raises SimDeadlock
        if trial == 2:
            raise StepBudgetExceeded("budget", now=1.0, steps=10)
        if trial == 3:
            raise ValueError("bad input")
        return 1.0

    runner = RobustTrialRunner(trials=5, experiment="taxonomy",
                               max_attempts=1)
    seed_to_trial = {derive_seed("taxonomy", t): t for t in range(5)}
    report = runner.run(classified)
    statuses = [record.status for record in report.records]
    assert statuses == ["crash", "deadlock", "timeout", "error", "ok"]
    assert report.failure_counts() == {
        "crash": 1, "deadlock": 1, "timeout": 1, "error": 1,
    }


def test_trial_fn_is_called_with_the_seed_only():
    # A trial needs nothing but its seed: a step budget is a field of the
    # trial object, so a second parameter keeps its default.
    received: list[object] = []

    def budgeted(seed: int, step_budget=None) -> float:
        received.append(step_budget)
        return 1.0

    report = RobustTrialRunner(trials=1).run(budgeted)
    assert report.failures == 0
    assert received == [None]


def test_non_numeric_trial_value_is_classified_not_raised():
    def stringy(seed: int):
        return "not a number"

    runner = RobustTrialRunner(trials=1, experiment="stringy",
                               max_attempts=1)
    report = runner.run(stringy)          # must not raise
    (record,) = report.records
    assert record.status == "error"
    assert "non-numeric trial result" in record.error
    assert "str" in record.error
    assert report.failure_counts() == {"error": 1}


def test_non_numeric_trial_value_is_retried():
    attempts: list[int] = []

    def flaky_type(seed: int):
        attempts.append(seed)
        return None if len(attempts) == 1 else 1.0

    runner = RobustTrialRunner(trials=1, experiment="flakytype",
                               max_attempts=2)
    report = runner.run(flaky_type)
    assert report.failures == 0
    assert report.records[0].attempts == 2


# -- journal / resume -------------------------------------------------------

def test_journal_written_and_resume_skips_completed(tmp_path):
    journal = tmp_path / "journal.json"
    runner = RobustTrialRunner(trials=6, experiment="journal",
                               max_attempts=1, journal_path=journal)
    first = runner.run(lambda seed: float(seed % 7))
    assert journal.exists()
    payload = json.loads(journal.read_text())
    assert payload["experiment"] == "journal"
    assert len(payload["records"]) == 6

    # Simulate an interrupted run: drop the last three records.
    payload["records"] = payload["records"][:3]
    journal.write_text(json.dumps(payload))

    executed: list[int] = []

    def observed(seed: int) -> float:
        executed.append(seed)
        return float(seed % 7)

    second = runner.run(observed, resume=True)
    assert second.resumed == 3
    assert [derive_seed("journal", t) for t in (3, 4, 5)] == executed

    def rows(report):
        # duration_wall_s is host timing — non-deterministic by design.
        return [{k: v for k, v in r.as_dict().items()
                 if k != "duration_wall_s"} for r in report.records]

    assert rows(second) == rows(first)


def test_resume_reexecutes_failed_trials(tmp_path):
    journal = tmp_path / "journal.json"
    runner = RobustTrialRunner(trials=4, experiment="refail",
                               max_attempts=1, journal_path=journal)

    def fail_on_even_trials(seed: int) -> float:
        trial = {derive_seed("refail", t): t for t in range(4)}[seed]
        if trial % 2 == 0:
            raise ValueError("flaky")
        return 1.0

    first = runner.run(fail_on_even_trials)
    assert first.failures == 2

    second = runner.run(lambda seed: 2.0, resume=True)
    assert second.resumed == 2        # only the ok trials are kept
    assert second.failures == 0
    by_trial = {record.trial: record for record in second.records}
    assert by_trial[0].value == 2.0   # previously failed: re-executed
    assert by_trial[1].value == 1.0   # previously ok: kept


def test_resume_without_journal_runs_everything(tmp_path):
    runner = RobustTrialRunner(trials=3, experiment="nofile",
                               journal_path=tmp_path / "missing.json")
    report = runner.run(lambda seed: 1.0, resume=True)
    assert report.resumed == 0
    assert report.completed == 3


def test_journal_experiment_mismatch_raises(tmp_path):
    journal = tmp_path / "journal.json"
    RobustTrialRunner(trials=1, experiment="alpha",
                      journal_path=journal).run(lambda seed: 1.0)
    other = RobustTrialRunner(trials=1, experiment="beta",
                              journal_path=journal)
    with pytest.raises(TrialError, match="belongs to experiment"):
        other.run(lambda seed: 1.0, resume=True)


def test_journal_trials_count_mismatch_raises(tmp_path):
    journal = tmp_path / "journal.json"
    RobustTrialRunner(trials=4, experiment="shape",
                      journal_path=journal).run(lambda seed: 1.0)
    shrunk = RobustTrialRunner(trials=2, experiment="shape",
                               journal_path=journal)
    with pytest.raises(TrialError, match="written for 4 trials, not 2"):
        shrunk.run(lambda seed: 1.0, resume=True)


def test_resume_with_all_trials_satisfied_rewrites_journal(tmp_path):
    journal = tmp_path / "journal.json"
    runner = RobustTrialRunner(trials=3, experiment="fullres",
                               max_attempts=1, journal_path=journal)
    runner.run(lambda seed: 1.0)
    pristine = journal.read_bytes()

    # Pollute the file with a stale extra key; a resume that satisfies every
    # trial from the journal must still rewrite it in canonical form.
    payload = json.loads(journal.read_text())
    payload["stale_debug_field"] = True
    journal.write_text(json.dumps(payload))

    report = runner.run(lambda seed: 1.0, resume=True)
    assert report.resumed == 3
    assert journal.read_bytes() == pristine


def test_corrupt_journal_raises_trial_error(tmp_path):
    journal = tmp_path / "journal.json"
    journal.write_text("{not json")
    runner = RobustTrialRunner(trials=1, experiment="corrupt",
                               journal_path=journal)
    with pytest.raises(TrialError, match="unreadable journal"):
        runner.run(lambda seed: 1.0, resume=True)


@pytest.mark.parametrize("payload", [
    [],
    {"experiment": "malformed", "trials": 1,
     "records": [{"seed": 1, "status": "ok", "value": 1.0}]},
], ids=["top-level-list", "row-without-trial"])
def test_malformed_journal_raises_trial_error_naming_the_file(tmp_path,
                                                              payload):
    journal = tmp_path / "journal.json"
    journal.write_text(json.dumps(payload))
    runner = RobustTrialRunner(trials=1, experiment="malformed",
                               journal_path=journal)
    with pytest.raises(TrialError, match="journal.json"):
        runner.run(lambda seed: 1.0, resume=True)


def test_v3_journal_resumes_without_rerunning_and_is_rewritten_as_v4(
        tmp_path):
    journal = tmp_path / "journal.json"
    runner = RobustTrialRunner(trials=3, experiment="v3", max_attempts=1,
                               journal_path=journal)
    runner.run(lambda seed: float(seed % 5))
    current = journal.read_bytes()
    # The v3 layout: same rows plus an always-null ``metrics`` key.
    payload = json.loads(current)
    assert payload["version"] == 4
    assert all("metrics" not in row for row in payload["records"])
    payload["version"] = 3
    for row in payload["records"]:
        row["metrics"] = None
    journal.write_text(json.dumps(payload, indent=1, sort_keys=True))

    executed: list[int] = []

    def observed(seed: int) -> float:
        executed.append(seed)
        return float(seed % 5)

    report = runner.run(observed, resume=True)
    assert executed == []
    assert report.resumed == 3
    assert journal.read_bytes() == current


# -- record round trip and validation ---------------------------------------

def test_trial_record_round_trip():
    record = TrialRecord(trial=2, seed=99, status="ok", value=1.5,
                         attempts=2)
    assert TrialRecord.from_dict(record.as_dict()) == record


def test_constructor_validation():
    with pytest.raises(ValueError):
        RobustTrialRunner(trials=0)
    with pytest.raises(ValueError):
        RobustTrialRunner(max_attempts=0)
    with pytest.raises(ValueError):
        FaultStudyConfig(step_budget=0)


# -- steps field -------------------------------------------------------------

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


def test_successful_trial_leaves_steps_and_metrics_unset():
    runner = RobustTrialRunner(trials=1, experiment="plain")
    (record,) = runner.run(lambda seed: 1.0).records
    assert record.ok
    assert record.steps is None
    assert not hasattr(record, "metrics")
    assert "metrics" not in record.as_dict()


def test_trial_record_round_trips_new_fields():
    record = TrialRecord(trial=1, seed=9, status="ok", value=2.0,
                         duration_wall_s=0.25, steps=100)
    assert TrialRecord.from_dict(record.as_dict()) == record
    # v1 journal rows (without the new fields) still load with defaults.
    legacy = TrialRecord.from_dict(
        {"trial": 0, "seed": 1, "status": "ok", "value": 1.0})
    assert legacy.duration_wall_s == 0.0
    assert legacy.steps is None
    # v2/v3 rows carry a ``metrics`` key this version ignores.
    assert TrialRecord.from_dict(
        {**record.as_dict(), "metrics": {"sim.steps": 100.0}}) == record
