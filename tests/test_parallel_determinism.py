"""Property: serial and supervised multiprocess runs are byte-identical.

The executor layer's whole contract is that worker count is invisible in
the output: ``RobustRunReport`` records, journal bytes, and ``Summary``
strings must match a serial reference run exactly, whatever the worker
count and however the pool interleaves completions.  Trial functions here
are module-level (picklable) and deliberately mix ok / crash / non-numeric
outcomes so the merge path is exercised on failures too.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.background import make_rng
from repro.core.experiments import JOURNAL_VERSION, RobustTrialRunner
from repro.parallel import SerialExecutor, SupervisedExecutor
from repro.sim import Interrupt


def mixed_outcome_trial(seed: int) -> float:
    """~20% crash, ~10% non-numeric, else a seeded value."""
    rng = make_rng(seed)
    roll = rng.random()
    if roll < 0.2:
        raise Interrupt("fault:crash")
    if roll < 0.3:
        return "oops"  # type: ignore[return-value]  # exercises TRIAL_ERROR
    return rng.uniform(1.0, 2.0)


def _journal_rows(report) -> list:
    # duration_wall_s is host timing — excluded from the v3 journal and
    # from equivalence checks for the same reason.
    return [{k: v for k, v in record.as_dict().items()
             if k != "duration_wall_s"} for record in report.records]


def _run(experiment: str, trials: int, executor,
         journal: Path | None = None):
    runner = RobustTrialRunner(trials=trials, experiment=experiment,
                               max_attempts=2, journal_path=journal,
                               executor=executor)
    return runner.run(mixed_outcome_trial)


@settings(max_examples=4, deadline=None)
@given(experiment=st.text(alphabet="abcdef", min_size=1, max_size=6),
       trials=st.integers(min_value=1, max_value=8),
       workers=st.integers(min_value=2, max_value=4))
def test_multiprocess_report_matches_serial(experiment, trials, workers):
    serial = _run(experiment, trials, SerialExecutor())
    pooled = _run(experiment, trials, SupervisedExecutor(workers))
    assert _journal_rows(serial) == _journal_rows(pooled)
    assert str(serial.summary()) == str(pooled.summary())
    assert serial.failure_counts() == pooled.failure_counts()


@settings(max_examples=3, deadline=None)
@given(trials=st.integers(min_value=2, max_value=6),
       workers=st.integers(min_value=2, max_value=4))
def test_multiprocess_journal_bytes_match_serial(trials, workers):
    with tempfile.TemporaryDirectory() as tmp:
        serial_journal = Path(tmp) / "serial.json"
        pooled_journal = Path(tmp) / "pooled.json"
        _run("parprop", trials, SerialExecutor(), serial_journal)
        _run("parprop", trials, SupervisedExecutor(workers),
             pooled_journal)
        assert serial_journal.read_bytes() == pooled_journal.read_bytes()
        payload = json.loads(serial_journal.read_text())
        assert payload["version"] == JOURNAL_VERSION
        assert len(payload["records"]) == trials
