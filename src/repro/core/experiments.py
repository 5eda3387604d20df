"""Trial running: the paper's repeat-20-times-report-mean/std methodology.

A *trial function* is called as ``trial_fn(seed)``: it builds a fresh
simulation environment from the seed and returns one scalar.
Determinism: trial ``i`` of experiment ``name`` always uses the same
derived seed, so every figure regenerates bit-identically.

:class:`RobustTrialRunner` runs a trial function across seeded trials and
summarizes.  It survives individual trial failures (crash, deadlock,
budget exhaustion) instead of losing a whole figure to one exception,
retries with a derived reseed, journals completed trials to JSON for
``--resume``, and reports failure counts through
:class:`~repro.analysis.stats.Summary` so figures render from the trials
that succeeded.

The runner is a fold over :func:`repro.core.pipeline.dispatch`, which
runs trials through a :class:`repro.parallel.Executor` (serial by
default, a fault-tolerant :class:`~repro.parallel.SupervisedExecutor`
for ``--jobs N``), replays cached trials, and yields results in trial
order.  Because every trial is a pure function of ``(experiment,
trial)``, fan-out is invisible in the output: workers return
:class:`TrialRecord` values and only the parent process touches the
journal file — so summaries, journals, and figure rows are
byte-identical for any worker count.

Error taxonomy: a robust run records every failure as a status
(``crash`` / ``timeout`` / ``deadlock`` / ``error``, from
:mod:`repro.core.pipeline` — e.g. a :class:`repro.sim.SimDeadlock` is
``"deadlock"``) and never raises for one.  :class:`TrialError` is raised
only where no record can stand in: an unusable journal.

Seed-collision note: ``derive_seed`` hashes ``f"{experiment}:{trial}"``
with CRC-32, keeping seeds 31-bit and stable.  CRC-32 over short distinct
strings collides with probability ≈ ``n²/2³³`` (birthday bound) — about
2×10⁻⁵ for the ~400 experiment-name × 100-trial pairs the benchmarks use.
``tests/test_core_experiments.py`` asserts the current benchmark namespace
is collision-free; if a collision ever appears, mix the trial index into
the CRC input (e.g. hash ``f"{experiment}:{trial}:{trial * 0x9E3779B9}"``)
— at the cost of regenerating every figure baseline.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.analysis.stats import Summary, summarize
from repro.cache import KIND_RECORD, Codec, TrialCache, TrialKeyer, resolve_cache
from repro.core.pipeline import (
    TRIAL_CRASH,
    TRIAL_DEADLOCK,
    TRIAL_ERROR,
    TRIAL_OK,
    TRIAL_TIMEOUT,
    Failure,
    classify,
    dispatch,
    resolve_runlog,
)
from repro.obs.runlog import RUNLOG_VERSION, RunLog, snapshot_digest
from repro.parallel import Executor, SerialExecutor, SupervisionReport
from repro.sim import StepBudgetExceeded

def derive_seed(experiment: str, trial: int) -> int:
    """Stable 32-bit seed for (experiment, trial)."""
    return zlib.crc32(f"{experiment}:{trial}".encode()) & 0x7FFFFFFF


def derive_retry_seed(experiment: str, trial: int, attempt: int) -> int:
    """Reseed for retry ``attempt`` of a failed trial.

    Attempt 0 is the canonical :func:`derive_seed` stream (so healthy runs
    are unchanged); retries hash a distinct namespace so a stochastically
    crashed trial gets fresh fault draws instead of replaying the crash.
    """
    if attempt == 0:
        return derive_seed(experiment, trial)
    return derive_seed(f"{experiment}#retry{attempt}", trial)


class TrialError(Exception):
    """One trial failed after exhausting its attempts."""

    def __init__(self, experiment: str, trial: int, seed: int, message: str):
        super().__init__(
            f"trial {trial} of {experiment!r} (seed {seed}) failed: {message}"
        )
        self.experiment = experiment
        self.trial = trial
        self.seed = seed


#: Journal schema version.  v2 added ``duration_wall_s``/``steps``/``metrics``;
#: v3 dropped ``duration_wall_s`` from the *file* (host timing made journal
#: bytes run-dependent; records still carry it in memory).  Older journals
#: still load (missing fields default).
JOURNAL_VERSION = 3


@dataclass
class TrialRecord:
    """Outcome of one trial (one row of the journal)."""

    trial: int
    seed: int
    status: str
    value: Optional[float] = None
    error: str = ""
    attempts: int = 1
    duration_wall_s: float = 0.0
    steps: Optional[int] = None
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == TRIAL_OK

    def as_dict(self) -> dict:
        return {
            "trial": self.trial, "seed": self.seed, "status": self.status,
            "value": self.value, "error": self.error, "attempts": self.attempts,
            "duration_wall_s": self.duration_wall_s, "steps": self.steps,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TrialRecord":
        steps = raw.get("steps")
        return cls(
            trial=int(raw["trial"]), seed=int(raw["seed"]),
            status=str(raw["status"]), value=raw.get("value"),
            error=str(raw.get("error", "")),
            attempts=int(raw.get("attempts", 1)),
            duration_wall_s=float(raw.get("duration_wall_s", 0.0)),
            steps=None if steps is None else int(steps),
            metrics=raw.get("metrics"),
        )


@dataclass
class RobustRunReport:
    """All trial records of one robust run, successful or not."""

    experiment: str
    trials: int
    records: list[TrialRecord] = field(default_factory=list)
    resumed: int = 0  #: trials satisfied from the journal, not re-executed
    quarantined: int = 0  #: trials the executor's supervisor gave up on
    #: Host-level supervision stats of the run (pool rebuilds, task
    #: retries), when the executor is supervised.  Deliberately absent
    #: from journals: how often the pool broke is a fact about the host,
    #: not the experiment — the same policy that keeps
    #: ``duration_wall_s`` out of the v3 journal schema.
    supervision: Optional[SupervisionReport] = None

    @property
    def values(self) -> list[float]:
        """Values of the successful trials, in trial order."""
        return [r.value for r in sorted(self.records, key=lambda r: r.trial)
                if r.ok and r.value is not None]

    @property
    def failures(self) -> int:
        """Number of trials that failed after all attempts."""
        return sum(1 for r in self.records if not r.ok)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    def failure_counts(self) -> dict[str, int]:
        """Failures broken down by taxonomy status."""
        counts: dict[str, int] = {}
        for record in self.records:
            if not record.ok:
                counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def summary(self) -> Summary:
        """Mean ± std of the successful trials, failures counted alongside."""
        return summarize(self.values, failures=self.failures)


class RobustTrialRunner:
    """Seeded repetitions of a trial function: retries, journaling.

    The paper repeats each workload 20 times; simulation trials converge
    much faster, so the default is smaller — pass ``trials=20`` for
    full-fidelity runs.

    ``trial_fn`` is called as ``trial_fn(seed)`` and nothing else; anything
    else a trial needs (a kernel step budget, a fault plan) is a field of
    the trial object, as in the sweep tasks of
    :mod:`repro.core.studies.axes`.  Each trial is attempted up to
    ``max_attempts`` times — the first attempt on the canonical seed, each
    retry on a derived reseed (see :func:`derive_retry_seed`).  Failures
    are classified (crash / timeout / deadlock / error) and recorded, never
    raised, so a study always completes with whatever trials succeeded.

    ``journal_path`` enables crash-safe progress journaling: a JSON file
    atomically rewritten by the parent process after every finished trial
    (workers return records; they never touch the file).  With
    ``resume=True`` on :meth:`run`, trials already journaled as ``ok`` are
    loaded instead of re-executed — only missing or previously failed
    trials run — and the final journal is always rewritten, even when
    every trial was satisfied from it.

    ``executor`` selects the dispatch layer (default
    :class:`~repro.parallel.SerialExecutor`).  With a multiprocess
    executor, ``trial_fn`` must be picklable (a module-level function or
    class instance).  A :class:`~repro.parallel.SupervisedExecutor` may
    additionally quarantine a trial after repeated *host-level* faults
    (worker crash, hang, unpicklable result); quarantined trials are
    classified into the same crash/timeout/error taxonomy and journaled
    as ordinary failures, so ``--resume`` re-runs them.
    """

    def __init__(
        self,
        trials: int = 5,
        experiment: str = "exp",
        max_attempts: int = 2,
        journal_path: Optional[Union[str, Path]] = None,
        executor: Optional[Executor] = None,
        runlog: Optional[RunLog] = None,
        cache: Optional[TrialCache] = None,
    ):
        if trials < 1:
            raise ValueError("need at least one trial")
        if max_attempts < 1:
            raise ValueError("need at least one attempt per trial")
        self.trials = trials
        self.experiment = experiment
        self.max_attempts = max_attempts
        self.journal_path = Path(journal_path) if journal_path else None
        self.executor = executor or SerialExecutor()
        self.runlog = runlog
        self.cache = cache

    # -- journal ----------------------------------------------------------

    def load_journal(self) -> dict[int, TrialRecord]:
        """Records from the journal file, keyed by trial index."""
        if self.journal_path is None or not self.journal_path.exists():
            return {}
        try:
            raw = json.loads(self.journal_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise TrialError(self.experiment, -1, 0,
                             f"unreadable journal {self.journal_path}: {error}")
        if raw.get("experiment") != self.experiment:
            raise TrialError(
                self.experiment, -1, 0,
                f"journal {self.journal_path} belongs to experiment "
                f"{raw.get('experiment')!r}, not {self.experiment!r}",
            )
        stored_trials = raw.get("trials")
        if stored_trials is not None and int(stored_trials) != self.trials:
            raise TrialError(
                self.experiment, -1, 0,
                f"journal {self.journal_path} was written for "
                f"{stored_trials} trials, not {self.trials}; resuming "
                f"would silently mix run shapes — delete the journal or "
                f"rerun with trials={stored_trials}",
            )
        return {
            record.trial: record
            for record in (TrialRecord.from_dict(r) for r in raw.get("records", []))
        }

    @staticmethod
    def _journal_row(record: TrialRecord) -> dict:
        row = record.as_dict()
        # Host timing varies run to run; keeping it out of the file is what
        # makes journals byte-identical across runs and worker counts.
        row.pop("duration_wall_s", None)
        return row

    def _write_journal(self, records: dict[int, TrialRecord]) -> None:
        if self.journal_path is None:
            return
        payload = {
            "version": JOURNAL_VERSION,
            "experiment": self.experiment,
            "trials": self.trials,
            "records": [self._journal_row(records[k]) for k in sorted(records)],
        }
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.journal_path.with_suffix(self.journal_path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.journal_path)

    # -- execution --------------------------------------------------------

    def run(self, trial_fn: Callable, resume: bool = False) -> RobustRunReport:
        """Execute (or resume) all trials; never raises for a failed trial."""
        report = RobustRunReport(experiment=self.experiment, trials=self.trials)
        records: dict[int, TrialRecord] = {}
        if resume:
            records = {
                trial: record
                for trial, record in self.load_journal().items()
                if record.ok and trial < self.trials
            }
            report.resumed = len(records)
        pending = [trial for trial in range(self.trials)
                   if trial not in records]
        runlog = resolve_runlog(self.runlog, self.executor)
        runlog.emit(
            "run_start", experiment=self.experiment, trials=self.trials,
            pending=len(pending), resumed=report.resumed,
            runlog_version=RUNLOG_VERSION,
            config={
                "jobs": getattr(self.executor, "jobs", 1),
                "max_attempts": self.max_attempts,
            },
        )
        task = _TrialTask(runner=self, trial_fn=trial_fn)
        keyer = TrialKeyer.create(
            resolve_cache(self.cache, self.executor), trial_fn,
            experiment=self.experiment,
            extra={"max_attempts": self.max_attempts},
            code_extra=(type(self),), codec=_RECORD_CODEC,
        )
        # Workers hand records back; only this (parent) process merges them
        # and touches the journal file, flushed after every record so an
        # interrupt leaves a resumable journal behind.  A quarantined trial
        # is journaled as an ordinary failure, so --resume re-runs it.
        key_items = [(trial, derive_seed(self.experiment, trial))
                     for trial in pending]
        for index, record, _ in dispatch(self.executor, task, pending,
                                         keyer=keyer, runlog=runlog,
                                         key_items=key_items):
            if isinstance(record, Failure):
                trial = pending[index]
                record = TrialRecord(
                    trial=trial, seed=derive_seed(self.experiment, trial),
                    status=record.status, error=record.error,
                    attempts=record.attempts)
                report.quarantined += 1
            records[record.trial] = record
            self._write_journal(records)
            # Everything but the wall timing is seed-determined, so the
            # runlog's deterministic view replays byte-identically.  A
            # cache hit carries no wall time: the replay cost is zero.
            runlog.emit(
                "trial_complete", trial=record.trial, status=record.status,
                attempts=record.attempts, value=record.value,
                steps=record.steps, error=record.error[:200],
                metrics_digest=snapshot_digest(record.metrics),
                host={"wall_s": round(record.duration_wall_s, 6)},
            )
        report.supervision = getattr(self.executor, "last_supervision", None)
        if not pending:
            # Every trial was satisfied from the journal: rewrite it anyway
            # so the header (version, trials) never goes stale.
            self._write_journal(records)
        report.records = [records[k] for k in sorted(records)]
        runlog.emit("run_end", completed=report.completed,
                    failures=report.failures, quarantined=report.quarantined)
        return report

    def _run_trial(self, trial_fn: Callable, trial: int) -> TrialRecord:
        record = TrialRecord(trial=trial, seed=derive_seed(self.experiment, trial),
                             status=TRIAL_ERROR)
        for attempt in range(self.max_attempts):
            seed = derive_retry_seed(self.experiment, trial, attempt)
            record.seed = seed
            record.attempts = attempt + 1
            # Host timing, not sim time: it feeds the runlog's host.wall_s
            # and never the journal, so it must read a real clock.
            started = time.monotonic()  # simlint: disable=DET001
            try:
                value = trial_fn(seed)
            except Exception as error:  # noqa: BLE001 - taxonomy boundary
                record.status, record.error = classify(error)
                if isinstance(error, StepBudgetExceeded):
                    record.steps = error.steps
            else:
                try:
                    numeric = float(value)
                except (TypeError, ValueError) as error:
                    # Part of the never-raises contract: a trial function
                    # returning a non-numeric record is a failed trial, not
                    # a study-killing exception.
                    record.status = TRIAL_ERROR
                    record.error = (
                        f"non-numeric trial result of type "
                        f"{type(value).__name__}: {error}"
                    )
                    continue
                record.status = TRIAL_OK
                record.value = numeric
                record.error = ""
                return record
            finally:
                # Wall duration of the last attempt, success or failure.
                record.duration_wall_s = (
                    time.monotonic() - started  # simlint: disable=DET001
                )
        return record


@dataclass
class _TrialTask:
    """Picklable unit of work an executor ships to a worker.

    Pickling the runner carries only its configuration (ints, paths); the
    worker re-derives everything else from the trial index, and the
    returned :class:`TrialRecord` is the only thing that crosses back.
    """

    runner: RobustTrialRunner
    trial_fn: Callable

    def __call__(self, trial: int) -> TrialRecord:
        return self.runner._run_trial(self.trial_fn, trial)


def _decode_record(payload: dict, trial: int) -> TrialRecord:
    """A stored journal row, trusted only if it is this trial's ``ok`` row.

    Failures are never stored: they re-run deterministically, so replay
    and re-execution agree anyway.
    """
    record = TrialRecord.from_dict(payload)
    if record.trial != trial or not record.ok:
        raise ValueError(f"stored row does not replay trial {trial}")
    return record


#: Journal rows minus host timing: replaying one reproduces journal bytes.
_RECORD_CODEC = Codec(
    KIND_RECORD,
    lambda record: RobustTrialRunner._journal_row(record) if record.ok
    else None,
    _decode_record,
)


__all__ = [
    "RobustRunReport",
    "RobustTrialRunner",
    "TrialError",
    "TrialRecord",
    "TRIAL_CRASH",
    "TRIAL_DEADLOCK",
    "TRIAL_ERROR",
    "TRIAL_OK",
    "TRIAL_TIMEOUT",
    "derive_retry_seed",
    "derive_seed",
]
