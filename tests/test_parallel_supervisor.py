"""Supervisor failure paths: rebuild, timeout, quarantine, drain, chaos.

The acceptance property of the whole layer is *chaos invariance*: a run
afflicted by planned worker crashes, hangs, and pickle corruption must
produce byte-identical journals and summaries to a serial run, because
every injected fault is retry-recoverable and every trial is a pure
function of its seed.  The SIGINT test drives a real ``python -m repro``
subprocess so the full drain → journal flush → ``--resume`` path is
exercised the way an operator would hit it.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.background import make_rng
from repro.core.experiments import (
    RobustTrialRunner,
    TRIAL_CRASH,
    TRIAL_ERROR,
    TRIAL_TIMEOUT,
)
from repro.obs.runlog import RunLog
from repro.parallel import (
    QuarantinedTask,
    SerialExecutor,
    SupervisedExecutor,
    TASK_ERROR,
    TASK_HANG,
    WORKER_CRASH,
)
from repro.parallel.chaos import (
    CHAOS_CORRUPT,
    CHAOS_CRASH,
    CHAOS_HANG,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
)

# Pool churn makes these tests inherently slower than unit scale; the
# timeouts below are tuned so a full chaos run stays in the low seconds.


def square(x: int) -> int:
    return x * x


def seeded_value(seed: int) -> float:
    return make_rng(seed).uniform(1.0, 2.0)


def sleep_for(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def collect_garbage(x: int) -> int:
    gc.collect()
    return x


def poison_plan(index: int, kind: str, attempts: int = 10,
                hang_s: float = 60.0) -> ChaosPlan:
    """A plan that faults ``index`` on every dispatch — unrecoverable."""
    return ChaosPlan(faults=tuple(
        ChaosFault(index=index, kind=kind, attempt=a, hang_s=hang_s)
        for a in range(attempts)
    ))


# -- healthy path -----------------------------------------------------------

def test_supervised_map_matches_serial_when_healthy():
    items = list(range(16))
    supervised = SupervisedExecutor(3)
    assert supervised.map(square, items) == [x * x for x in items]
    assert supervised.supervision.clean


def test_free_worker_is_refilled_while_a_long_task_runs():
    # One worker holds a 1 s task; the other must take each short task
    # the moment it frees, not once per poll interval (that pace fits
    # only ~20 of the forty 1 ms tasks into the long one's second).
    finished = []
    executor = SupervisedExecutor(2)
    executor.runlog = RunLog(listeners=[
        lambda event: finished.append(event["index"])
        if event["event"] == "task_complete" else None])
    work = [1.0] + [0.001] * 40
    assert executor.map(sleep_for, work) == work
    assert finished.index(0) == 40, finished


def test_supervised_always_uses_the_pool():
    # No serial degradation for one item/worker: quarantine and recovery
    # semantics must not silently change with workload size, so even the
    # smallest run crosses the process boundary (and therefore requires a
    # picklable task).
    assert SupervisedExecutor(4).map(square, [7]) == [49]


def test_workers_never_finalize_a_pool_inherited_from_the_parent():
    # A dropped pool that the parent has not collected yet is copied into
    # every worker forked after it. Its finalizer takes the pool's
    # shutdown lock, which a parent thread may hold at the moment of the
    # fork (here: held on purpose); a worker that collected the copy would
    # block forever, and only the task timeout would end the trial.
    executor = SupervisedExecutor(1, task_timeout_s=5.0, max_task_retries=0)
    stale = executor._new_pool(1)
    stale.submit(abs, 0).result()  # starts the thread the finalizer wakes
    lock = stale._shutdown_lock
    gc.disable()
    lock.acquire()
    try:
        stale.cycle = stale  # only a collection can free it
        del stale
        assert executor.map(collect_garbage, [7]) == [7]
    finally:
        lock.release()
        gc.enable()
        gc.collect()


def test_supervisor_constructor_validation():
    with pytest.raises(ValueError):
        SupervisedExecutor(0)
    with pytest.raises(ValueError):
        SupervisedExecutor(2, task_timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisedExecutor(2, max_task_retries=-1)


# -- crash recovery ---------------------------------------------------------

def test_pool_rebuild_recovers_worker_crashes():
    plan = ChaosPlan(faults=(
        ChaosFault(index=1, kind=CHAOS_CRASH),
        ChaosFault(index=6, kind=CHAOS_CRASH),
    ))
    executor = ChaosExecutor(2, plan)
    items = list(range(10))
    assert executor.map(square, items) == [x * x for x in items]
    report = executor.supervision
    assert report.pool_rebuilds >= 2
    assert report.task_retries >= 2
    assert report.quarantined == []


def test_completed_cohort_results_survive_a_pool_break():
    # When a pool breaks, in-flight futures that already finished must
    # yield their genuine results, not re-run.  With a wide window and
    # one crasher, most of the cohort completes before the break lands.
    plan = ChaosPlan(faults=(ChaosFault(index=0, kind=CHAOS_CRASH),))
    executor = ChaosExecutor(4, plan)
    items = list(range(12))
    assert executor.map(square, items) == [x * x for x in items]
    assert executor.supervision.quarantined == []


# -- hang timeout -----------------------------------------------------------

def test_hung_task_is_cancelled_and_reassigned():
    plan = ChaosPlan(faults=(ChaosFault(index=2, kind=CHAOS_HANG,
                                        hang_s=60.0),))
    executor = ChaosExecutor(2, plan, task_timeout_s=0.4)
    started = time.monotonic()  # simlint: disable=DET001 -- host-side test stopwatch
    items = list(range(6))
    assert executor.map(square, items) == [x * x for x in items]
    elapsed = time.monotonic() - started  # simlint: disable=DET001 -- host-side test stopwatch
    # The 60s sleep was killed at the ~0.4s budget, not waited out.
    assert elapsed < 30.0
    report = executor.supervision
    assert report.pool_rebuilds >= 1
    assert report.quarantined == []


def test_chaos_hang_plan_requires_a_task_timeout():
    plan = ChaosPlan(faults=(ChaosFault(index=0, kind=CHAOS_HANG),))
    with pytest.raises(ValueError, match="task_timeout_s"):
        ChaosExecutor(2, plan)


# -- quarantine taxonomy ----------------------------------------------------

def test_poison_crash_quarantines_as_worker_crash():
    executor = ChaosExecutor(2, poison_plan(3, CHAOS_CRASH),
                             max_task_retries=2)
    results = executor.map(square, list(range(6)))
    quarantined = [r for r in results if isinstance(r, QuarantinedTask)]
    assert [q.index for q in quarantined] == [3]
    assert quarantined[0].kind == WORKER_CRASH
    assert quarantined[0].attempts == 3  # initial dispatch + 2 retries
    assert executor.supervision.task_retries == 2  # no sibling was charged
    assert [r for r in results if not isinstance(r, QuarantinedTask)] == [
        x * x for x in range(6) if x != 3]


def test_poison_hang_quarantines_as_task_hang():
    executor = ChaosExecutor(2, poison_plan(1, CHAOS_HANG),
                             task_timeout_s=0.3, max_task_retries=1)
    results = executor.map(square, list(range(4)))
    quarantined = [r for r in results if isinstance(r, QuarantinedTask)]
    assert [q.kind for q in quarantined] == [TASK_HANG]
    assert quarantined[0].index == 1
    assert "timeout" in quarantined[0].error


def test_poison_corrupt_quarantines_as_task_error():
    executor = ChaosExecutor(2, poison_plan(2, CHAOS_CORRUPT),
                             max_task_retries=1)
    results = executor.map(square, list(range(5)))
    quarantined = [r for r in results if isinstance(r, QuarantinedTask)]
    assert [q.kind for q in quarantined] == [TASK_ERROR]
    assert quarantined[0].index == 2


def test_task_exception_quarantines_instead_of_propagating():
    # Unlike SerialExecutor, a supervised run never dies on a task
    # exception: the failing task retries, then quarantines as TASK_ERROR.
    executor = SupervisedExecutor(2, max_task_retries=1)
    results = executor.map(_explode_on_three, list(range(5)))
    quarantined = [r for r in results if isinstance(r, QuarantinedTask)]
    assert [(q.index, q.kind) for q in quarantined] == [(3, TASK_ERROR)]
    assert "boom on 3" in quarantined[0].error
    assert executor.supervision.task_retries == 1


def _explode_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x * x


# -- chaos plans ------------------------------------------------------------

def test_chaos_fault_validation():
    with pytest.raises(ValueError, match="kind"):
        ChaosFault(index=0, kind="meteor")
    with pytest.raises(ValueError):
        ChaosFault(index=-1, kind=CHAOS_CRASH)
    with pytest.raises(ValueError):
        ChaosFault(index=0, kind=CHAOS_HANG, hang_s=0.0)
    with pytest.raises(ValueError, match="duplicate"):
        ChaosPlan(faults=(ChaosFault(index=0, kind=CHAOS_CRASH),
                          ChaosFault(index=0, kind=CHAOS_HANG)))


def test_seeded_plan_is_deterministic_and_namespaced():
    plan_a = ChaosPlan.seeded("faults:web:ge:0.2", 30, fault_rate=0.4)
    plan_b = ChaosPlan.seeded("faults:web:ge:0.2", 30, fault_rate=0.4)
    other = ChaosPlan.seeded("faults:web:ge:0.4", 30, fault_rate=0.4)
    assert plan_a.faults == plan_b.faults
    assert plan_a.faults != other.faults
    assert plan_a.faults  # a 40% rate over 30 tasks hits something
    assert all(f.attempt == 0 for f in plan_a.faults)  # recoverable


# -- chaos invariance: the signature acceptance property --------------------

def _robust_run(executor, journal: Path):
    runner = RobustTrialRunner(trials=6, experiment="chaosprop",
                               max_attempts=2, journal_path=journal,
                               executor=executor)
    return runner.run(seeded_value)


def test_chaos_journal_is_byte_identical_to_serial(tmp_path):
    serial_journal = tmp_path / "serial.json"
    chaos_journal = tmp_path / "chaos.json"
    serial = _robust_run(SerialExecutor(), serial_journal)
    plan = ChaosPlan(faults=(
        ChaosFault(index=0, kind=CHAOS_CRASH),
        ChaosFault(index=2, kind=CHAOS_CORRUPT),
        ChaosFault(index=4, kind=CHAOS_HANG, hang_s=60.0),
    ))
    executor = ChaosExecutor(2, plan, task_timeout_s=0.4)
    chaotic = _robust_run(executor, chaos_journal)
    assert executor.supervision.quarantined == []
    assert chaotic.quarantined == 0
    assert serial_journal.read_bytes() == chaos_journal.read_bytes()
    assert str(serial.summary()) == str(chaotic.summary())


@settings(max_examples=3, deadline=None)
@given(data=st.data(),
       trials=st.integers(min_value=3, max_value=6),
       workers=st.integers(min_value=2, max_value=3))
def test_random_recoverable_chaos_matches_serial(data, trials, workers):
    kinds = st.sampled_from([CHAOS_CRASH, CHAOS_CORRUPT, CHAOS_HANG])
    afflicted = data.draw(st.sets(
        st.integers(min_value=0, max_value=trials - 1), max_size=trials))
    plan = ChaosPlan(faults=tuple(
        ChaosFault(index=i, kind=data.draw(kinds, label=f"kind[{i}]"),
                   hang_s=60.0)
        for i in sorted(afflicted)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        serial_journal = Path(tmp) / "serial.json"
        chaos_journal = Path(tmp) / "chaos.json"
        serial = _robust_run_n(SerialExecutor(), trials, serial_journal)
        # max_task_retries must exceed the worst collateral a single task
        # can absorb: its own planned fault plus being an innocent
        # casualty of every other cohort member's pool break.
        executor = ChaosExecutor(
            workers, plan, task_timeout_s=0.5,
            max_task_retries=len(plan.faults) + 1)
        chaotic = _robust_run_n(executor, trials, chaos_journal)
        assert executor.supervision.quarantined == []
        assert serial_journal.read_bytes() == chaos_journal.read_bytes()
        assert str(serial.summary()) == str(chaotic.summary())


def _robust_run_n(executor, trials: int, journal: Path):
    runner = RobustTrialRunner(trials=trials, experiment="chaosprop",
                               max_attempts=2, journal_path=journal,
                               executor=executor)
    return runner.run(seeded_value)


# -- quarantine classification in the runner --------------------------------

def test_runner_classifies_quarantined_trials(tmp_path):
    journal = tmp_path / "quarantine.json"
    # Retries must outlast collateral: each of the poisoned trial's
    # crashes breaks the pool, and under load an innocent co-resident
    # trial can burn a retry per break.  With max_task_retries=3 the
    # poisoned trial still exhausts its attempts (the plan faults every
    # dispatch) while innocents survive the worst-case collateral.
    executor = ChaosExecutor(2, poison_plan(1, CHAOS_CRASH),
                             max_task_retries=3)
    runner = RobustTrialRunner(trials=4, experiment="qclass",
                               journal_path=journal, executor=executor)
    report = runner.run(seeded_value)
    assert report.quarantined == 1
    assert report.completed == 3
    assert report.failure_counts() == {TRIAL_CRASH: 1}
    bad = next(r for r in report.records if not r.ok)
    assert bad.trial == 1
    assert "quarantined" in bad.error and "worker_crash" in bad.error
    # The journal row is an ordinary failure row: resume re-runs it.
    rows = json.loads(journal.read_text())["records"]
    assert [r["status"] for r in rows] == ["ok", TRIAL_CRASH, "ok", "ok"]
    resumed = RobustTrialRunner(trials=4, experiment="qclass",
                                journal_path=journal,
                                executor=SerialExecutor())
    healed = resumed.run(seeded_value, resume=True)
    assert healed.resumed == 3
    assert healed.completed == 4


def test_runner_taxonomy_mapping_for_hang_and_error(tmp_path):
    # The timeout must outlast the healthy trial on a loaded host and
    # still reclaim the poisoned one, which hangs for 60 s.
    hang = ChaosExecutor(2, poison_plan(0, CHAOS_HANG),
                         task_timeout_s=3.0, max_task_retries=0)
    report = RobustTrialRunner(trials=2, experiment="qmap",
                               executor=hang).run(seeded_value)
    assert report.failure_counts() == {TRIAL_TIMEOUT: 1}
    corrupt = ChaosExecutor(2, poison_plan(0, CHAOS_CORRUPT),
                            max_task_retries=0)
    report = RobustTrialRunner(trials=2, experiment="qmap",
                               executor=corrupt).run(seeded_value)
    assert report.failure_counts() == {TRIAL_ERROR: 1}


@pytest.mark.parametrize("kind", [CHAOS_CRASH, CHAOS_CORRUPT, CHAOS_HANG])
def test_quarantined_trial_journal_is_byte_identical_across_runs(tmp_path,
                                                                 kind):
    # The supervisor's fault message becomes the journaled `error` of a
    # quarantined trial, so it must carry nothing host-side (no watchdog
    # clock, no pid): two runs of one plan journal the same bytes.  The
    # only trial is the poisoned one, so no healthy trial can race the
    # hang timeout or be charged for a crash it did not cause.
    journals = []
    for run in range(2):
        journal = tmp_path / f"run{run}.json"
        executor = ChaosExecutor(
            2, poison_plan(0, kind),
            task_timeout_s=0.3 if kind == CHAOS_HANG else None,
            max_task_retries=1)
        report = RobustTrialRunner(trials=1, experiment="qjournal",
                                   journal_path=journal,
                                   executor=executor).run(seeded_value)
        assert report.quarantined == 1
        journals.append(journal.read_bytes())
    assert journals[0] == journals[1]


# -- signal handling --------------------------------------------------------

def test_signal_handlers_are_restored_after_a_run():
    before = (signal.getsignal(signal.SIGINT),
              signal.getsignal(signal.SIGTERM))
    SupervisedExecutor(2).map(square, list(range(4)))
    after = (signal.getsignal(signal.SIGINT),
             signal.getsignal(signal.SIGTERM))
    assert before == after


def test_kill_pool_ends_a_blocked_worker_that_inherited_the_drain_handler():
    # Workers are forked while the drain handler is installed, so a
    # SIGTERM only counts a signal in the worker's copy of the executor;
    # killing the pool must still end a worker blocked in its task.
    executor = SupervisedExecutor(1)
    previous = executor._install_handlers()
    workers = []
    try:
        pool = executor._new_pool(1)
        pool.submit(time.sleep, 20)
        workers = list(pool._processes.values())
        executor._kill_pool(pool)
        for worker in workers:
            for _ in range(60):
                if _reaped(worker):
                    break
                worker.join(0.05)
        assert workers and all(_reaped(w) for w in workers)
    finally:
        executor._restore_handlers(previous)
        # A surviving worker would keep the test process from exiting.
        for worker in workers:
            if not _reaped(worker):
                worker.kill()
                worker.join(3)


def _reaped(worker) -> bool:
    """Whether ``worker`` has exited and been reaped.

    The pool's own thread joins its workers too, and the process object
    of a worker reaped there can keep reporting no exit code, so a gone
    pid counts as well.
    """
    if worker.exitcode is not None:
        return True
    try:
        os.kill(worker.pid, 0)
    except ProcessLookupError:
        return True
    return False


_SIGINT_DRIVER = """
import json, os, signal, sys, time
sys.path.insert(0, {src!r})
from repro.core.experiments import RobustTrialRunner
from repro.parallel import SupervisedExecutor

def slow_seeded(seed):
    time.sleep(0.15)
    from repro.core.background import make_rng
    return make_rng(seed).uniform(1.0, 2.0)

def main():
    journal = sys.argv[1]
    runner = RobustTrialRunner(trials=10, experiment="sigdrain",
                               journal_path=journal,
                               executor=SupervisedExecutor(2))
    # Deliver SIGINT to ourselves once the run is mid-flight.
    pid = os.fork()
    if pid == 0:
        time.sleep(0.6)
        os.kill(os.getppid(), signal.SIGINT)
        os._exit(0)
    try:
        runner.run(slow_seeded)
    except KeyboardInterrupt:
        os.waitpid(pid, 0)
        sys.exit(130)
    os.waitpid(pid, 0)
    sys.exit(0)

main()
"""


def test_sigint_drains_journal_and_resume_converges(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    journal = tmp_path / "sigdrain.json"
    proc = subprocess.run(
        [sys.executable, "-c", _SIGINT_DRIVER.format(src=src),
         str(journal)],
        timeout=120, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        pytest.skip("run finished before the signal landed (slow host)")
    assert proc.returncode == 130, proc.stderr
    # The drain flushed a valid journal with partial progress.
    payload = json.loads(journal.read_text())
    done_before = len(payload["records"])
    assert 0 < done_before < 10
    # Resume completes the sweep and converges to the serial journal.
    from repro.parallel import SerialExecutor as _Serial

    resumed = RobustTrialRunner(trials=10, experiment="sigdrain",
                                journal_path=journal,
                                executor=_Serial())
    report = resumed.run(_slow_seeded, resume=True)
    assert report.resumed == done_before
    assert report.completed == 10
    reference = tmp_path / "reference.json"
    RobustTrialRunner(trials=10, experiment="sigdrain",
                      journal_path=reference,
                      executor=_Serial()).run(_slow_seeded)
    assert journal.read_bytes() == reference.read_bytes()


def _slow_seeded(seed: int) -> float:
    # Mirror of the subprocess driver's trial fn (sans sleep: resume
    # correctness only needs value equality, which depends on seed alone).
    return make_rng(seed).uniform(1.0, 2.0)
