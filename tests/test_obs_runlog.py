"""Run-level event log: writer behavior, runner/supervisor emission,
and the same-seed determinism contract."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.background import make_rng
from repro.core.experiments import RobustTrialRunner
from repro.obs.runlog import (
    HOST_EVENTS,
    NULL_RUNLOG,
    NullRunLog,
    RUNLOG_VERSION,
    RunLog,
    deterministic_bytes,
    deterministic_events,
    read_runlog,
    runlog_of,
    snapshot_digest,
)
from repro.parallel.chaos import (
    CHAOS_CRASH,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
)
from repro.sim import Environment, Interrupt


def seeded_trial(seed: int) -> float:
    return make_rng(seed).uniform(1.0, 2.0)


def crashy_trial(seed: int) -> float:
    rng = make_rng(seed)
    if rng.random() < 0.4:
        raise Interrupt("fault:crash")
    return rng.uniform(1.0, 2.0)


def kernel_trial(seed: int) -> float:
    env = Environment()
    rng = make_rng(seed)

    def spin():
        for _ in range(20):
            yield env.timeout(rng.uniform(0.1, 1.0))

    env.run(env.process(spin()))
    return env.now


# -- writer behavior --------------------------------------------------------

def test_runlog_writes_canonical_sorted_compact_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLog(path) as runlog:
        runlog.emit("run_start", trials=2, experiment="x")
        runlog.emit("trial_complete", trial=0, status="ok",
                    host={"wall_s": 0.5})
    lines = path.read_text().splitlines()
    assert lines[0] == '{"event":"run_start","experiment":"x","trials":2}'
    assert lines[1] == ('{"event":"trial_complete","host":{"wall_s":0.5},'
                        '"status":"ok","trial":0}')


def test_runlog_appends_and_omits_empty_host(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLog(path) as runlog:
        runlog.emit("run_start")
    with RunLog(path) as runlog:
        runlog.emit("run_end", host=None)
        runlog.emit("signal_drain", host={})
    events = read_runlog(path)
    assert [e["event"] for e in events] == ["run_start", "run_end",
                                            "signal_drain"]
    assert all("host" not in e for e in events)


def test_pathless_runlog_feeds_listeners_only(tmp_path):
    seen = []
    runlog = RunLog(listeners=[seen.append])
    runlog.emit("run_start", trials=1)
    runlog.close()
    assert seen == [{"event": "run_start", "trials": 1}]
    assert runlog.path is None
    assert list(tmp_path.iterdir()) == []


def test_null_runlog_is_inert_and_resolvable():
    NULL_RUNLOG.emit("anything", with_fields=1, host={"wall_s": 1.0})
    NULL_RUNLOG.close()
    with NULL_RUNLOG as runlog:
        assert not runlog.enabled
    assert runlog_of(object()) is NULL_RUNLOG

    class Carrier:
        runlog = NULL_RUNLOG

    assert runlog_of(Carrier()) is NULL_RUNLOG


def test_runlog_pickles_to_the_null_object(tmp_path):
    runlog = RunLog(tmp_path / "run.jsonl", listeners=[print])
    clone = pickle.loads(pickle.dumps(runlog))
    assert isinstance(clone, NullRunLog)
    runlog.emit("run_start")  # the original still writes
    runlog.close()
    assert read_runlog(tmp_path / "run.jsonl") == [{"event": "run_start"}]


def test_read_runlog_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLog(path) as runlog:
        runlog.emit("run_start", trials=3)
        runlog.emit("run_end")
    with path.open("a", encoding="utf-8") as fh:  # simlint: disable=OBS502 -- simulating a killed writer's torn line
        fh.write('{"event":"trial_co')
    events = read_runlog(path)
    assert [e["event"] for e in events] == ["run_start", "run_end"]


def test_snapshot_digest_is_short_stable_and_none_safe():
    snapshot = {"sim.steps": 10.0, "net.tx": 3.0}
    digest = snapshot_digest(snapshot)
    assert digest == snapshot_digest(dict(reversed(list(snapshot.items()))))
    assert len(digest) == 12 and int(digest, 16) >= 0
    assert snapshot_digest({"sim.steps": 11.0}) != digest
    assert snapshot_digest(None) is None


# -- deterministic view -----------------------------------------------------

def test_deterministic_events_drop_host_events_and_host_keys():
    events = [
        {"event": "run_start", "trials": 2},
        {"event": "task_dispatch", "index": 0, "attempt": 0},
        {"event": "trial_complete", "trial": 0, "host": {"wall_s": 1.0}},
        {"event": "pool_rebuild", "workers": 2},
        {"event": "run_end", "completed": 2},
    ]
    view = deterministic_events(events)
    assert [e["event"] for e in view] == ["run_start", "trial_complete",
                                          "run_end"]
    assert all("host" not in e for e in view)
    # The input events are untouched (copies, not mutation).
    assert "host" in events[2]


def test_host_events_is_the_closed_supervisor_set():
    assert HOST_EVENTS == {"task_dispatch", "task_complete", "task_retry",
                           "pool_rebuild", "hang_reclaim", "quarantine",
                           "signal_drain", "cache_hit", "cache_miss",
                           "cache_store"}
    assert deterministic_bytes([{"event": e} for e in HOST_EVENTS]) == b""


# -- runner emission --------------------------------------------------------

def run_robust(tmp_path, label, trial_fn=seeded_trial, trials=4,
               runlog_name=None, journal_name=None, executor=None):
    runlog = (RunLog(tmp_path / runlog_name) if runlog_name else None)
    runner = RobustTrialRunner(
        trials=trials, experiment="runlog-test", max_attempts=2,
        journal_path=(tmp_path / journal_name) if journal_name else None,
        executor=executor, runlog=runlog)
    report = runner.run(trial_fn)
    if runlog is not None:
        runlog.close()
    return report


def test_robust_runner_emits_start_completions_end(tmp_path):
    report = run_robust(tmp_path, "a", runlog_name="run.jsonl")
    events = read_runlog(tmp_path / "run.jsonl")
    assert events[0]["event"] == "run_start"
    assert events[0]["experiment"] == "runlog-test"
    assert events[0]["trials"] == 4 and events[0]["pending"] == 4
    assert events[0]["runlog_version"] == RUNLOG_VERSION
    assert set(events[0]["config"]) == {"jobs", "max_attempts"}
    completions = [e for e in events if e["event"] == "trial_complete"]
    assert [e["trial"] for e in completions] == [0, 1, 2, 3]
    assert all(e["host"]["wall_s"] >= 0.0 for e in completions)
    assert all(e["status"] == "ok" for e in completions)
    assert events[-1] == {"event": "run_end", "completed": report.completed,
                          "failures": 0, "quarantined": 0}


def test_failed_trials_are_logged_with_status_and_error(tmp_path):
    run_robust(tmp_path, "a", trial_fn=crashy_trial, trials=10,
               runlog_name="run.jsonl")
    events = read_runlog(tmp_path / "run.jsonl")
    completions = [e for e in events if e["event"] == "trial_complete"]
    failed = [e for e in completions if e["status"] != "ok"]
    assert failed, "0.4 crash rate over 10 trials must fail at least once"
    assert all(e["error"] for e in failed)
    assert events[-1]["failures"] == len(failed)


def test_resumed_run_logs_resumed_and_pending_counts(tmp_path):
    # First pass journals 10 trials at a ~40% crash rate; the resume
    # re-runs only the failed ones, so resumed + pending partition 10.
    first = run_robust(tmp_path, "a", trial_fn=crashy_trial, trials=10,
                       journal_name="j.json")
    assert 0 < first.completed < 10
    runlog = RunLog(tmp_path / "run.jsonl")
    runner = RobustTrialRunner(trials=10, experiment="runlog-test",
                               max_attempts=2,
                               journal_path=tmp_path / "j.json",
                               runlog=runlog)
    runner.run(crashy_trial, resume=True)
    runlog.close()
    start = read_runlog(tmp_path / "run.jsonl")[0]
    assert start["trials"] == 10
    assert start["resumed"] == first.completed
    assert start["pending"] == 10 - first.completed


def test_runlog_resolves_from_executor_attachment(tmp_path):
    from repro.parallel import SerialExecutor

    executor = SerialExecutor()
    executor.runlog = RunLog(tmp_path / "run.jsonl")
    run_robust(tmp_path, "a", executor=executor)
    executor.runlog.close()
    events = read_runlog(tmp_path / "run.jsonl")
    assert [e["event"] for e in events][:2] == ["run_start",
                                                "trial_complete"]


# -- supervisor emission ----------------------------------------------------

def test_chaos_crash_emits_dispatch_retry_and_rebuild(tmp_path):
    plan = ChaosPlan(faults=(ChaosFault(index=1, kind=CHAOS_CRASH),))
    executor = ChaosExecutor(2, plan, poll_interval_s=0.02)
    executor.runlog = RunLog(tmp_path / "run.jsonl")
    results = executor.map(seeded_trial, list(range(4)))
    executor.runlog.close()
    assert results == [seeded_trial(s) for s in range(4)]
    kinds = [e["event"] for e in read_runlog(tmp_path / "run.jsonl")]
    assert kinds.count("task_complete") == 4
    assert kinds.count("pool_rebuild") >= 1
    assert kinds.count("task_retry") >= 1
    assert kinds.count("task_dispatch") >= 5  # 4 tasks + >=1 re-dispatch
    retries = [e for e in read_runlog(tmp_path / "run.jsonl")
               if e["event"] == "task_retry"]
    # The pool break charges the whole in-flight cohort, so the planned
    # victim is among the retried indices (possibly with collateral).
    assert all(e["kind"] == "worker_crash" for e in retries)
    assert 1 in {e["index"] for e in retries}


def test_supervision_totals_accumulate_across_runs():
    plan = ChaosPlan(faults=(ChaosFault(index=0, kind=CHAOS_CRASH),))
    executor = ChaosExecutor(2, plan, poll_interval_s=0.02)
    executor.map(seeded_trial, [0, 1])
    first_retries = executor.supervision_totals.task_retries
    assert first_retries >= 1
    executor.map(seeded_trial, [0, 1])  # plan fires again on a fresh run
    assert executor.supervision_totals.task_retries > first_retries
    assert executor.last_supervision.task_retries < \
        executor.supervision_totals.task_retries


# -- determinism contract ---------------------------------------------------

def test_journal_bytes_unchanged_by_enabling_the_runlog(tmp_path):
    run_robust(tmp_path, "off", trial_fn=crashy_trial, trials=6,
               journal_name="off.json")
    run_robust(tmp_path, "on", trial_fn=crashy_trial, trials=6,
               journal_name="on.json", runlog_name="run.jsonl")
    assert (tmp_path / "off.json").read_bytes() == \
        (tmp_path / "on.json").read_bytes()


def test_parallel_runlog_matches_serial_after_host_strip_and_sort(tmp_path):
    from repro.parallel import SupervisedExecutor

    run_robust(tmp_path, "serial", trial_fn=kernel_trial,
               runlog_name="serial.jsonl")
    run_robust(tmp_path, "pooled", trial_fn=kernel_trial,
               runlog_name="pooled.jsonl",
               executor=SupervisedExecutor(2, poll_interval_s=0.02))

    def sorted_view(name):
        view = deterministic_events(read_runlog(tmp_path / name))
        # Parallel completion order is host scheduling; trial order isn't.
        view.sort(key=lambda e: (e["event"] != "run_start",
                                 e["event"] == "run_end",
                                 e.get("trial", -1)))
        return [{k: v for k, v in e.items() if k != "config"} for e in view]

    serial = sorted_view("serial.jsonl")
    pooled = sorted_view("pooled.jsonl")
    assert serial == pooled


@settings(max_examples=10, deadline=None)
@given(trials=st.integers(min_value=1, max_value=6),
       run=st.integers(min_value=0, max_value=3))
def test_same_seed_serial_runlogs_are_byte_identical(tmp_path_factory,
                                                     trials, run):
    """Property: the deterministic view of two same-seed serial runs is
    byte-identical — host wall timings are the only varying fields and
    they live under the stripped ``host`` key."""
    streams = []
    for repeat in range(2):
        base = tmp_path_factory.mktemp(f"runlog-{run}-{repeat}")
        run_robust(base, "p", trial_fn=crashy_trial, trials=trials,
                   runlog_name="run.jsonl", journal_name="j.json")
        events = read_runlog(base / "run.jsonl")
        raw = (base / "run.jsonl").read_bytes()
        assert deterministic_bytes(events) != raw  # host data was present
        streams.append(deterministic_bytes(events))
    assert streams[0] == streams[1]


def test_deterministic_bytes_round_trip_is_parseable():
    events = [{"event": "run_start", "trials": 1},
              {"event": "trial_complete", "trial": 0,
               "host": {"wall_s": 2.0}}]
    payload = deterministic_bytes(events)
    parsed = [json.loads(line) for line in payload.decode().splitlines()]
    assert parsed == deterministic_events(events)
    assert deterministic_bytes([]) == b""
