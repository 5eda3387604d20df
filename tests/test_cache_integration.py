"""End-to-end cache determinism: cold and warm runs are byte-identical.

The acceptance contract for the result cache is replay, not
approximation: a warm run must produce the same journal bytes, the same
deterministic runlog view, and the same figure stdout as the cold run
that populated the cache — at any ``--jobs`` value — with a 100% hit
ratio.  Cache traffic itself is host-only observability and must never
leak into any compared artifact.
"""

from __future__ import annotations

import json

from repro.cache import TrialCache
from repro.cli import main
from repro.core.experiments import RobustTrialRunner, derive_seed
from repro.obs.runlog import RunLog, deterministic_bytes, read_runlog


def seeded_trial(seed: int) -> float:
    return (seed % 97) / 97.0


def flaky_trial(seed: int) -> float:
    if seed % 2 == 0:
        raise RuntimeError("boom")
    return float(seed)


def record_facets(report):
    """The deterministic face of a run report (host wall time excluded)."""
    return [(r.trial, r.seed, r.status, r.value, r.error, r.attempts)
            for r in report.records]


def run_robust(tmp_path, tag, cache, trials=4):
    journal = tmp_path / f"journal_{tag}.json"
    runlog_path = tmp_path / f"run_{tag}.jsonl"
    with RunLog(runlog_path) as runlog:
        runner = RobustTrialRunner(trials=trials, experiment="exp",
                                   journal_path=journal, runlog=runlog,
                                   cache=cache)
        values = runner.run(seeded_trial)
    return values, journal.read_bytes(), read_runlog(runlog_path)


def test_cold_and_warm_robust_runs_are_byte_identical(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    cold_values, cold_journal, cold_events = run_robust(tmp_path, "cold",
                                                        cache)
    assert (cache.stats.hits, cache.stats.misses) == (0, 4)
    assert cache.stats.stores == 4

    warm_cache = TrialCache(tmp_path / "cache")
    warm_values, warm_journal, warm_events = run_robust(tmp_path, "warm",
                                                        warm_cache)
    assert record_facets(warm_values) == record_facets(cold_values)
    assert warm_journal == cold_journal
    assert warm_cache.stats.hit_ratio == 1.0
    # Host-only traffic differs (cache events, wall times); the
    # deterministic view must not.
    assert (deterministic_bytes(warm_events)
            == deterministic_bytes(cold_events))
    kinds = [e["event"] for e in warm_events]
    assert kinds.count("cache_hit") == 4
    assert "task_dispatch" not in kinds  # nothing reached the executor


def test_warm_run_replays_trial_complete_with_zero_wall(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    run_robust(tmp_path, "cold", cache)
    _, _, events = run_robust(tmp_path, "warm",
                              TrialCache(tmp_path / "cache"))
    completes = [e for e in events if e["event"] == "trial_complete"]
    assert len(completes) == 4
    assert all(e["host"] == {"wall_s": 0.0} for e in completes)
    assert all(e["status"] == "ok" for e in completes)


def test_failed_trials_are_never_cached(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    journal = tmp_path / "journal.json"
    runner = RobustTrialRunner(trials=4, experiment="exp", max_attempts=1,
                               journal_path=journal, cache=cache)
    runner.run(flaky_trial)
    rows = json.loads(journal.read_text())["records"]
    failed = sum(1 for r in rows if r["status"] != "ok")
    assert failed > 0
    assert cache.entry_count() == 4 - failed  # only ok rows stored
    # A warm run re-executes exactly the failed trials.
    warm = TrialCache(tmp_path / "cache")
    RobustTrialRunner(trials=4, experiment="exp", max_attempts=1,
                      journal_path=tmp_path / "j2.json",
                      cache=warm).run(flaky_trial)
    assert warm.stats.hits == 4 - failed
    assert warm.stats.misses == failed


def test_trial_runner_uses_the_cache_for_plain_sweeps(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    cold = RobustTrialRunner(trials=3, experiment="exp", cache=cache).run(
        seeded_trial).values
    assert cache.stats.stores == 3
    warm_cache = TrialCache(tmp_path / "cache")
    warm = RobustTrialRunner(trials=3, experiment="exp",
                             cache=warm_cache).run(seeded_trial).values
    assert warm == cold
    assert warm_cache.stats.hit_ratio == 1.0


def test_trial_index_and_seed_both_guard_the_key(tmp_path):
    # Two experiments share trial indices but derive different seeds;
    # their entries must not collide.
    cache = TrialCache(tmp_path / "cache")
    a = RobustTrialRunner(trials=2, experiment="a",
                          cache=cache).run(seeded_trial).values
    b = RobustTrialRunner(trials=2, experiment="b",
                          cache=cache).run(seeded_trial).values
    assert cache.stats.hits == 0 and cache.stats.misses == 4
    assert a == [seeded_trial(derive_seed("a", t)) for t in range(2)]
    assert b == [seeded_trial(derive_seed("b", t)) for t in range(2)]


# -- the CLI round trip ------------------------------------------------------

FAST = ["fig3a", "--trials", "1", "--pages", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_cache_round_trip_is_deterministic(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    code, cold_out, cold_err = run_cli(
        capsys, FAST + ["--cache", cache_dir,
                        "--journal", str(tmp_path / "j1")])
    assert code == 0
    assert " 0 hits, " in cold_err and " stores" in cold_err

    code, warm_out, warm_err = run_cli(
        capsys, FAST + ["--cache", cache_dir,
                        "--journal", str(tmp_path / "j2")])
    assert code == 0
    assert warm_out == cold_out
    assert "(100% hit ratio)" in warm_err
    for name in (tmp_path / "j1").glob("*.json"):
        assert name.read_bytes() == (tmp_path / "j2" / name.name).read_bytes()


def test_cli_cache_env_var_is_the_flag_default(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
    code, _, err = run_cli(capsys, FAST)
    assert code == 0
    assert "cache:" in err
    assert (tmp_path / "envcache" / "repro-cache.json").exists()


def test_cli_without_cache_prints_no_cache_line(tmp_path, capsys):
    code, _, err = run_cli(capsys, FAST)
    assert code == 0
    assert "cache:" not in err


def test_cache_subcommand_stats_gc_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert run_cli(capsys, FAST + ["--cache", cache_dir])[0] == 0

    code, out, _ = run_cli(capsys, ["cache", "stats", cache_dir])
    assert code == 0
    assert "entries" in out and "fig3a" in out

    code, out, _ = run_cli(capsys, ["cache", "gc", cache_dir,
                                    "--max-bytes", "0"])
    assert code == 0
    assert "removed" in out

    assert run_cli(capsys, FAST + ["--cache", cache_dir])[0] == 0
    code, out, _ = run_cli(capsys, ["cache", "clear", cache_dir])
    assert code == 0
    assert "removed" in out


def test_cache_subcommand_error_paths(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["cache", "stats"])
    assert code == 2
    assert "error: no cache directory" in err
    code, _, err = run_cli(capsys, ["cache", "gc", str(tmp_path)])
    assert code == 2  # gc needs at least one criterion
    code, _, err = run_cli(capsys, ["cache", "clear", str(tmp_path)])
    assert code == 2  # unmarked directory refused
    assert "repro-cache" in err
