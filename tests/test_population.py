"""Population fleet simulation: sampler, aggregator, and runner contracts.

The load-bearing guarantees, in test order:

* config validation rejects every malformed knob with a clear message;
* the session sampler is a pure function of ``(config, index)``;
* ``StreamingStat`` matches :func:`repro.analysis.stats.summarize` on
  any ordering of any value stream (hypothesis);
* the fleet runner's aggregate JSON is byte-identical across worker
  counts, under injected chaos, and across cold/warm cache runs, while
  its in-memory state stays O(tiers × metrics × buckets);
* one runner derives its sweep cache key once and reuses it while its
  config and corpus objects are unchanged, yet keys every session.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import cdf_points, summarize
from repro.cache import TrialCache, TrialKeyer
from repro.obs.runlog import RunLog
from repro.parallel import get_executor
from repro.parallel.chaos import (
    CHAOS_CRASH,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
)
from repro.population import (
    ALL_TIER,
    DEFAULT_WORKLOAD_MIX,
    FleetAggregator,
    FleetRunner,
    METRIC_BUCKETS,
    PopulationConfig,
    SessionSampler,
    StreamingStat,
    WORKLOAD_METRICS,
    WORKLOADS,
    default_market,
)
from repro.population.fleet import _SESSION_CODEC, _SessionTask

finite = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
streams = st.lists(finite, min_size=1, max_size=60)

#: Small-but-real fleet shape shared by the runner tests.
SMALL = dict(sessions=10, n_pages=2, video_s=8.0, call_s=5.0)


def small_config(seed: int = 3) -> PopulationConfig:
    return PopulationConfig(seed=seed, **SMALL)


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize("kwargs", (
    dict(sessions=0),
    dict(seed=-1),
    dict(n_pages=0),
    dict(video_s=0.0),
    dict(call_s=-1.0),
    dict(tiers=()),
    dict(workload_mix=()),
    dict(workload_mix=(("web", 0.5), ("carrier-pigeon", 0.5))),
    dict(workload_mix=(("web", 0.0),)),
    dict(networks=()),
))
def test_config_rejects_malformed_knobs(kwargs):
    with pytest.raises(ValueError):
        PopulationConfig(**kwargs)


def test_config_rejects_duplicate_tier_names():
    tier = default_market()[0]
    with pytest.raises(ValueError):
        PopulationConfig(tiers=(tier, tier))


def test_experiment_name_binds_the_seed():
    assert PopulationConfig(seed=7).experiment == "population@7"


def test_default_market_shape():
    tiers = default_market()
    assert [t.name for t in tiers] == ["low", "mid", "high", "legacy"]
    assert all(t.share > 0 and t.devices for t in tiers)
    assert ALL_TIER not in {t.name for t in tiers}


# -- sampler ------------------------------------------------------------------


def test_sampler_is_deterministic():
    config = small_config()
    first = [SessionSampler(config).sample(i) for i in range(config.sessions)]
    second = [SessionSampler(config).sample(i) for i in range(config.sessions)]
    assert first == second


def test_sampler_draws_from_the_configured_market():
    config = small_config()
    tiers = {t.name: t for t in config.tiers}
    networks = {n.name for n in config.networks}
    for index in range(config.sessions):
        spec = SessionSampler(config).sample(index)
        assert spec.index == index
        assert spec.workload in WORKLOADS
        assert spec.network in networks
        assert spec.device in tiers[spec.tier].devices
        assert 0 <= spec.page_index < config.n_pages


def test_sampler_seed_namespaces_are_per_workload():
    config = small_config()
    specs = [SessionSampler(config).sample(i) for i in range(config.sessions)]
    # Sim seeds must be unique per session — shared seeds would correlate
    # sessions that the model treats as independent users.
    assert len({s.seed for s in specs}) == len(specs)


def test_sampler_rejects_out_of_range_index():
    sampler = SessionSampler(small_config())
    with pytest.raises(ValueError):
        sampler.sample(SMALL["sessions"])
    with pytest.raises(ValueError):
        sampler.sample(-1)


def test_sampler_seed_changes_the_mix():
    a = [SessionSampler(small_config(seed=1)).sample(i) for i in range(10)]
    b = [SessionSampler(small_config(seed=2)).sample(i) for i in range(10)]
    assert a != b


# -- StreamingStat equivalence (hypothesis) -----------------------------------


@given(streams, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_streaming_stat_matches_batch_summarize(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    stat = StreamingStat()
    for value in shuffled:
        stat.add(value)
    batch = summarize(values)
    assert stat.count == batch.n
    assert stat.minimum == batch.minimum
    assert stat.maximum == batch.maximum
    assert math.isclose(stat.mean, batch.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(stat.stdev, batch.stdev, rel_tol=1e-6, abs_tol=1e-9)


def test_streaming_stat_empty_stream_renders_zeros():
    assert StreamingStat().as_dict() == {
        "n": 0, "mean": 0.0, "stdev": 0.0, "min": 0.0, "max": 0.0}


# -- aggregator ----------------------------------------------------------------


def observe_values(aggregator: FleetAggregator, values, *, tier="mid",
                   workload="web", metric="plt_s"):
    for value in values:
        aggregator.observe(tier=tier, workload=workload, network="wifi",
                           status="ok", metrics={metric: value})


@given(streams, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_aggregator_series_matches_batch_summarize(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    aggregator = FleetAggregator()
    observe_values(aggregator, shuffled)
    entry = aggregator.snapshot()["series"]["web"]["plt_s"][ALL_TIER]
    batch = summarize(values)
    assert entry["n"] == batch.n
    assert entry["min"] == batch.minimum
    assert entry["max"] == batch.maximum
    assert math.isclose(entry["mean"], batch.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert entry["hist"]["count"] == len(values)


def test_aggregator_counts_failures_without_metrics():
    aggregator = FleetAggregator()
    aggregator.observe(tier="low", workload="web", network="lte",
                       status="crash", metrics={})
    aggregator.observe(tier="low", workload="web", network="lte",
                       status="ok", metrics={"plt_s": 1.0})
    snap = aggregator.snapshot()
    assert snap["sessions"] == 2
    assert snap["completed"] == 1
    assert snap["failures"] == {"crash": 1}
    assert snap["mix"]["tiers"] == {"low": 2}
    assert snap["series"]["web"]["plt_s"][ALL_TIER]["n"] == 1


def test_aggregator_rejects_unknown_metric():
    with pytest.raises(ValueError):
        FleetAggregator().observe(tier="low", workload="web", network="lte",
                                  status="ok", metrics={"qoe_magic": 1.0})


def test_workload_metric_tables_are_consistent():
    assert set(WORKLOAD_METRICS) == set(WORKLOADS)
    assert set(WORKLOADS) == {name for name, _ in DEFAULT_WORKLOAD_MIX}
    for metrics in WORKLOAD_METRICS.values():
        for metric in metrics:
            bounds = METRIC_BUCKETS[metric]
            assert list(bounds) == sorted(bounds)


# -- fleet runner --------------------------------------------------------------


def test_fleet_runner_small_run_accounts_for_every_session():
    report = FleetRunner(small_config()).run()
    assert report.sessions == SMALL["sessions"]
    assert report.completed + sum(report.failures.values()) == report.sessions
    mix = report.aggregate["mix"]
    assert sum(mix["tiers"].values()) == report.sessions
    assert sum(mix["workloads"].values()) == report.sessions
    assert sum(mix["networks"].values()) == report.sessions


def test_fleet_runner_emits_runlog_lifecycle(tmp_path):
    path = tmp_path / "run.jsonl"
    runlog = RunLog(path)
    FleetRunner(small_config(), runlog=runlog).run()
    runlog.close()
    events = [json.loads(line) for line in
              path.read_text().strip().splitlines()]
    assert events[0]["event"] == "run_start"
    assert events[0]["experiment"] == "population@3"
    assert events[0]["trials"] == SMALL["sessions"]
    assert events[-1]["event"] == "run_end"
    completions = [e for e in events if e["event"] == "trial_complete"]
    assert sorted(e["trial"] for e in completions) == \
        list(range(SMALL["sessions"]))


def test_fleet_runner_jobs2_aggregate_is_byte_identical():
    serial = FleetRunner(small_config()).run().to_json()
    parallel = FleetRunner(small_config(),
                           executor=get_executor(2)).run().to_json()
    assert parallel == serial


def test_fleet_runner_chaos_crash_retry_is_byte_identical():
    # Attempt-0 faults are retry-recoverable: the re-dispatched session
    # recomputes the same pure function of its index.
    serial = FleetRunner(small_config()).run().to_json()
    plan = ChaosPlan(faults=(ChaosFault(index=1, kind=CHAOS_CRASH),))
    executor = ChaosExecutor(2, plan)
    chaotic = FleetRunner(small_config(), executor=executor).run()
    assert chaotic.quarantined == 0
    assert chaotic.to_json() == serial


def test_fleet_runner_quarantine_keeps_accounting_complete():
    # Faulting one session on every dispatch attempt exhausts its
    # retries; the fleet absorbs it as a failure, never an exception.
    # (Each crash also breaks the pool, so a co-resident session can
    # burn retries as collateral — the count is >= 1, not == 1.)
    plan = ChaosPlan(faults=tuple(
        ChaosFault(index=2, kind=CHAOS_CRASH, attempt=a) for a in range(10)))
    executor = ChaosExecutor(2, plan)
    report = FleetRunner(small_config(), executor=executor).run()
    assert report.quarantined >= 1
    assert any(q.index == 2 for q in executor.supervision.quarantined)
    assert report.sessions == SMALL["sessions"]
    assert report.completed + sum(report.failures.values()) == report.sessions
    assert sum(report.aggregate["mix"]["tiers"].values()) == report.sessions


def test_fleet_runner_warm_cache_replays_byte_identically(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    cold = FleetRunner(small_config(), cache=cache).run().to_json()
    warm_cache = TrialCache(tmp_path / "cache")
    warm = FleetRunner(small_config(), cache=warm_cache).run().to_json()
    assert warm == cold
    assert warm_cache.stats.hits == SMALL["sessions"]
    assert warm_cache.stats.misses == 0


def test_half_warm_cache_prints_the_cold_aggregate(tmp_path):
    # Welford sums depend on fold order, so replayed and executed
    # sessions must fold in one order: plain session index.  A half-warm
    # cache is what rerunning an interrupted `--cache` run meets.
    config = PopulationConfig(sessions=60, seed=5)
    cache = TrialCache(tmp_path / "cache")
    cold = FleetRunner(config, cache=cache).run().to_json()
    for entry in list(cache.iter_entries())[::2]:
        entry.unlink()
    half = TrialCache(tmp_path / "cache")
    assert FleetRunner(config, cache=half).run().to_json() == cold
    assert half.stats.hits == 30 and half.stats.misses == 30


@pytest.fixture(scope="module")
def filled_fleet_cache(tmp_path_factory):
    """A cache holding every session of ``small_config()``; read-only."""
    root = tmp_path_factory.mktemp("fleet-cache")
    FleetRunner(small_config(), cache=TrialCache(root)).run()
    return root


@pytest.fixture
def fleet_cache(filled_fleet_cache, tmp_path):
    """A private copy of the filled cache: a test's misses store here."""
    return shutil.copytree(filled_fleet_cache, tmp_path / "fleet-cache")


def _changed_page(runner: FleetRunner) -> None:
    first = runner.corpus[0]
    runner.corpus = (dataclasses.replace(
        first, layout_ops=first.layout_ops * 2), *runner.corpus[1:])


@pytest.mark.parametrize("config, edit, hits", (
    (small_config(), None, SMALL["sessions"]),
    (small_config(), _changed_page, 0),
    (dataclasses.replace(small_config(), call_s=SMALL["call_s"] + 1.0),
     None, 0),
), ids=("unchanged", "corpus-page", "config-field"))
def test_warm_fleet_cache_misses_every_session_a_key_input_changes(
        fleet_cache, config, edit, hits):
    # The session task's config and corpus are its key parameters: one
    # changed page or field must re-run every session, nothing changed
    # must replay every session.
    cache = TrialCache(fleet_cache)
    runner = FleetRunner(config, cache=cache)
    if edit is not None:
        edit(runner)
    runner.run()
    assert cache.stats.hits == hits
    assert cache.stats.misses == SMALL["sessions"] - hits


@pytest.fixture
def counted_keying(monkeypatch):
    """Counts ``TrialKeyer.create`` calls and records every trial key."""
    create, key = TrialKeyer.create, TrialKeyer.key
    counts = {"create": 0, "keys": []}

    def counting_create(*args, **kwargs):
        counts["create"] += 1
        return create(*args, **kwargs)

    def recording_key(self, trial, item):
        digest = key(self, trial, item)
        counts["keys"].append((trial, item, digest))
        return digest

    monkeypatch.setattr(TrialKeyer, "create", counting_create)
    monkeypatch.setattr(TrialKeyer, "key", recording_key)
    return counts


def test_fleet_runner_derives_its_key_once_across_reruns(
        fleet_cache, counted_keying):
    runner = FleetRunner(small_config())
    outputs = []
    for _ in range(3):
        cache = runner.cache = TrialCache(fleet_cache)
        outputs.append(runner.run().to_json())
        assert cache.stats.hits == SMALL["sessions"]
        assert cache.stats.misses == 0
    assert counted_keying["create"] == 1
    assert outputs[0] == outputs[1] == outputs[2]
    # Every session is still keyed on every run, with the key a fresh
    # derivation over an equal (not identical) task gives.
    keys = list(counted_keying["keys"])
    assert len(keys) == 3 * SMALL["sessions"]
    fresh = TrialKeyer.create(
        TrialCache(fleet_cache),
        _SessionTask(dataclasses.replace(runner.config), runner.corpus),
        experiment=runner.config.experiment, codec=_SESSION_CODEC)
    for trial, item, digest in keys:
        assert digest == fresh.key(trial, item)


def _changed_config(runner: FleetRunner) -> None:
    runner.config = dataclasses.replace(
        runner.config, call_s=SMALL["call_s"] + 1.0)


def _copied_config(runner: FleetRunner) -> None:
    runner.config = dataclasses.replace(runner.config)


@pytest.mark.parametrize("edit, hits", (
    (_changed_page, 0),
    (_changed_config, 0),
    (_copied_config, SMALL["sessions"]),
), ids=("corpus-page", "config-field", "config-copy"))
def test_reassigned_key_input_rederives_the_key_of_a_run_runner(
        counted_keying, fleet_cache, edit, hits):
    runner = FleetRunner(small_config(), cache=TrialCache(fleet_cache))
    runner.run()
    edit(runner)
    cache = runner.cache = TrialCache(fleet_cache)
    runner.run()
    assert counted_keying["create"] == 2
    assert cache.stats.hits == hits
    assert cache.stats.misses == SMALL["sessions"] - hits


def test_uncached_run_then_cached_run_keys_and_hits(fleet_cache,
                                                    counted_keying):
    runner = FleetRunner(small_config())
    runner.run()
    cache = runner.cache = TrialCache(fleet_cache)
    runner.run()
    assert len(counted_keying["keys"]) == SMALL["sessions"]
    assert cache.stats.hits == SMALL["sessions"]


def test_shared_fleet_cache_holds_only_the_filled_sessions(
        filled_fleet_cache):
    # Runs after every test above that could store a miss: they all
    # work on copies, so test order cannot change what this cache holds.
    assert TrialCache(filled_fleet_cache).entry_count() == SMALL["sessions"]


def test_uncacheable_fleet_task_counts_once_per_run(tmp_path):
    config = dataclasses.replace(small_config(), sessions=2)
    cache = TrialCache(tmp_path)
    runner = FleetRunner(config, cache=cache)
    runner.corpus = (*runner.corpus, object())
    for runs in (1, 2):
        runner.run()
        assert cache.stats.uncacheable == runs
        assert cache.stats.lookups == 0


def test_aggregate_state_is_independent_of_session_count():
    shapes = []
    for sessions in (8, 16):
        config = PopulationConfig(seed=3, sessions=sessions, n_pages=2,
                                  video_s=8.0, call_s=5.0)
        runner = FleetRunner(config)
        aggregator = FleetAggregator()
        sampler = SessionSampler(config)
        from repro.population.fleet import run_session
        for index in range(sessions):
            result = run_session(config, runner.corpus,
                                 sampler.sample(index))
            aggregator.observe(tier=result.tier, workload=result.workload,
                               network=result.network, status=result.status,
                               metrics=result.metrics)
        shapes.append(len(aggregator._series))
    # Doubling the fleet grows counts, never the number of live series.
    assert shapes[0] >= 1
    assert shapes[1] <= len(WORKLOADS) * 2 * (len(default_market()) + 1)
    assert abs(shapes[1] - shapes[0]) <= 4


def test_report_quantiles_read_the_histograms():
    report = FleetRunner(small_config()).run()
    for workload, metrics in WORKLOAD_METRICS.items():
        for metric in metrics:
            entry = report.series(workload, metric).get(ALL_TIER)
            if entry is None:
                continue
            p50 = report.quantile(workload, metric, 0.5)
            p99 = report.quantile(workload, metric, 0.99)
            assert p50 <= p99


def test_histogram_cdf_matches_empirical_cdf_at_bucket_bounds():
    values = [0.3, 0.7, 1.2, 1.2, 2.5, 9.0]
    aggregator = FleetAggregator()
    observe_values(aggregator, values)
    entry = aggregator.snapshot()["series"]["web"]["plt_s"][ALL_TIER]
    finite = sorted(float(label)
                    for label in entry["hist"]["buckets"]
                    if label != "+Inf")
    empirical = cdf_points(values)

    def empirical_at(bound: float) -> float:
        best = 0.0
        for value, prob in empirical:
            if value <= bound:
                best = prob
        return best

    cumulative = 0
    for bound in finite:
        cumulative += entry["hist"]["buckets"][f"{bound:g}"]
        assert cumulative / len(values) == pytest.approx(empirical_at(bound))
