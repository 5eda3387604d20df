"""Trace export: Chrome trace_event shape, determinism, zero overhead."""

from __future__ import annotations

import json

import pytest

from repro.cache import canonicalize
from repro.core.experiments import derive_seed
from repro.core import tracing
from repro.core.tracing import experiments, resolve, run_traced_trial
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    format_histogram,
    histogram_quantile,
    install,
    metrics_json,
    text_summary,
    tracer_of,
)
from repro.sim import Environment
from repro.web import BrowserEngine
from repro.device import Device, NEXUS4
from repro.netstack import Link, LinkSpec
from repro.workloads import generate_corpus


# -- Chrome trace_event shape ----------------------------------------------

def test_chrome_events_have_metadata_swimlanes_and_sorted_data():
    env = Environment()
    tracer = Tracer(env)
    tracer.complete("b.span", "net", start=1.0, end=2.0, args={"k": 1})
    tracer.complete("a.span", "sim", start=0.0, end=0.5)
    tracer.instant("c.point", "net")
    events = chrome_trace_events(tracer, 1)

    meta = [e for e in events if e["ph"] == "M"]
    assert meta[0] == {"args": {"name": "repro simulation"},
                       "name": "process_name", "ph": "M", "pid": 1, "tid": 0}
    # One thread row per category, sorted, tids 1..n.
    assert [(e["args"]["name"], e["tid"]) for e in meta[1:]] == [
        ("net", 1), ("sim", 2)]

    data = [e for e in events if e["ph"] != "M"]
    assert [e["ts"] for e in data] == sorted(e["ts"] for e in data)
    span = next(e for e in data if e["name"] == "b.span")
    assert (span["ph"], span["ts"], span["dur"]) == ("X", 1e6, 1e6)
    assert span["args"] == {"k": 1}
    inst = next(e for e in data if e["name"] == "c.point")
    assert (inst["ph"], inst["s"], inst["ts"]) == ("i", "t", 0.0)


def test_chrome_trace_json_is_valid_and_canonical():
    env = Environment()
    tracer = Tracer(env)
    tracer.instant("x.y", "sim")
    text = chrome_trace_json([tracer])
    payload = json.loads(text)
    assert payload["displayTimeUnit"] == "ms"
    assert payload["metadata"]["clock"] == "simulated-seconds"
    assert len(payload["traceEvents"]) == 3  # process + thread meta + instant
    assert " " not in text.split('"traceEvents"')[0]  # compact separators


FIG2A = "fig2a:Google Nexus4"


@pytest.fixture(scope="module")
def fig2a_traced_envs():
    """Trial 0 of Fig 2a's Nexus 4 point (one session per corpus page)
    and the environment each of its sessions ran on."""
    envs = []

    def install_and_keep(env, **kwargs):
        envs.append(env)
        return install(env, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracing, "install", install_and_keep)
        return run_traced_trial(FIG2A, 0), envs


@pytest.fixture(scope="module")
def fig2a_trace(fig2a_traced_envs):
    return fig2a_traced_envs[0]


def test_every_session_is_its_own_process(fig2a_trace):
    events = json.loads(chrome_trace_json(fig2a_trace.tracers))["traceEvents"]
    processes = [e["pid"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
    assert processes == list(range(1, len(fig2a_trace.tracers) + 1))
    assert len(processes) == len(fig2a_trace.result) > 1
    assert {e["pid"] for e in events} == set(processes)


def test_text_summary_lists_categories_and_metrics(fig2a_trace):
    summary = text_summary(fig2a_trace.tracers, fig2a_trace.metrics)
    assert summary.startswith("trace summary:")
    assert "events:" in summary and "metrics:" in summary
    assert "sim.steps" in summary and "web.fetch_ms" in summary


# -- histogram rendering ----------------------------------------------------

def test_histogram_quantile_uses_le_bucket_bounds():
    hist = {"count": 10, "sum": 30.0,
            "buckets": {"1": 2, "5": 6, "10": 1, "+Inf": 1}}
    assert histogram_quantile(hist, 0.0) == 1.0  # smallest bucket bound
    assert histogram_quantile(hist, 0.2) == 1.0
    assert histogram_quantile(hist, 0.5) == 5.0
    assert histogram_quantile(hist, 0.9) == 10.0
    assert histogram_quantile(hist, 1.0) == float("inf")


def test_histogram_quantile_edge_cases():
    assert histogram_quantile({"count": 0, "buckets": {}}, 0.5) == 0.0
    with pytest.raises(ValueError, match="quantile must lie"):
        histogram_quantile({"count": 1, "buckets": {"+Inf": 1}}, 1.5)
    # All mass beyond the last finite bound estimates to inf.
    overflow = {"count": 3, "sum": 90.0, "buckets": {"1": 0, "+Inf": 3}}
    assert histogram_quantile(overflow, 0.5) == float("inf")


def test_format_histogram_line_is_deterministic():
    hist = {"count": 4, "sum": 10.0, "buckets": {"1": 1, "5": 2, "+Inf": 1}}
    line = format_histogram("plt.ms", hist)
    assert line == "plt.ms: n=4 sum=10.000 mean=2.500 p50<=5 p95<=+Inf"
    empty = format_histogram("plt.ms", {"count": 0, "sum": 0.0,
                                        "buckets": {}})
    assert empty == "plt.ms: n=0 sum=0.000 mean=0.000 p50<=0 p95<=0"


def test_text_summary_renders_histograms_via_format_histogram():
    registry = MetricsRegistry()
    hist = registry.histogram("plt.ms", buckets=(1.0, 5.0))
    for value in (0.5, 2.0, 3.0, 7.0):
        hist.observe(value)
    registry.counter("net.tx").inc(3.0)
    summary = text_summary([Tracer(Environment())], registry)
    assert format_histogram("plt.ms", hist.as_dict()) in summary
    assert "net.tx: 3" in summary


# -- determinism across same-seed runs -------------------------------------

def test_traced_trial_exports_are_byte_identical_across_runs():
    first = run_traced_trial("fig3a:384", 3)
    second = run_traced_trial("fig3a:384", 3)
    assert chrome_trace_json(first.tracers) == \
        chrome_trace_json(second.tracers)
    assert metrics_json(first.metrics) == metrics_json(second.metrics)
    assert [r.plt for r in first.result] == [r.plt for r in second.result]


def test_different_seeds_produce_different_traces(fig2a_trace):
    other = run_traced_trial(FIG2A, 1)
    assert chrome_trace_json(fig2a_trace.tracers) != \
        chrome_trace_json(other.tracers)


def test_fig2a_trace_covers_at_least_four_subsystems(fig2a_traced_envs):
    traced, envs = fig2a_traced_envs
    for tracer in traced.tracers:
        assert {"sim", "net", "web", "device"} <= set(tracer.categories())
    # And the headline instruments all reported, summed over sessions.
    snapshot = traced.metrics.snapshot()
    for name in ("sim.steps", "net.link.tx_bytes", "net.http.requests",
                 "web.fetch_ms", "device.dvfs.transitions"):
        assert name in snapshot, name
    # The shared sim.steps counter is each session's kernel count, once.
    assert len(envs) == len(traced.tracers)
    assert snapshot["sim.steps"] == \
        sum(env.steps_processed for env in envs) > 0


#: One experiment of each study module, trial 0 (``fig7b`` is the one
#: trial that loads every page on the CPU and on the DSP).
ONE_PER_STUDY = ("fig3b:1.0", "fig4c:2", "fig5d:PW", "fig1:2011", "fig6",
                 "fig7b", "tls:384:off", "faults:video:thermal:0.5")


def test_every_registered_traceable_trial_runs_and_traces():
    for name in ONE_PER_STUDY:
        traced = run_traced_trial(name, 0)
        assert traced.tracers, name
        assert all(len(tracer) > 0 for tracer in traced.tracers), name
        assert traced.metrics.snapshot()["sim.steps"] > 0, name
        assert traced.result is not None, name


def test_every_experiment_resolves_without_running(monkeypatch):
    import repro.core.session as session

    def refuse(*args, **kwargs):
        raise AssertionError("resolving must not simulate")

    monkeypatch.setattr(session, "Environment", refuse)
    layouts = list(experiments())
    # Resolve against this one enumeration: building every study per name
    # would only repeat the same corpus generation 164 times.
    monkeypatch.setattr(tracing, "experiments", lambda: iter(layouts))
    assert set(ONE_PER_STUDY) <= {name for name, _, _ in layouts}
    for name, task, items in layouts:
        assert resolve(name, 0) == (task, derive_seed(name, 0)
                                    if items is None else items[0]), name
        # Every figure sweep keys its trial cache on this task: one that
        # stopped canonicalizing would silently run uncached.
        canonicalize(task)


# -- zero overhead when disabled --------------------------------------------

def _load_once(with_obs: bool):
    env = Environment()
    if with_obs:
        install(env)
    device = Device(env, NEXUS4, governor="OD")
    browser = BrowserEngine(env, device, Link(env, LinkSpec()))
    page = generate_corpus(1)[0]
    result = env.run(env.process(browser.load(page)))
    return env, result


def test_figures_are_bit_identical_with_tracing_disabled():
    env_plain, plain = _load_once(with_obs=False)
    env_traced, traced = _load_once(with_obs=True)
    assert plain.plt == traced.plt
    assert env_plain.now == env_traced.now
    assert env_plain.steps_processed == env_traced.steps_processed


def test_uninstrumented_environment_allocates_no_obs_events():
    env, _ = _load_once(with_obs=False)
    assert env.tracer is None and env.metrics is None
    assert tracer_of(env).enabled is False
    # The shared null tracer has no storage, so nothing can have leaked.
    assert not hasattr(tracer_of(env), "spans")


def test_traced_fig2a_has_sane_wall_cost():
    # Not a benchmark — a regression tripwire: one traced page load must
    # stay far from pathological (event storms, quadratic span handling).
    import time

    start = time.monotonic()  # simlint: disable=DET001
    traced = run_traced_trial(FIG2A, 0)
    elapsed = time.monotonic() - start  # simlint: disable=DET001
    assert elapsed < 30.0, f"traced fig2a took {elapsed:.1f}s"
    # Event volume stays bounded relative to kernel steps: every span or
    # instant is tied to real simulation activity, not emitted in a loop.
    steps = traced.metrics.snapshot()["sim.steps"]
    assert sum(len(tracer) for tracer in traced.tracers) < 10 * steps
