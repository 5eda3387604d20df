"""repro.obs unit tests: tracer recording, metrics instruments, null path."""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_MS_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    Tracer,
    metrics_of,
    tracer_of,
)
from repro.obs.metrics import NULL_INSTRUMENT
from repro.sim import Environment


# -- tracer -----------------------------------------------------------------

def test_span_context_manager_records_interval():
    env = Environment()
    tracer = Tracer(env)

    def proc():
        with tracer.span("net.fetch", "net", {"url": "http://a"}):
            yield env.timeout(1.5)

    env.process(proc())
    env.run()
    (span,) = tracer.spans
    assert (span.name, span.cat) == ("net.fetch", "net")
    assert (span.start, span.end, span.duration) == (0.0, 1.5, 1.5)
    assert span.args == {"url": "http://a"}


def test_span_context_manager_annotates_escaping_exception():
    tracer = Tracer(Environment())
    with pytest.raises(RuntimeError):
        with tracer.span("web.script", "web"):
            raise RuntimeError("boom")
    (span,) = tracer.spans
    assert span.args == {"error": "RuntimeError"}


def test_complete_and_instant_default_to_clock_now():
    env = Environment()
    tracer = Tracer(env)

    def wait():
        yield env.timeout(2.0)

    env.process(wait())
    env.run()
    span = tracer.complete("video.startup", "video", start=0.5)
    inst = tracer.instant("device.dvfs.step", "device")
    assert (span.start, span.end) == (0.5, 2.0)
    assert inst.t == 2.0
    assert tracer.categories() == ("device", "video")
    assert tracer.counts_by_category() == {"device": 1, "video": 1}
    assert len(tracer) == 2


def test_null_tracer_is_shared_and_stores_nothing():
    assert tracer_of(object()) is NULL_TRACER
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("a.b", "app", args={"k": 1}) as handle:
        assert handle is None
    assert NULL_TRACER.complete("a.b", "app", 0.0) is None
    assert NULL_TRACER.instant("a.b") is None
    # The null tracer has no storage at all (no lists to leak into).
    assert not hasattr(NULL_TRACER, "spans")
    # And the context manager is one shared object, not per-call.
    assert NULL_TRACER.span("x.y") is NULL_TRACER.span("z.w")


def test_null_tracer_swallows_exceptions_like_the_real_one():
    with pytest.raises(ValueError):
        with NULL_TRACER.span("a.b"):
            raise ValueError("propagates")


# -- metrics ----------------------------------------------------------------

def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("net.link.tx_bytes")
    counter.inc()
    counter.inc(41.0)
    assert counter.value == 42.0
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1.0)


def test_gauge_holds_last_value():
    gauge = MetricsRegistry().gauge("video.buffer_s")
    gauge.set(3.5)
    gauge.set(1.25)
    assert gauge.value == 1.25


def test_metric_names_must_be_dotted_lowercase():
    registry = MetricsRegistry()
    for bad in ("plain", "Upper.case", "net.", ".net", "net..x", "a.b-c"):
        with pytest.raises(ValueError, match="dotted lowercase"):
            registry.counter(bad)


def test_registry_is_get_or_create_and_type_checked():
    registry = MetricsRegistry()
    assert registry.counter("web.loads") is registry.counter("web.loads")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("web.loads")
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("web.loads")
    assert registry.names() == ("web.loads",)


def test_histogram_boundary_values_use_le_semantics():
    histogram = Histogram("web.fetch_ms", buckets=(10.0, 100.0))
    histogram.observe(10.0)     # exactly on a bound: belongs to that bucket
    histogram.observe(10.0001)  # just above: next bucket
    histogram.observe(100.0)
    histogram.observe(100.0001)  # above the last bound: overflow
    assert histogram.bucket_counts == [1, 2]
    assert histogram.overflow == 1
    data = histogram.as_dict()
    assert data["count"] == 4
    assert data["buckets"] == {"10": 1, "100": 2, "+Inf": 1}


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError, match="at least one bucket"):
        Histogram("a.b", buckets=())
    with pytest.raises(ValueError, match="strictly ascending"):
        Histogram("a.b", buckets=(5.0, 5.0))
    with pytest.raises(ValueError, match="strictly ascending"):
        Histogram("a.b", buckets=(10.0, 5.0))


def test_histogram_default_buckets_and_float_labels():
    histogram = Histogram("web.fetch_ms")
    assert histogram.buckets == DEFAULT_MS_BUCKETS
    fractional = Histogram("a.b", buckets=(0.5, 1.0))
    assert set(fractional.as_dict()["buckets"]) == {"0.5", "1", "+Inf"}


def test_snapshot_is_flat_and_sorted():
    registry = MetricsRegistry()
    registry.gauge("b.gauge").set(2.0)
    registry.counter("a.counter").inc(3.0)
    registry.histogram("c.hist", buckets=(1.0,)).observe(0.5)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["a.counter", "b.gauge", "c.hist"]
    assert snapshot["a.counter"] == 3.0
    assert snapshot["c.hist"]["count"] == 1


def test_null_metrics_hands_out_the_shared_null_instrument():
    assert metrics_of(object()) is NULL_METRICS
    counter = NULL_METRICS.counter("any.name")
    assert counter is NULL_INSTRUMENT
    assert counter is NULL_METRICS.gauge("other.name")
    counter.inc()
    counter.set(5.0)
    counter.observe(1.0)
    assert NULL_METRICS.snapshot() == {}
