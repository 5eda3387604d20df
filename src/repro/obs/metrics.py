"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is the quantitative half of :mod:`repro.obs`.  Instruments
are named with dotted lowercase namespaces mirroring the package that
emits them — ``net.link.tx_bytes``, ``video.stalls``, ``web.fetch_ms``,
``device.dvfs.transitions``, ``faults.injected``, ``sim.steps`` — so a
flat snapshot reads like a table of contents of one trial.  Facts about
the execution host (pool rebuilds, task retries) are not metrics; the
supervisor keeps them in its ``supervision`` record.

Determinism: instruments hold plain Python floats/ints fed exclusively
from simulated quantities, and :meth:`MetricsRegistry.snapshot` sorts by
name, so the serialized snapshot of a seeded trial is byte-identical
across runs.

Like the tracer, the disabled path must cost nothing: call sites that
cache ``metrics_of(env).counter(...)`` at construction time get
:data:`NULL_INSTRUMENT` back when observability is not installed — every
subsequent ``inc``/``set``/``observe`` is an allocation-free no-op.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Sequence, Union

#: Dotted, lowercase, at least two segments: ``subsystem.rest[.more]``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Default histogram buckets for millisecond latencies (upper bounds).
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be dotted lowercase "
            f"(e.g. 'net.link.tx_bytes')"
        )
    return name


def _bucket_label(bound: float) -> str:
    """Stable JSON-key label for a bucket upper bound."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Last-written value (buffer level, current frequency, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed ascending-upper-bound buckets with ``le`` semantics.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` and
    ``> buckets[i-1]``; everything above the last bound lands in the
    implicit ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "overflow",
                 "count", "sum")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_MS_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly ascending"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        index = bisect_left(self.buckets, value)
        if index < len(self.buckets):
            self.bucket_counts[index] += 1
        else:
            self.overflow += 1

    def as_dict(self) -> dict:
        buckets = {
            _bucket_label(bound): count
            for bound, count in zip(self.buckets, self.bucket_counts)
        }
        buckets["+Inf"] = self.overflow
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, kind: type) -> Instrument:
        existing = self._instruments.get(_check_name(name))
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = kind(name)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get(name, Counter)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._get(name, Gauge)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_MS_BUCKETS) -> Histogram:
        existing = self._instruments.get(_check_name(name))
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not Histogram"
                )
            return existing
        instrument = Histogram(name, buckets)
        self._instruments[name] = instrument
        return instrument

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._instruments))

    def snapshot(self) -> dict:
        """Flat ``{name: value-or-histogram-dict}``, sorted by name."""
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.as_dict()
            else:
                out[name] = instrument.value
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """No-op counter/gauge/histogram stand-in; one shared instance."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every instrument is :data:`NULL_INSTRUMENT`."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
                  ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_METRICS",
    "NullMetrics",
]
