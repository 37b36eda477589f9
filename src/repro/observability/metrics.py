"""Metrics registry: counters, gauges and histograms for the simulator.

The instrumentation points record what the paper's merged profiles would
show — kernels issued, dispatch stalls, the queue-delay distribution,
bytes allocated per :class:`~repro.hardware.memory.AllocationTag`,
allreduce bytes on the wire — as cheap in-process metrics.  Like the
tracer, the registry is disabled by default and the disabled path costs a
single branch: ``registry.counter(...)`` returns a shared no-op metric.

Label support is deliberately simple: a metric name plus an optional
``labels`` dict resolves to one time series, stored under a deterministic
``name{k="v",...}`` key so the Prometheus text dump is stable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Default histogram buckets, in seconds — spans queue delays from
#: sub-microsecond launch jitter up to host-sync stalls.
DEFAULT_BUCKETS = (
    1e-6,
    5e-6,
    1e-5,
    5e-5,
    1e-4,
    5e-4,
    1e-3,
    5e-3,
    1e-2,
    5e-2,
    1e-1,
)


def series_key(name: str, labels: dict | None) -> str:
    """Deterministic time-series key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    kind = "counter"
    enabled = True

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount``; a negative amount is a ``ValueError``."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value."""

    name: str
    value: float = 0.0

    kind = "gauge"
    enabled = True

    def set(self, value: float) -> None:
        """Overwrite the value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount``, which may be negative."""
        self.value += amount


@dataclass
class Histogram:
    """Fixed-bucket distribution with count and sum."""

    name: str
    buckets: tuple = DEFAULT_BUCKETS
    bucket_counts: list = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    kind = "histogram"
    enabled = True

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Count one sample in the first bucket whose bound holds it."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list:
        """``[(upper_bound, cumulative_count), ..., ("+Inf", count)]``."""
        out = []
        running = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append(("+Inf", self.count))
        return out


class _NullMetric:
    """Shared no-op counter/gauge/histogram: the disabled fast path."""

    __slots__ = ()

    enabled = False
    kind = "null"
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, _amount: float = 1.0) -> None:
        pass

    def set(self, _value: float) -> None:
        pass

    def observe(self, _value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metric store; thread-safe creation, deterministic iteration."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._series: dict = {}
        self._lock = threading.Lock()

    def _get(self, factory, name: str, labels: dict | None, **kwargs):
        if not self.enabled:
            return NULL_METRIC
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, factory(name=name, **kwargs))
        return series

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        """The counter of this name and labels, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        """The gauge of this name and labels, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, labels: dict | None = None, buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram of this name and labels, created on first use
        with ``buckets``."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def snapshot(self) -> dict:
        """``{series_key: value-or-histogram-summary}`` in sorted key order."""
        out = {}
        for key in sorted(self._series):
            series = self._series[key]
            if series.kind == "histogram":
                out[key] = {
                    "count": series.count,
                    "sum": series.total,
                    "mean": series.mean,
                }
            else:
                out[key] = series.value
        return out

    def series(self) -> list:
        """``[(series_key, metric), ...]`` in sorted key order."""
        return [(key, self._series[key]) for key in sorted(self._series)]

    def reset(self) -> None:
        """Drop every series."""
        with self._lock:
            self._series = {}


# ----------------------------------------------------------------------
# module-level registry, mirroring the tracer's global
# ----------------------------------------------------------------------

_GLOBAL = MetricsRegistry(enabled=False)


def get_metrics() -> MetricsRegistry:
    """The process-global registry (disabled by default)."""
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous
