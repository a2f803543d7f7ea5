"""Time-series metrics: counters, gauges, histograms, and sampled series.

The tracing layer (:mod:`repro.observability.trace`) answers "what happened
when"; this module answers "how much, over time".  A
:class:`MetricsRegistry` holds named instruments:

* :class:`Counter` — monotonically increasing totals (tasks completed,
  bytes shuffled);
* :class:`Gauge` — point-in-time values that move both ways (running
  slots, in-flight tasks);
* :class:`Histogram` — bucketed distributions (task durations);
* :class:`TimeSeries` — a ring buffer of ``(t, value)`` samples, stamped
  with whatever clock the producer lives on: the simulator passes its
  *virtual* clock, the local executor the registry's wall clock.

Like tracing, metrics are **off by default and free when off**: every
producer takes a registry defaulting to :data:`NULL_METRICS`, and emission
sites gate all work on ``metrics.enabled`` — one attribute check, no
instrument lookups, no allocation.  Exporters (Prometheus text format,
JSON, ASCII dashboards) live in
:mod:`repro.observability.metrics_export`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Iterable

from repro.errors import ValidationError

#: Instrument kinds (also the Prometheus TYPE names, except ``series``).
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"
KIND_SERIES = "series"

#: Default histogram bucket upper bounds, in seconds-ish magnitudes.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0,
)

#: Default ring-buffer capacity of one time series.
DEFAULT_MAX_SAMPLES = 4096

LabelDict = dict[str, str]
LabelKey = tuple[tuple[str, str], ...]


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def _label_key(labels: LabelDict | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: identity (kind, name, labels) plus a mutation lock."""

    kind = "abstract"

    __slots__ = ("name", "labels", "help", "_lock")

    def __init__(self, name: str, labels: LabelKey = (), help: str = ""):
        if not name:
            raise ValidationError("metric name must be non-empty")
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    def label_dict(self) -> LabelDict:
        """Labels as a plain dict (exporter-friendly)."""
        return dict(self.labels)


class Counter(Metric):
    """Monotonically increasing total."""

    kind = KIND_COUNTER

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge(Metric):
    """Point-in-time value; moves both ways."""

    kind = KIND_GAUGE

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Move the value by ``delta`` (either direction)."""
        with self._lock:
            self.value += delta


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = KIND_HISTOGRAM

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "min", "max")

    def __init__(self, name: str, labels: LabelKey = (), help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, labels, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValidationError("histogram needs at least one bucket")
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation into the cumulative buckets."""
        with self._lock:
            self.sum += value
            self.count += 1
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class TimeSeries(Metric):
    """Ring buffer of ``(t, value)`` samples.

    ``t`` is whatever clock the producer stamps — virtual seconds from the
    simulator, wall seconds (relative to registry creation) elsewhere.
    The buffer keeps the most recent ``max_samples`` points.
    """

    kind = KIND_SERIES

    __slots__ = ("_samples",)

    def __init__(self, name: str, labels: LabelKey = (), help: str = "",
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        super().__init__(name, labels, help)
        if max_samples <= 0:
            raise ValidationError("max_samples must be positive")
        self._samples: deque[tuple[float, float]] = deque(maxlen=max_samples)

    def record(self, t: float, value: float) -> None:
        """Append one ``(t, value)`` sample (oldest evicted when full)."""
        with self._lock:
            self._samples.append((float(t), float(value)))

    def samples(self) -> list[tuple[float, float]]:
        """Snapshot of the buffered samples, oldest first."""
        with self._lock:
            return list(self._samples)

    def values(self) -> list[float]:
        """Just the sample values, oldest first."""
        return [value for __, value in self.samples()]

    @property
    def last(self) -> tuple[float, float] | None:
        with self._lock:
            return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)


class MetricsRegistry:
    """Named, labelled instruments plus a wall clock for sampling.

    ``now()`` reports seconds since registry creation, so wall-clock
    producers get small, comparable time stamps; virtual-time producers
    ignore it and stamp their own clock.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        self._clock = clock
        self._epoch = clock()
        self._max_samples = max_samples
        self._metrics: dict[tuple[str, str, LabelKey], Metric] = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since this registry was created."""
        return self._clock() - self._epoch

    # -- instrument access (get-or-create) -----------------------------------

    def _get(self, kind: str, cls, name: str, labels: LabelDict | None,
             help: str, **kwargs) -> Metric:
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for other_kind, other_name, __ in self._metrics:
                    if other_name == name and other_kind != kind:
                        raise ValidationError(
                            f"metric {name!r} already registered as "
                            f"{other_kind}, cannot re-register as {kind}"
                        )
                metric = cls(name, _label_key(labels), help, **kwargs)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: LabelDict | None = None,
                help: str = "") -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(KIND_COUNTER, Counter, name, labels, help)

    def gauge(self, name: str, labels: LabelDict | None = None,
              help: str = "") -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(KIND_GAUGE, Gauge, name, labels, help)

    def histogram(self, name: str, labels: LabelDict | None = None,
                  help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(KIND_HISTOGRAM, Histogram, name, labels, help,
                         buckets=buckets)

    def series(self, name: str, labels: LabelDict | None = None,
               help: str = "",
               max_samples: int | None = None) -> TimeSeries:
        """Get or create the time series ``name`` with ``labels``."""
        return self._get(KIND_SERIES, TimeSeries, name, labels, help,
                         max_samples=max_samples or self._max_samples)

    # -- convenience emission -------------------------------------------------

    def inc(self, name: str, amount: float = 1.0,
            labels: LabelDict | None = None) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name, labels).inc(amount)

    def set_gauge(self, name: str, value: float,
                  labels: LabelDict | None = None) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name, labels).set(value)

    def observe(self, name: str, value: float,
                labels: LabelDict | None = None) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name, labels).observe(value)

    def sample(self, name: str, value: float, t: float | None = None,
               labels: LabelDict | None = None) -> None:
        """Append one time-series point; ``t=None`` stamps the wall clock."""
        self.series(name, labels).record(self.now() if t is None else t,
                                         value)

    # -- introspection --------------------------------------------------------

    def metrics(self) -> list[Metric]:
        """All instruments, deterministically ordered."""
        with self._lock:
            values = list(self._metrics.values())
        return sorted(values, key=lambda m: (m.name, m.kind, m.labels))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument, including series samples."""
        out: dict = {"counters": [], "gauges": [], "histograms": [],
                     "series": []}
        for metric in self.metrics():
            entry: dict = {"name": metric.name,
                           "labels": metric.label_dict()}
            if metric.help:
                entry["help"] = metric.help
            if metric.kind == KIND_COUNTER:
                entry["value"] = metric.value
                out["counters"].append(entry)
            elif metric.kind == KIND_GAUGE:
                entry["value"] = metric.value
                out["gauges"].append(entry)
            elif metric.kind == KIND_HISTOGRAM:
                entry.update({
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(metric.buckets,
                                                metric.bucket_counts)
                    ],
                })
                out["histograms"].append(entry)
            else:
                entry["samples"] = [[t, v] for t, v in metric.samples()]
                out["series"].append(entry)
        return out

    def clear(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._metrics.clear()


class _NullMetric:
    """Shared no-op instrument: every mutator silently discards."""

    __slots__ = ()
    kind = "null"
    name = ""
    labels: LabelKey = ()
    help = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, t: float, value: float) -> None:
        pass

    def samples(self) -> list:
        return []


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """Discards everything; the default registry on every producer.

    Emission sites must gate on :attr:`enabled`, so in practice none of
    these methods run on hot paths — they exist so an unguarded call site
    degrades to a no-op instead of crashing.
    """

    enabled = False

    def __init__(self):
        """No configuration; all state is discarded anyway."""
        super().__init__()

    def _get(self, kind, cls, name, labels, help, **kwargs):
        return _NULL_METRIC

    def inc(self, name, amount=1.0, labels=None):
        """No-op."""

    def set_gauge(self, name, value, labels=None):
        """No-op."""

    def observe(self, name, value, labels=None):
        """No-op."""

    def sample(self, name, value, t=None, labels=None):
        """No-op."""

    def snapshot(self) -> dict:
        """An empty snapshot, shaped like the real one."""
        return {"counters": [], "gauges": [], "histograms": [], "series": []}


#: Shared default instance (stateless, so sharing is safe).
NULL_METRICS = NullMetricsRegistry()
