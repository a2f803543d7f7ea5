"""Metric exporters: Prometheus text format, JSON, ASCII dashboards.

The Prometheus exporter follows the text exposition format
(``# HELP`` / ``# TYPE`` preamble per metric family, escaped label values,
``_total`` suffix on counters, cumulative ``_bucket{le=...}`` rows plus
``_sum``/``_count`` for histograms).  Time series have no native Prometheus
representation, so they export as gauges carrying their last sample; the
full sample history goes out through the JSON exporter, and the
ASCII dashboard renders it as sparklines for terminal inspection.

All exporters accept degenerate inputs — an empty registry, an empty
series, a single-sample series — and still emit valid documents.
"""

from __future__ import annotations

import json
import re

from repro.errors import ValidationError
from repro.observability.metrics import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SERIES,
    Metric,
    MetricsRegistry,
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Unicode block characters for sparklines, lowest to highest.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def prometheus_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus charset."""
    sanitized = _NAME_OK.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (value.replace("\\", r"\\")
                 .replace("\n", r"\n")
                 .replace('"', r'\"'))


def _label_suffix(labels: dict[str, str],
                  extra: tuple[str, str] | None = None) -> str:
    pairs = [(k, v) for k, v in sorted(labels.items())]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{prometheus_name(k)}="{escape_label_value(str(v))}"'
        for k, v in pairs
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_families: set[str] = set()
    for metric in registry.metrics():
        base = prometheus_name(metric.name)
        if metric.kind == KIND_COUNTER and not base.endswith("_total"):
            base += "_total"
        prom_type = {
            KIND_COUNTER: "counter",
            KIND_GAUGE: "gauge",
            KIND_HISTOGRAM: "histogram",
            KIND_SERIES: "gauge",
        }[metric.kind]
        if base not in seen_families:
            seen_families.add(base)
            help_text = metric.help or f"repro metric {metric.name}"
            lines.append(f"# HELP {base} "
                         f"{help_text.replace(chr(10), ' ')}")
            lines.append(f"# TYPE {base} {prom_type}")
        labels = metric.label_dict()
        if metric.kind in (KIND_COUNTER, KIND_GAUGE):
            lines.append(f"{base}{_label_suffix(labels)} "
                         f"{_fmt(metric.value)}")
        elif metric.kind == KIND_SERIES:
            last = metric.last
            value = last[1] if last is not None else 0.0
            lines.append(f"{base}{_label_suffix(labels)} {_fmt(value)}")
        else:  # histogram (bucket counts are already cumulative)
            for bound, count in zip(metric.buckets, metric.bucket_counts):
                lines.append(
                    f"{base}_bucket"
                    f"{_label_suffix(labels, ('le', _fmt(bound)))} "
                    f"{count}"
                )
            lines.append(
                f"{base}_bucket{_label_suffix(labels, ('le', '+Inf'))} "
                f"{metric.count}"
            )
            lines.append(f"{base}_sum{_label_suffix(labels)} "
                         f"{_fmt(metric.sum)}")
            lines.append(f"{base}_count{_label_suffix(labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_to_json(registry: MetricsRegistry,
                    indent: int | None = None,
                    extra: dict | None = None) -> str:
    """Serialize the registry snapshot (plus optional extras) as JSON."""
    document = registry.snapshot()
    if extra:
        document.update(extra)
    return json.dumps(document, indent=indent, default=_json_default)


def _json_default(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


# ---------------------------------------------------------------------------
# ASCII rendering.
# ---------------------------------------------------------------------------

def render_sparkline(values: list[float], width: int = 60) -> str:
    """Resample ``values`` into ``width`` columns of block characters."""
    if width <= 0:
        raise ValidationError("width must be positive")
    if not values:
        return ""
    if len(values) > width:
        # Bucket means preserve shape better than decimation.
        bucketed = []
        step = len(values) / width
        for column in range(width):
            lo = int(column * step)
            hi = max(lo + 1, int((column + 1) * step))
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    low = min(values)
    high = max(values)
    if high == low:
        return SPARK_BLOCKS[0] * len(values)
    scale = (len(SPARK_BLOCKS) - 1) / (high - low)
    return "".join(SPARK_BLOCKS[int((value - low) * scale)]
                   for value in values)


def render_series(metric: Metric, width: int = 60) -> str:
    """One labelled sparkline row for a time series."""
    samples = metric.samples()
    if not samples:
        return f"{metric.name}: (no samples)"
    values = [value for __, value in samples]
    spark = render_sparkline(values, width)
    return (f"{metric.name}: {spark}  "
            f"[min {min(values):g}, max {max(values):g}, "
            f"last {values[-1]:g}, n={len(samples)}]")


def render_dashboard(registry: MetricsRegistry, width: int = 60) -> str:
    """Terminal dashboard: counters/gauges table, histograms, sparklines."""
    metrics = registry.metrics()
    if not metrics:
        return "(no metrics recorded)"
    scalars = [m for m in metrics if m.kind in (KIND_COUNTER, KIND_GAUGE)]
    histograms = [m for m in metrics if m.kind == KIND_HISTOGRAM]
    series = [m for m in metrics if m.kind == KIND_SERIES]
    lines: list[str] = []
    if scalars:
        name_width = max(len(_scalar_label(m)) for m in scalars)
        lines.append("-- counters & gauges --")
        for metric in scalars:
            lines.append(f"  {_scalar_label(metric):<{name_width}}  "
                         f"{metric.value:g}")
    if histograms:
        lines.append("-- histograms --")
        for metric in histograms:
            if metric.count:
                lines.append(
                    f"  {metric.name}: n={metric.count} "
                    f"mean={metric.mean:.4g} min={metric.min:.4g} "
                    f"max={metric.max:.4g}"
                )
            else:
                lines.append(f"  {metric.name}: (empty)")
    if series:
        lines.append("-- time series --")
        for metric in series:
            lines.append("  " + render_series(metric, width))
    return "\n".join(lines)


def _scalar_label(metric: Metric) -> str:
    if not metric.labels:
        return metric.name
    inner = ",".join(f"{k}={v}" for k, v in metric.labels)
    return f"{metric.name}{{{inner}}}"
