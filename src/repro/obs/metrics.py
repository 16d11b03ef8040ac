"""Process-global metrics: Counters, Gauges, Histograms, exposition.

A :class:`MetricsRegistry` holds named metrics with optional label
sets, Prometheus-style:

* :class:`Counter` — monotonically increasing totals (env steps,
  backend forwards, weight-bus flips);
* :class:`Gauge` — last-write-wins instantaneous values (snapshot
  staleness);
* :class:`Histogram` — fixed cumulative buckets *plus* exact
  p50/p90/p99 quantile summaries computed from the retained samples
  (numpy-compatible linear interpolation, proven against
  ``np.percentile`` in tests).

Two read paths serve two consumers:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``), so a
  scrape of the written ``metrics.prom`` file parses with any
  Prometheus tooling;
* :meth:`MetricsRegistry.snapshot` — a deterministic, sorted, plain
  dict for tests and machine consumers (the ``metrics`` block of the
  ``fleet --json`` / ``systolic-bench --json`` payloads).

The module-level :data:`REGISTRY` is the process-global default the
probe seam writes to; tests build private registries.  Zero
dependencies beyond the standard library.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default histogram bucket upper bounds (seconds-flavoured latencies).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Quantiles every histogram summarises.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats print as integers."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class _Metric:
    """Shared name/help/labels plumbing."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple:
        return (self.name, self.labels)

    @property
    def labelled_name(self) -> str:
        """``name{label="value",...}`` — the snapshot/exposition key."""
        return self.name + _label_suffix(self.labels)


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge(_Metric):
    """Instantaneous value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram(_Metric):
    """Fixed cumulative buckets + exact quantile summaries.

    Buckets follow Prometheus semantics: ``bucket_counts[i]`` counts
    observations ``<= bounds[i]``, rendered cumulatively with a final
    ``+Inf`` bucket equal to ``count``.  Samples are retained (bounded
    by ``max_samples``, keeping the earliest) so quantiles are exact
    order statistics rather than bucket interpolations.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] | None = None,
        max_samples: int = 100_000,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.max_samples = max_samples
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            if len(self._samples) < self.max_samples:
                self._samples.append(value)

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the retained samples.

        Linear interpolation between closest ranks — the same estimator
        as ``numpy.percentile(..., method="linear")`` — so test oracles
        can compare directly.  NaN when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return float("nan")
        position = (len(samples) - 1) * q
        lo = math.floor(position)
        hi = math.ceil(position)
        return samples[lo] + (samples[hi] - samples[lo]) * (position - lo)

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """``(le, cumulative count)`` rows ending with ``+Inf``."""
        with self._lock:
            running = 0
            rows = []
            for bound, bucket in zip(self.bounds, self.bucket_counts):
                running += bucket
                rows.append((_format_value(bound), running))
            rows.append(("+Inf", self.count))
        return rows


class MetricsRegistry:
    """Named metrics with get-or-create accessors and two read paths."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, _Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, tuple(sorted((k, str(v)) for k, v in (labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
        return metric

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        with self._lock:
            self._metrics.clear()

    def __iter__(self):
        with self._lock:
            return iter(list(self._metrics.values()))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic plain-dict view, keys sorted.

        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
        with histogram entries carrying count/sum/quantiles/buckets —
        the machine-readable telemetry block downstream consumers (the
        future ``repro.tune`` explorer) read instead of parsing report
        text.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in sorted(self, key=lambda m: (m.name, m.labels)):
            key = metric.labelled_name
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "quantiles": {
                        f"p{int(q * 100)}": metric.quantile(q)
                        for q in SUMMARY_QUANTILES
                    },
                    "buckets": dict(metric.cumulative_buckets()),
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        One ``# HELP`` / ``# TYPE`` header per metric name (first
        registration's help wins), samples sorted by (name, labels), a
        trailing newline — parseable by any Prometheus scraper.
        """
        by_name: dict[str, list[_Metric]] = {}
        for metric in sorted(self, key=lambda m: (m.name, m.labels)):
            by_name.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name, metrics in by_name.items():
            head = metrics[0]
            if head.help:
                lines.append(f"# HELP {name} {head.help}")
            lines.append(f"# TYPE {name} {head.kind}")
            for metric in metrics:
                suffix = _label_suffix(metric.labels)
                if isinstance(metric, Histogram):
                    for le, cumulative in metric.cumulative_buckets():
                        bucket_labels = metric.labels + (("le", le),)
                        lines.append(
                            f"{name}_bucket{_label_suffix(bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{suffix} {_format_value(metric.sum)}"
                    )
                    lines.append(f"{name}_count{suffix} {metric.count}")
                else:
                    lines.append(
                        f"{name}{suffix} {_format_value(metric.value)}"
                    )
        return "\n".join(lines) + "\n"

    def export_prometheus(self, path: str) -> str:
        """Write the exposition text to ``path``; returns it."""
        with open(path, "w") as fh:
            fh.write(self.render_prometheus())
        return path


#: The process-global registry the probe seam writes to by default.
REGISTRY = MetricsRegistry()
