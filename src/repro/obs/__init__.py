"""Observability: span tracing, metrics, wall-vs-modelled profiling.

Three zero-dependency pieces (standard library only):

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span`: nested,
  thread-safe, monotonic-clock spans carrying host wall time *and* the
  modelled accelerator cycles charged while each span was open;
  exports Chrome ``chrome://tracing`` trace-event JSON.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` (fixed buckets +
  exact p50/p90/p99 summaries) with Prometheus text exposition and a
  deterministic :meth:`~MetricsRegistry.snapshot` API.
* :mod:`repro.obs.probes` — the process-global :data:`PROBE` seam the
  fleet/backend/systolic stack is instrumented through; inactive (and
  one-attribute-check cheap) by default, switched on by
  ``fleet --trace/--metrics/--json``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.probes import PROBE, Probe, observed
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "PROBE",
    "Probe",
    "observed",
    "NULL_SPAN",
    "Span",
    "Tracer",
]
