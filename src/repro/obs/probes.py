"""The instrumentation seam: one process-global probe, off by default.

Production code (the fleet scheduler, the agent, the execution
backends, the weight bus, the vectorized env) imports :data:`PROBE` and
calls its methods unconditionally::

    from repro.obs.probes import PROBE

    with PROBE.span("backend.forward_batch", backend=name) as sp:
        q_values, cost = backend.forward_batch(states)
        sp.add_cycles(cost.total_cycles)
    if PROBE.enabled:
        PROBE.observe("repro_backend_forward_seconds", sp.duration_s)

While the probe is *inactive* (the default) every call is a no-op
guarded by one attribute check — ``span`` returns the shared
:data:`~repro.obs.trace.NULL_SPAN`, the metric helpers return before
touching the registry, and an instrumented fleet run is bitwise
identical to an uninstrumented one (the disabled-identity benchmark in
``benchmarks/test_obs_overhead.py`` enforces it).

:meth:`Probe.activate` switches on a live :class:`~repro.obs.trace.Tracer`
and binds a metrics registry (a private one per run, usually — the CLI
builds a fresh registry per ``fleet --trace/--metrics`` invocation so
two runs never mix telemetry); :meth:`Probe.deactivate` restores the
no-op state.  The :func:`observed` context manager wraps the pair for
tests and CLI commands.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer

__all__ = ["Probe", "PROBE", "observed"]


class Probe:
    """Process-global tracer + metrics front-end, inactive by default."""

    def __init__(self):
        self.enabled = False
        self.tracer = Tracer(enabled=False)
        self.metrics: MetricsRegistry = REGISTRY

    # ------------------------------------------------------------------
    def activate(
        self,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> Tracer:
        """Switch instrumentation on; returns the live tracer.

        ``tracer``/``registry`` default to a fresh :class:`Tracer` and
        the process-global :data:`~repro.obs.metrics.REGISTRY`.

        The probe is **process-global**: the simulator runs in one
        process, so one live tracer and registry see every span and
        metric.
        """
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.tracer.enabled = True
        if registry is not None:
            self.metrics = registry
        self.enabled = True
        return self.tracer

    def deactivate(self) -> None:
        """Restore the no-op state (recorded spans/metrics survive)."""
        self.enabled = False
        self.tracer.enabled = False
        self.metrics = REGISTRY

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """A tracer span when active, :data:`NULL_SPAN` otherwise."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, category=category, **args)

    def add_cycles(self, cycles: int) -> None:
        """Attach cycles to the innermost open span, if tracing."""
        if self.enabled:
            self.tracer.add_cycles(cycles)

    def record_span(
        self, name: str, duration_ns: int, cycles: int = 0, **args
    ) -> None:
        """Emit a span for an interval the caller timed itself.

        For spans whose fields are known only after the work (a shard
        forward's cycles, a pipeline micro-batch's serving array): the
        span is back-dated to end now, and
        :meth:`~repro.obs.trace.Tracer.summary` aggregates it with live
        spans of the same name.
        """
        if not self.enabled:
            return
        self.tracer.record(name, duration_ns, cycles=cycles, **args)

    # ------------------------------------------------------------------
    def count(
        self, name: str, amount: float = 1.0, help: str = "", **labels
    ) -> None:
        """Increment counter ``name`` (no-op while inactive)."""
        if not self.enabled:
            return
        self.metrics.counter(name, help=help, labels=labels or None).inc(amount)

    def gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set gauge ``name`` (no-op while inactive)."""
        if not self.enabled:
            return
        self.metrics.gauge(name, help=help, labels=labels or None).set(value)

    def observe(self, name: str, value: float, help: str = "", **labels) -> None:
        """Observe ``value`` into histogram ``name`` (no-op inactive)."""
        if not self.enabled:
            return
        self.metrics.histogram(name, help=help, labels=labels or None).observe(
            value
        )


#: The process-global probe every instrumented module imports.
PROBE = Probe()


@contextmanager
def observed(registry: MetricsRegistry | None = None):
    """Activate :data:`PROBE` for a block; yields ``(tracer, registry)``.

    Deactivates on exit even when the block raises, so a crashed run
    cannot leave the process paying tracing overhead.
    """
    tracer = PROBE.activate(registry=registry)
    try:
        yield tracer, PROBE.metrics
    finally:
        PROBE.deactivate()
