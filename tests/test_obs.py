"""The observability layer: span tracing, metrics, and the probe seam.

Contracts under test:

* **Span nesting** — per-thread stacks supply parent/depth; finished
  spans land in completion order (children before parents); cycles
  attach to the innermost open span; the decorator form traces calls.
* **Disabled tracer is a no-op** — ``Tracer.span`` on a disabled
  tracer returns the shared ``NULL_SPAN`` singleton (identity, not
  equality), and an *instrumented fleet run with the probe off* is
  bitwise identical to the same run with the probe on: same Q network
  weights, same per-round ledgers — tracing observes, never perturbs.
* **Histogram quantiles** — exact order statistics matching
  ``numpy.percentile(..., method="linear")``.
* **Prometheus exposition** — golden-file comparison against
  ``tests/data/metrics_golden.prom`` (HELP/TYPE headers, label
  sorting, cumulative ``_bucket`` rows with ``+Inf``, trailing
  newline).
* **Chrome trace export** — the written JSON carries complete events
  (``ph="X"``) with microsecond timestamps, deterministic small-int
  thread ids, and the cycle ledger in ``args``.
"""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import ShardedBackend
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.obs import (
    NULL_SPAN,
    PROBE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    observed,
)
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16
GOLDEN = Path(__file__).parent / "data" / "metrics_golden.prom"


class TestSpanNesting:
    def test_parent_and_depth_from_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert outer.parent_name is None and outer.depth == 0
        assert inner.parent_name == "outer" and inner.depth == 1

    def test_completion_order_children_before_parents(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.spans] == ["b", "c", "a"]

    def test_cycles_attach_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.add_cycles(5)
            with tracer.span("inner") as inner:
                tracer.add_cycles(7)
        assert outer.cycles == 5 and inner.cycles == 7

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.duration_ns >= 0
        assert outer.duration_ns >= inner.duration_ns
        assert outer.duration_s == pytest.approx(outer.duration_ns / 1e9)

    def test_wrap_decorator_records_calls(self):
        tracer = Tracer()

        @tracer.wrap("load")
        def load(x):
            return x + 1

        assert load(1) == 2 and load(2) == 3
        spans = tracer.spans
        assert [s.name for s in spans] == ["load", "load"]

    def test_summary_aggregates_by_name_with_prefix(self):
        tracer = Tracer()
        for cycles in (3, 4):
            with tracer.span("phase:rollout") as sp:
                sp.add_cycles(cycles)
        with tracer.span("fleet.round") as sp:
            sp.add_cycles(10)
        summary = tracer.summary()
        assert summary["phase:rollout"]["count"] == 2
        assert summary["phase:rollout"]["cycles"] == 7
        assert list(tracer.summary(prefix="phase:")) == ["phase:rollout"]

    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()
        errors = []

        def work(tag):
            try:
                for _ in range(20):
                    with tracer.span(f"outer-{tag}"):
                        with tracer.span(f"inner-{tag}") as inner:
                            assert inner.parent_name == f"outer-{tag}"
                            assert inner.depth == 1
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.spans
        assert len(spans) == 4 * 20 * 2
        for tag in range(4):
            # Every thread's spans stayed on one stack: 20 of each name,
            # all carrying the ident of the thread that opened them.
            mine = [s for s in spans if s.name.endswith(f"-{tag}")]
            assert len(mine) == 40
            assert len({s.thread_id for s in mine}) == 1


class TestDisabledTracer:
    def test_disabled_span_is_the_null_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", round=3)
        assert span is NULL_SPAN
        # The null span absorbs the whole Span surface.
        with span as sp:
            sp.add_cycles(10)
            sp.annotate(k=1)
        assert sp.cycles == 0 and sp.duration_s == 0.0
        assert tracer.spans == []

    def test_inactive_probe_is_identity_cheap(self):
        assert PROBE.enabled is False
        assert PROBE.span("x") is NULL_SPAN
        before = len(list(PROBE.metrics))
        PROBE.count("repro_test_total")
        PROBE.gauge("repro_test_gauge", 1.0)
        PROBE.observe("repro_test_seconds", 0.1)
        assert len(list(PROBE.metrics)) == before


class TestProbeSeam:
    def test_observed_activates_and_restores(self):
        registry = MetricsRegistry()
        with observed(registry=registry) as (tracer, metrics):
            assert PROBE.enabled and metrics is registry
            with PROBE.span("unit") as sp:
                sp.add_cycles(2)
            PROBE.count("repro_unit_total", 3)
        assert PROBE.enabled is False
        assert PROBE.span("after") is NULL_SPAN
        assert [s.name for s in tracer.spans] == ["unit"]
        assert registry.snapshot()["counters"]["repro_unit_total"] == 3

    def test_observed_deactivates_on_error(self):
        with pytest.raises(RuntimeError):
            with observed(registry=MetricsRegistry()):
                raise RuntimeError("boom")
        assert PROBE.enabled is False


class TestHistogramQuantiles:
    def test_matches_numpy_linear_percentiles(self, rng):
        h = Histogram("h", buckets=(0.5,))
        samples = rng.uniform(0.0, 2.0, size=257)
        for v in samples:
            h.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            expected = np.percentile(samples, q * 100, method="linear")
            assert h.quantile(q) == pytest.approx(expected, rel=1e-12)

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_cumulative_buckets_end_with_inf(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.cumulative_buckets() == [("1", 1), ("2", 2), ("+Inf", 3)]


class TestMetricsRegistry:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("g")
        g.set(4.0)
        g.inc(-1.5)
        assert g.value == 2.5

    def test_get_or_create_reuses_and_guards_kind(self):
        registry = MetricsRegistry()
        c1 = registry.counter("repro_x_total", labels={"k": "v"})
        c2 = registry.counter("repro_x_total", labels={"k": "v"})
        assert c1 is c2
        with pytest.raises(TypeError):
            registry.gauge("repro_x_total", labels={"k": "v"})

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(2)
        registry.counter("a_total").inc(1)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a_total", "b_total"]
        assert snap["gauges"]["g"] == 7.0
        hist = snap["histograms"]["h"]
        assert hist["count"] == 1 and hist["sum"] == 0.5
        assert set(hist["quantiles"]) == {"p50", "p90", "p99"}
        assert hist["buckets"]["+Inf"] == 1
        json.dumps(snap)  # plain data, serialisable as-is


class TestPrometheusExposition:
    @staticmethod
    def _golden_registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter(
            "repro_backend_forwards_total",
            help="Forward batches served",
            labels={"backend": "systolic"},
        ).inc(3)
        registry.counter(
            "repro_backend_forwards_total",
            help="Forward batches served",
            labels={"backend": "sharded"},
        ).inc(2)
        registry.counter(
            "repro_fleet_env_steps_total", help="Env steps stepped"
        ).inc(1280)
        registry.gauge(
            "repro_fleet_sync_staleness_updates",
            help="Updates the serving snapshot is behind",
        ).set(2)
        hist = registry.histogram(
            "repro_fleet_round_seconds",
            help="Wall seconds per fleet round",
            buckets=(0.1, 1.0),
        )
        for value in (0.0625, 0.5, 2.0):
            hist.observe(value)
        return registry

    def test_matches_golden_file(self):
        assert self._golden_registry().render_prometheus() == GOLDEN.read_text()

    def test_export_writes_the_same_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        self._golden_registry().export_prometheus(str(path))
        assert path.read_text() == GOLDEN.read_text()


class TestChromeExport:
    def test_exported_trace_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("fleet.round", round=0):
            with tracer.span("phase:rollout") as sp:
                sp.add_cycles(123)
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        trace = json.loads(path.read_text())

        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["fleet.round", "phase:rollout"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1 and event["tid"] == 0
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert "cycles" in event["args"] and "wall_ms" in event["args"]
        # Events sort by start time; the parent opened first.
        assert events[0]["ts"] <= events[1]["ts"]
        assert events[1]["args"]["cycles"] == 123
        assert events[0]["args"]["round"] == 0

    def test_deterministic_export_is_a_pure_function_of_the_workload(
        self, tmp_path
    ):
        """Two separate runs of the same span structure write identical
        bytes: rank timestamps, no wall_ms, sorted keys."""

        def run(path):
            tracer = Tracer()
            with tracer.span("fleet.round", round=0):
                with tracer.span("phase:rollout") as sp:
                    sp.add_cycles(123)
                with tracer.span("phase:train") as sp:
                    sp.add_cycles(77)
            tracer.export_chrome(str(path), deterministic=True)
            return path.read_bytes()

        first = run(tmp_path / "a.json")
        second = run(tmp_path / "b.json")
        assert first == second
        trace = json.loads(first)
        for event in trace["traceEvents"]:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
            assert "wall_ms" not in event["args"]
        # Rank timestamps keep the nesting topology: the parent starts
        # first and outlasts both children.
        parent = trace["traceEvents"][0]
        children = trace["traceEvents"][1:]
        assert parent["name"] == "fleet.round"
        for child in children:
            assert parent["ts"] <= child["ts"]
            assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_deterministic_export_immune_to_record_jitter(self, tmp_path):
        """Back-dated ``record()`` spans carry measured wall times whose
        jitter can reorder raw span boundaries between runs; the
        deterministic export must order them by call, not the clock."""

        def run(path, durations):
            tracer = Tracer()
            with tracer.span("fleet.round"):
                for shard, duration_ns in enumerate(durations):
                    tracer.record(
                        "shard.forward", duration_ns, cycles=100, shard=shard
                    )
            tracer.export_chrome(str(path), deterministic=True)
            return path.read_bytes()

        # Same call sequence, wildly different measured durations: the
        # second run's first record outlasts the gap to the next one,
        # which under raw-timestamp ranking would swap their order.
        first = run(tmp_path / "a.json", [10, 2_000_000, 30])
        second = run(tmp_path / "b.json", [5_000_000, 20, 1_000_000])
        assert first == second
        shards = [
            e["args"]["shard"]
            for e in json.loads(first)["traceEvents"]
            if e["name"] == "shard.forward"
        ]
        assert shards == [0, 1, 2]  # call order, not duration order


def _run_fleet(seed: int = 0):
    """One tiny sharded fleet run; returns (agent, report)."""
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=seed,
        batch_size=4,
        backend=ShardedBackend(network, shards=2, shard="sample"),
        sync_every=2,
    )
    vec_env = VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=[0, 1],
        image_side=SIDE,
        max_episode_steps=50,
    )
    scheduler = FleetScheduler(agent, vec_env, train_every=2, eval_steps=8)
    report = scheduler.run(rounds=1, steps_per_round=24)
    return agent, report


def _fingerprint(report):
    """The deterministic (non-wall-clock) content of a fleet report."""
    return [
        (
            r.env_steps, r.episodes, r.train_updates, r.mean_loss,
            r.inference, r.training,
            r.shards, r.sync_staleness, tuple(sorted(r.eval_sfd_by_class.items())),
        )
        for r in report.rounds
    ]


class TestObservationDoesNotPerturb:
    def test_probed_run_is_bitwise_identical_to_plain_run(self):
        plain_agent, plain_report = _run_fleet()
        with observed(registry=MetricsRegistry()) as (tracer, _):
            probed_agent, probed_report = _run_fleet()

        assert _fingerprint(probed_report) == _fingerprint(plain_report)
        for p_plain, p_probed in zip(
            plain_agent.network.parameters(),
            probed_agent.network.parameters(),
        ):
            assert np.array_equal(p_plain.value, p_probed.value)
        # And the probed run actually recorded the instrumented spans.
        names = {s.name for s in tracer.spans}
        assert {"fleet.round", "phase:rollout", "shard.forward"} <= names
