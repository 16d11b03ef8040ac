"""Measured host-side costs of the cost-accounting hot paths.

The sharding suite (``test_sharding_throughput.py``) pins the
*modelled* K-array payoff in cycles; this suite pins two host-side
properties of the accounting that every sharded forward and train step
pays for:

* **Cost-oracle memoisation** — hit/miss counters of the closed-form
  cycle oracles over a steady-state forward/train loop, read back
  through the ``repro.obs`` metrics registry; the overall hit rate
  must reach the acceptance floor of 0.9.
* **Accumulator linearity** — the :class:`StepCostAccumulator`
  add+peek loop at N and 10N records; the time ratio must stay
  near-linear (the O(K²) list-merge it replaced would blow up 100x).

Artifacts: ``wallclock_scaling.txt`` and ``BENCH_wallclock.json``.
"""

import time

import numpy as np

from _artifacts import write_artifacts
from repro.backend import ShardedBackend, StepCost, StepCostAccumulator
from repro.nn import build_network, scaled_drone_net_spec
from repro.obs import MetricsRegistry, observed
from repro.parallel import clear_memo_caches, publish_memo_metrics
from repro.systolic.training import network_training_step_cost

SIDE = 16
BATCH = 256
SHARDS = 4
#: Accumulator timings keep the best of ``TIMING_REPEATS``.
TIMING_REPEATS = 3
#: Acceptance floor on the steady-state oracle hit rate.
MEMO_HIT_RATE_FLOOR = 0.9
#: Accumulator time ratio bound for a 10x record-count increase
#: (linear would be ~10x; the old quadratic merge was ~100x).
ACCUMULATOR_RATIO_CEILING = 40.0


def _accumulator_seconds(n: int) -> float:
    """Seconds to fold ``n`` records with a ``total_cycles`` peek each."""
    cost = StepCost(
        backend="systolic", states=4, macs=1000,
        layer_cycles={"conv1": 120, "conv2": 340, "fc1": 80},
    )
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        acc = StepCostAccumulator("systolic")
        start = time.perf_counter()
        for _ in range(n):
            acc.add(cost)
            _ = acc.total_cycles
        best = min(best, time.perf_counter() - start)
        acc.drain()
    return best


def test_wallclock_scaling(benchmark, results_dir):
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
    rng = np.random.default_rng(0)
    states = rng.uniform(0.0, 1.0, size=(BATCH, 1, SIDE, SIDE))

    def run():
        # --- cost-oracle memoisation at steady state ----------------
        clear_memo_caches()
        registry = MetricsRegistry()
        backend = ShardedBackend(network, shards=SHARDS, shard="sample")
        with observed(registry=registry):
            for _ in range(20):
                backend.forward_batch(states)
                network_training_step_cost(network, (1, SIDE, SIDE), BATCH)
            publish_memo_metrics()
        gauges = registry.snapshot()["gauges"]
        memo = {
            "hit_rate_overall": gauges["repro_memo_hit_rate_overall"],
            "gauges": {
                k: v for k, v in gauges.items() if k.startswith("repro_memo")
            },
        }

        # --- accumulator linearity ----------------------------------
        base_n = 300
        small = _accumulator_seconds(base_n)
        large = _accumulator_seconds(10 * base_n)
        accumulator = {
            "n": base_n,
            "seconds_n": small,
            "seconds_10n": large,
            "ratio": large / small if small else 0.0,
        }
        return {"memo": memo, "accumulator": accumulator}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    memo = results["memo"]
    acc = results["accumulator"]
    body = (
        f"K={SHARDS} sample-sharded forward, batch={BATCH}\n"
        f"cost-oracle memo hit rate (steady state): "
        f"{memo['hit_rate_overall']:.3f} (floor {MEMO_HIT_RATE_FLOOR})\n"
        f"accumulator add+peek: {acc['n']} recs {acc['seconds_n'] * 1e3:.2f} "
        f"ms, {10 * acc['n']} recs {acc['seconds_10n'] * 1e3:.2f} ms "
        f"(ratio {acc['ratio']:.1f}x, ceiling "
        f"{ACCUMULATOR_RATIO_CEILING:.0f}x)"
    )
    write_artifacts(
        results_dir,
        "wallclock_scaling.txt",
        body,
        "BENCH_wallclock.json",
        {"batch": BATCH, "shards": SHARDS, **results},
    )

    assert memo["hit_rate_overall"] >= MEMO_HIT_RATE_FLOOR
    assert acc["ratio"] <= ACCUMULATOR_RATIO_CEILING, acc
