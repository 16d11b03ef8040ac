"""Measured host-side costs of the cost-accounting hot paths.

The sharding suite (``test_sharding_throughput.py``) pins the
*modelled* K-array payoff in cycles; this suite pins two host-side
properties of the accounting that every sharded forward and train step
pays for:

* **Cost-oracle memoisation** — hit/miss counters of the closed-form
  cycle oracles over a steady-state forward/train loop, read back
  through the ``repro.obs`` metrics registry.  The hit rate of every
  lookup after the first (cold) iteration must reach the acceptance
  floor of 0.9, and the lookups are gated by count: the first
  iteration may miss at most 26 times and every later iteration may
  make at most 9 lookups.  The cold-inclusive overall rate is recorded
  but not gated: it is a ratio of those two counts, so it *falls*
  whenever a steady step gets cheaper (fewer lookups against the same
  cold misses).
* **Ledger linearity** — the agent's running cost ledger, a
  ``ledger = ledger + cost`` fold over :class:`StepCost` records with
  a ``total_cycles`` peek after every record, at N and 10N records;
  the time ratio must stay near-linear (re-merging the whole record
  list on every peek, the O(K²) scheme an earlier accumulator
  replaced, would blow up 100x).

Artifacts: ``wallclock_scaling.txt`` and ``BENCH_wallclock.json``.
"""

import time

import numpy as np

from _artifacts import write_artifacts
from repro.backend import ShardedBackend, StepCost
from repro.nn import build_network, scaled_drone_net_spec
from repro.obs import MetricsRegistry, observed
from repro.parallel import clear_memo_caches, memo_stats, publish_memo_metrics
from repro.systolic.training import network_training_step_cost

SIDE = 16
BATCH = 256
SHARDS = 4
#: Accumulator timings keep the best of ``TIMING_REPEATS``.
TIMING_REPEATS = 3
#: Forward/train steps of the memo loop (the first one fills the tables).
MEMO_STEPS = 20
#: Acceptance floor on the steady-state oracle hit rate.
MEMO_HIT_RATE_FLOOR = 0.9
#: Ceiling on the first (table-filling) step's misses: 4
#: ``conv_rowstationary_stats`` + 19 ``fc_tile_stats`` + 1
#: ``network_training_step_cost`` + 1 ``sharded_price`` = 25 today.
MEMO_COLD_MISS_CEILING = 26
#: Ceiling on the oracle lookups of one steady-state step.
MEMO_STEADY_LOOKUPS_CEILING = 9
#: Ledger fold time ratio bound for a 10x record-count increase
#: (linear would be ~10x; a quadratic re-merge would be ~100x).
ACCUMULATOR_RATIO_CEILING = 40.0


def _accumulator_seconds(n: int) -> float:
    """Seconds to fold ``n`` records with ``+``, peeking ``total_cycles``
    after each one (the agent's ledger under the scheduler's phase
    spans)."""
    cost = StepCost(
        backend="systolic", states=4, macs=1000,
        layer_cycles={"conv1": 120, "conv2": 340, "fc1": 80},
        shard_cycles=(540,), critical_path_cycles=540,
    )
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        ledger = StepCost(backend="systolic")
        start = time.perf_counter()
        for _ in range(n):
            ledger = ledger + cost
            _ = ledger.total_cycles
        best = min(best, time.perf_counter() - start)
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
            for step in range(MEMO_STEPS):
                if step == 1:
                    cold = memo_stats()  # the first step filled the tables
                backend.forward_batch(states)
                network_training_step_cost(network, (1, SIDE, SIDE), BATCH)
            warm = publish_memo_metrics()
        cold_misses = sum(row["misses"] for row in cold.values())
        hits = misses = 0
        for name, row in warm.items():
            before = cold.get(name, {"hits": 0, "misses": 0})
            hits += row["hits"] - before["hits"]
            misses += row["misses"] - before["misses"]
        gauges = registry.snapshot()["gauges"]
        memo = {
            "hit_rate_overall": gauges["repro_memo_hit_rate_overall"],
            "hit_rate_steady": hits / (hits + misses),
            "cold_misses": cold_misses,
            "steady_lookups_per_step": (hits + misses) / (MEMO_STEPS - 1),
            "gauges": {
                k: v for k, v in gauges.items() if k.startswith("repro_memo")
            },
        }

        # --- ledger linearity ---------------------------------------
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
        f"cost-oracle memo hit rate: steady state "
        f"{memo['hit_rate_steady']:.3f} (floor {MEMO_HIT_RATE_FLOOR}), "
        f"overall {memo['hit_rate_overall']:.3f}; "
        f"{memo['cold_misses']} cold misses (ceiling "
        f"{MEMO_COLD_MISS_CEILING}), "
        f"{memo['steady_lookups_per_step']:.0f} lookups per steady step "
        f"(ceiling {MEMO_STEADY_LOOKUPS_CEILING})\n"
        f"ledger add+peek: {acc['n']} recs {acc['seconds_n'] * 1e3:.2f} "
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

    assert memo["hit_rate_steady"] >= MEMO_HIT_RATE_FLOOR
    assert memo["cold_misses"] <= MEMO_COLD_MISS_CEILING, memo
    assert memo["steady_lookups_per_step"] <= MEMO_STEADY_LOOKUPS_CEILING, memo
    assert acc["ratio"] <= ACCUMULATOR_RATIO_CEILING, acc
