"""Memoised cost oracles and the running step-cost ledger.

Covers the memoisation layer's hit/miss counters and metrics export
(:mod:`repro.parallel.memo`), plus the ``+`` fold the agent's ledgers
run against a field-by-field list merge.
"""

import pytest

from repro.backend import StepCost
from repro.nn import build_network, scaled_drone_net_spec
from repro.obs import MetricsRegistry, observed
from repro.parallel import (
    cache,
    clear_memo_caches,
    memo_stats,
    memoised,
    publish_memo_metrics,
)

SIDE = 16


def make_net(seed: int = 0):
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


class TestMemoisation:
    def test_hit_miss_counters(self):
        calls = []

        @memoised("test_parallel_sq")
        def sq(x):
            calls.append(x)
            return x * x

        sq.memo.clear()
        assert sq(3) == 9 and sq(3) == 9 and sq(4) == 16
        assert calls == [3, 4]
        assert sq.memo.hits == 1 and sq.memo.misses == 2
        assert sq.memo.hit_rate == pytest.approx(1 / 3)

    def test_oracle_calls_are_memoised(self):
        from repro.systolic.cycles import conv_rowstationary_stats

        clear_memo_caches()
        table = cache("conv_rowstationary_stats")
        a = conv_rowstationary_stats(3, 16, 16, 8, 3, 3)
        b = conv_rowstationary_stats(3, 16, 16, 8, 3, 3)
        assert a == b
        assert table.hits == 1 and table.misses == 1

    def test_network_cost_signature_shares_entries(self):
        from repro.systolic.training import network_training_step_cost

        clear_memo_caches()
        cost_a = network_training_step_cost(make_net(0), (1, SIDE, SIDE), 4)
        # A different weight draw of the same topology must hit: the
        # closed-form cost depends only on shapes, not values.
        cost_b = network_training_step_cost(make_net(1), (1, SIDE, SIDE), 4)
        assert cost_a.total_cycles == cost_b.total_cycles
        table = cache("network_training_step_cost")
        assert table.hits == 1 and table.misses == 1

    def test_publish_memo_metrics_gauges(self):
        clear_memo_caches()
        from repro.systolic.cycles import fc_tile_stats

        fc_tile_stats(64, 32)
        fc_tile_stats(64, 32)
        registry = MetricsRegistry()
        with observed(registry=registry):
            stats = publish_memo_metrics()
        gauges = registry.snapshot()["gauges"]
        key = 'repro_memo_hits{oracle="fc_tile_stats"}'
        assert gauges[key] == 1.0
        assert gauges["repro_memo_hit_rate_overall"] > 0.0
        assert stats["fc_tile_stats"]["hit_rate"] == 0.5
        assert memo_stats()["fc_tile_stats"]["entries"] == 1


def _plain(states, cycles, macs):
    return StepCost(
        backend="systolic", states=states, macs=macs,
        layer_cycles={"conv1": cycles},
        shard_cycles=(cycles,), critical_path_cycles=cycles,
    )


def _sharded(states, per_array, merge=7):
    return StepCost(
        backend="sharded", states=states, macs=states * 10,
        layer_cycles={"conv1": sum(per_array)}, shards=len(per_array),
        shard_cycles=tuple(per_array),
        critical_path_cycles=max(per_array) + merge, merge_cycles=merge,
        noc="ring",
    )


def merge_step_costs(costs, backend=""):
    """Reference list merge, written field by field: what a run of
    records must sum to."""
    width = max((len(c.shard_cycles) for c in costs), default=0)
    return StepCost(
        backend=backend or next((c.backend for c in costs if c.backend), ""),
        states=sum(c.states for c in costs),
        macs=sum(c.macs for c in costs),
        layer_cycles={
            name: sum(c.layer_cycles.get(name, 0) for c in costs)
            for c in costs for name in c.layer_cycles
        },
        shards=max((c.shards for c in costs), default=1),
        shard_cycles=tuple(
            sum(c.shard_cycles[i] for c in costs if i < len(c.shard_cycles))
            for i in range(width)
        ),
        critical_path_cycles=sum(c.critical_path_cycles for c in costs),
        merge_cycles=sum(c.merge_cycles for c in costs),
        merge_hops=sum(c.merge_hops for c in costs),
        fill_drain_cycles=sum(c.fill_drain_cycles for c in costs),
        noc=next((c.noc for c in reversed(costs) if c.noc != "flat"), "flat"),
    )


class TestStepCostAccumulator:
    """The agent's running ledger: ``ledger = ledger + cost``."""

    SEQUENCES = {
        "plain_only": [_plain(4, 100, 40), _plain(2, 60, 20)],
        "sharded_only": [_sharded(8, (50, 80, 20)), _sharded(4, (30, 10, 90))],
        # A plain record *before* the first sharded one must still charge
        # array 0 of the merged sharded total.
        "plain_then_sharded": [_plain(4, 100, 40), _sharded(8, (50, 80, 20))],
        "sharded_then_plain": [_sharded(8, (50, 80, 20)), _plain(4, 100, 40)],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_matches_merge_step_costs(self, name):
        costs = self.SEQUENCES[name]
        acc = StepCost()
        for c in costs:
            acc = acc + c
        assert acc == merge_step_costs(list(costs))

    def test_total_cycles_peek_and_drain(self):
        from repro.rl import QLearningAgent, config_by_name

        agent = QLearningAgent(make_net(), config=config_by_name("L4"))
        agent._pending_costs = agent._pending_costs + _sharded(8, (50, 80, 20))
        agent._pending_costs = agent._pending_costs + _plain(4, 100, 40)
        assert agent.pending_inference_cycles() == merge_step_costs(
            [_sharded(8, (50, 80, 20)), _plain(4, 100, 40)]
        ).total_cycles
        merged = agent.drain_inference_cost()
        assert merged.shards == 3 and merged.shard_cycles == (150, 80, 20)
        assert agent.pending_inference_cycles() == 0
        assert agent.drain_inference_cost() == merge_step_costs(
            [], backend="numpy"
        )
