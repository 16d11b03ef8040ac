"""Sharded multi-array backend and the double-buffered weight bus.

Contracts under test:

* ``ShardedBackend`` is **bitwise-equal** in Q values to the
  single-array ``SystolicBackend`` for every shard policy, over
  K in {1, 2, 4} and uneven batch sizes — splitting a batch or slicing
  an output dimension must not change one bit of the fixed-point
  datapath's results;
* a sharded ``StepCost`` separates work (summed layer cycles) from
  wall-clock (critical path = slowest array + merge traffic), and
  summed records accumulate critical paths serially;
* the price of every plan — the three policies' and random mixed
  ones — equals the executing reference (``tests/sharded_reference.py``)
  field for field — forward and training, with arrays killed and chaos
  stretching the schedule — over plan x K x NoC x batch x survivor set
  (hypothesis);
* sample sharding at K=4 serves the fleet observation batch in
  <= 0.3x the single-array cycle budget (the multi-array payoff);
* the ``WeightBus`` flips the serving snapshot every ``sync_every``
  published updates, tracks the staleness served, and at
  ``sync_every <= 4`` the stale fixed-point policy still agrees with
  the float policy on >= 0.95 of seeded rollout states.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    BACKENDS,
    ShardedBackend,
    ShardPlan,
    StepCost,
    SystolicBackend,
    WeightBus,
    make_backend,
)
from repro.faults import FaultPlan, chaos
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.nn.layers import Conv2D
from repro.nn.network import Network
from repro.obs import MetricsRegistry, observed
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name
from sharded_reference import reference_forward, reference_train_cost

SIDE = 16


def make_net(seed: int = 0) -> Network:
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


#: Read-only network shared by the property tests (backends never
#: write the float weights they serve).
NET = make_net()
LAST_PARAM = max(i for i, _layer in NET.parametric_layers())
LAYER_NAMES = tuple(layer.name for _i, layer in NET.parametric_layers())


@pytest.fixture(scope="module")
def stale_rollout():
    """A fleet trained through a sharded backend at sync_every=4.

    Returns (agent, replay states) after a multi-round run in which the
    datapath served snapshots up to 3 updates stale.
    """
    vec_env = VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=[0, 1, 2, 3],
        image_side=SIDE,
        max_episode_steps=100,
    )
    network = make_net()
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=0,
        batch_size=4,
        backend=ShardedBackend(network, shards=4, shard="sample"),
        sync_every=4,
    )
    scheduler = FleetScheduler(agent, vec_env, train_every=2, eval_steps=10)
    report = scheduler.run(rounds=2, steps_per_round=40)
    states, _, _, _, _ = agent.replay.sample(128, np.random.default_rng(7))
    return agent, states, report


class TestRegistryAndValidation:
    def test_registered(self):
        assert "sharded" in BACKENDS
        backend = make_backend("sharded", make_net(), shards=2, shard="layer")
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 2 and backend.shard == "layer"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedBackend(make_net(), shards=0)
        with pytest.raises(ValueError, match="shard policy"):
            ShardedBackend(make_net(), shards=2, shard="column")
        with pytest.raises(ValueError, match="topology"):
            ShardedBackend(make_net(), shards=2, noc="torus")

    def test_pipeline_policy_accepted(self):
        backend = ShardedBackend(make_net(), shards=2, shard="pipeline")
        assert backend.shard == "pipeline"
        assert backend.noc == "flat"

    def test_state_batch_shape_validated(self):
        with pytest.raises(ValueError, match="state batch"):
            ShardedBackend(make_net()).forward_batch(np.zeros((SIDE, SIDE)))


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("policy", ["sample", "layer", "pipeline"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 5, 8])
    def test_matches_single_array(self, policy, shards, batch):
        net = make_net()
        rng = np.random.default_rng(batch * 17 + shards)
        states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        backend = ShardedBackend(net, shards=shards, shard=policy)
        with observed(registry=MetricsRegistry()) as (tracer, _):
            q, cost = backend.forward_batch(states)
        assert np.array_equal(q, ref_q)
        assert cost.shards == shards
        assert len(cost.shard_cycles) == shards
        if policy == "sample":
            # One back-dated span per non-empty chunk, in shard order,
            # each carrying that chunk's own forward cycles; a batch
            # narrower than K leaves the idle arrays without a span.
            chunks = [
                c for c in np.array_split(states, shards) if c.shape[0] > 0
            ]
            spans = [s for s in tracer.spans if s.name == "shard.forward"]
            assert len(spans) == len(chunks) == min(batch, shards)
            assert [s.args["shard"] for s in spans] == list(range(len(chunks)))
            assert [s.args["states"] for s in spans] == [
                c.shape[0] for c in chunks
            ]
            assert [s.cycles for s in spans] == [
                SystolicBackend(net).forward_batch(c)[1].total_cycles
                for c in chunks
            ]

    def test_uneven_batch_across_arrays(self, rng):
        """7 states over 4 arrays: chunk sizes 2/2/2/1, still bitwise."""
        net = make_net()
        states = rng.uniform(0, 1, size=(7, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert np.array_equal(q, ref_q)
        # The short chunk burns fewer cycles than the long ones.
        assert cost.shard_cycles[3] < cost.shard_cycles[0]

    def test_batch_narrower_than_arrays(self, rng):
        """2 states over 4 arrays: two arrays sit idle, still bitwise."""
        net = make_net()
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert np.array_equal(q, ref_q)
        assert cost.shard_cycles[2] == 0 and cost.shard_cycles[3] == 0

    def test_layer_narrower_than_arrays(self, rng):
        """K=8 > FC5's 5 outputs: some arrays idle on that layer."""
        net = make_net()
        states = rng.uniform(0, 1, size=(3, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, _ = ShardedBackend(net, shards=8, shard="layer").forward_batch(states)
        assert np.array_equal(q, ref_q)

    def test_sync_broadcasts_updates_to_all_arrays(self, rng):
        states = rng.uniform(0, 1, size=(4, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            net = make_net()
            backend = ShardedBackend(net, shards=3, shard=policy)
            stale_q = backend.forward_batch(states)[0]
            for p in net.parameters():
                p.value = p.value + 0.01
            # Without sync every array still serves the old download.
            assert np.array_equal(backend.forward_batch(states)[0], stale_q)
            backend.sync()
            fresh_q = backend.forward_batch(states)[0]
            assert np.array_equal(
                fresh_q, SystolicBackend(net).forward_batch(states)[0]
            )
            assert not np.array_equal(fresh_q, stale_q)


class TestShardCost:
    def test_sample_critical_path_is_slowest_array_plus_merge(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        _, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert cost.critical_path_cycles == max(cost.shard_cycles) + cost.merge_cycles
        # Work is the per-array total; layer_cycles sum to it.
        assert cost.total_cycles == sum(cost.shard_cycles)
        assert cost.total_cycles == sum(cost.layer_cycles.values())
        # Q-value gather: 3 non-root arrays x 2 states x 5 actions.
        assert cost.merge_cycles == 3 * 2 * 5
        assert 1.0 < cost.parallel_speedup <= 4.0
        assert 0.0 < cost.scaling_efficiency <= 1.0
        assert cost.critical_path_seconds() == pytest.approx(
            cost.critical_path_cycles / 1e9
        )

    def test_layer_policy_charges_merge_and_broadcast(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        _, cost = ShardedBackend(net, shards=2, shard="layer").forward_batch(
            states
        )
        assert cost.merge_cycles > 0
        assert cost.critical_path_cycles > cost.merge_cycles
        assert cost.critical_path_cycles < cost.total_cycles
        assert cost.total_cycles == sum(cost.shard_cycles)

    def test_single_shard_is_the_single_array_cost(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(4, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, cost = ShardedBackend(net, shards=1, shard="sample").forward_batch(
            states
        )
        assert cost.total_cycles == single.total_cycles
        assert cost.critical_path_cycles == single.total_cycles
        assert cost.merge_cycles == 0

    def test_k4_serves_fleet_batch_under_a_third_of_single_array(self, rng):
        """The acceptance bound: K=4 sample sharding's critical path is
        <= 0.3x the single-array cycles on the fleet observation batch."""
        net = make_net()
        states = rng.uniform(0, 1, size=(64, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert cost.critical_path_cycles <= 0.3 * single.total_cycles

    def test_critical_shard_index_is_argmax_of_shard_cycles(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            _, cost = ShardedBackend(
                net, shards=4, shard=policy
            ).forward_batch(states)
            slowest = max(
                range(len(cost.shard_cycles)),
                key=cost.shard_cycles.__getitem__,
            )
            assert cost.critical_shard_index == slowest, policy

    def test_critical_shard_index_ties_go_to_lowest(self):
        cost = StepCost(
            backend="sharded", states=4, layer_cycles={"FC1": 60},
            shards=3, shard_cycles=(20, 25, 25),
            critical_path_cycles=30, merge_cycles=5,
        )
        assert cost.critical_shard_index == 1
        merged = cost + cost
        # (40, 50, 50): arrays 1 and 2 tie; the recompute picks 1.
        assert merged.critical_shard_index == 1

    def test_merge_recomputes_critical_shard_from_merged_totals(self):
        a = StepCost(
            backend="sharded", states=2, layer_cycles={"FC1": 50},
            shards=2, shard_cycles=(10, 40),
            critical_path_cycles=45, merge_cycles=5,
        )
        b = StepCost(
            backend="sharded", states=2, layer_cycles={"FC1": 60},
            shards=2, shard_cycles=(50, 10),
            critical_path_cycles=55, merge_cycles=5,
        )
        assert (a.critical_shard_index, b.critical_shard_index) == (1, 0)
        merged = a + b
        # Merged totals (60, 50): array 0 carried the most overall even
        # though each input named a different slowest array.
        assert merged.critical_shard_index == 0

    def test_plain_cost_critical_shard_is_array_zero(self):
        cost = StepCost(backend="systolic", states=2, layer_cycles={"FC1": 9})
        assert cost.critical_shard_index == 0

    def test_merge_accumulates_critical_paths_serially(self):
        a = StepCost(
            backend="sharded", states=4, macs=10,
            layer_cycles={"CONV1": 100}, shards=2, shard_cycles=(60, 40),
            critical_path_cycles=70, merge_cycles=10,
        )
        b = StepCost(
            backend="sharded", states=2, macs=5,
            layer_cycles={"CONV1": 50}, shards=2, shard_cycles=(25, 25),
            critical_path_cycles=30, merge_cycles=5,
        )
        merged = a + b
        assert merged.shards == 2
        assert merged.shard_cycles == (85, 65)
        assert merged.critical_path_cycles == 100
        assert merged.merge_cycles == 15
        assert merged.total_cycles == 150

    def test_merge_mixes_plain_costs_onto_array_zero(self):
        # A single-array record, as SystolicBackend builds it.
        plain = StepCost(
            backend="systolic", states=1, layer_cycles={"FC1": 20},
            shard_cycles=(20,), critical_path_cycles=20,
        )
        shard = StepCost(
            backend="sharded", states=2, layer_cycles={"FC1": 30},
            shards=2, shard_cycles=(18, 12),
            critical_path_cycles=20, merge_cycles=2,
        )
        merged = plain + shard
        assert merged.shards == 2
        assert merged.shard_cycles == (38, 12)
        # The plain record's cycles are its own critical path.
        assert merged.critical_path_cycles == 40

    def test_plain_cost_exposes_single_array_view(self, rng):
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        for cost in (
            SystolicBackend(make_net()).forward_batch(states)[1],
            SystolicBackend(make_net()).train_cost(2, (1, SIDE, SIDE)),
        ):
            assert cost.shards == 1
            assert cost.critical_path_cycles == cost.total_cycles > 0
            assert cost.shard_cycles == (cost.total_cycles,)
            assert cost.merge_cycles == 0


class TestWeightBus:
    def test_flips_every_sync_every_publishes(self, rng):
        net = make_net()
        backend = SystolicBackend(net)
        bus = WeightBus(backend, sync_every=3)
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        stale_q = backend.forward_batch(states)[0]
        flipped = []
        for _ in range(3):
            for p in net.parameters():
                p.value = p.value + 0.01
            flipped.append(bus.publish())
        assert flipped == [False, False, True]
        assert bus.flips == 1 and bus.publishes == 3 and bus.staleness == 0
        # Only the flip refreshed the serving snapshot.
        fresh_q = backend.forward_batch(states)[0]
        assert not np.array_equal(fresh_q, stale_q)
        assert np.array_equal(fresh_q, SystolicBackend(net).forward_batch(states)[0])

    def test_serving_snapshot_stays_stale_between_flips(self, rng):
        net = make_net()
        backend = SystolicBackend(net)
        bus = WeightBus(backend, sync_every=4)
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        before = backend.forward_batch(states)[0]
        for p in net.parameters():
            p.value = p.value + 0.01
        bus.publish()
        assert bus.staleness == 1
        assert np.array_equal(backend.forward_batch(states)[0], before)
        bus.flip()  # forced download
        assert bus.staleness == 0
        assert not np.array_equal(backend.forward_batch(states)[0], before)

    def test_serve_staleness_accounting(self):
        bus = WeightBus(SystolicBackend(make_net()), sync_every=4)
        bus.note_serve(4)       # staleness 0
        bus.publish()
        bus.note_serve(4)       # staleness 1
        bus.publish()
        bus.note_serve(2)       # staleness 2
        assert bus.drain_serve_staleness() == pytest.approx((4 * 1 + 2 * 2) / 10)
        assert bus.drain_serve_staleness() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sync_every"):
            WeightBus(SystolicBackend(make_net()), sync_every=0)

    def test_agent_default_is_synchronous(self):
        agent = QLearningAgent(make_net(), config=config_by_name("L4"), seed=0)
        assert agent.weight_bus.sync_every == 1


class TestNocModel:
    def test_flat_reduces_to_one_cycle_per_element(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="flat", nodes=8)
        for src, dst in ((0, 1), (0, 7), (3, 5)):
            assert noc.hops(src, dst) == 1
            # The degenerate model: n elements, n cycles, regardless of
            # distance — exactly the legacy merge charge.
            assert noc.transfer_cycles(123, src, dst) == 123
        assert noc.transfer_cycles(9, 2, 2) == 0
        assert noc.transfer_cycles(0, 0, 1) == 0
        assert noc.words_per_cycle == 1

    def test_ring_takes_the_short_way_around(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="ring", nodes=8, link_bits=128, word_bits=16)
        assert noc.hops(0, 1) == 1
        assert noc.hops(0, 4) == 4
        assert noc.hops(0, 5) == 3  # backwards: 0 -> 7 -> 6 -> 5
        assert noc.words_per_cycle == 8
        # 17 elements = 3 beats, times 3 hops, store-and-forward.
        assert noc.transfer_cycles(17, 0, 5) == 9
        assert noc.element_hops(17, 0, 5) == 51

    def test_mesh_pays_manhattan_distance(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="mesh", nodes=8)  # 2 rows x 4 cols
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 7) == 4  # (0,0) -> (1,3)
        assert noc.transfer_cycles(17, 0, 7) == 12  # ceil(17/8) * 4

    def test_validation(self):
        from repro.systolic.noc import NocModel

        with pytest.raises(ValueError, match="topology"):
            NocModel(topology="torus", nodes=4)
        with pytest.raises(ValueError, match="nodes"):
            NocModel(topology="ring", nodes=0)
        with pytest.raises(ValueError, match="narrower"):
            NocModel(topology="ring", nodes=4, link_bits=8, word_bits=16)
        with pytest.raises(ValueError, match="outside"):
            NocModel(topology="ring", nodes=4).hops(0, 4)

    def test_flat_merge_equals_hops_on_every_policy(self, rng):
        """Flat: 1 hop, 1 word/cycle, so merge cycles == element-hops —
        the exact-reduction invariant the pinned numbers rely on."""
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            backend = ShardedBackend(net, shards=4, shard=policy, noc="flat")
            _, cost = backend.forward_batch(states)
            assert cost.merge_cycles == cost.merge_hops, policy
            assert cost.noc == "flat"

    def test_topology_changes_cost_but_not_bits(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        ref_q, flat = ShardedBackend(
            net, shards=4, shard="layer", noc="flat"
        ).forward_batch(states)
        for topo in ("ring", "mesh"):
            q, cost = ShardedBackend(
                net, shards=4, shard="layer", noc=topo
            ).forward_batch(states)
            assert np.array_equal(q, ref_q), topo
            assert cost.noc == topo
            assert cost.merge_cycles != flat.merge_cycles
            # Wide links: a beat moves 8 words, so hop-priced cycles
            # sit below the element-hop traffic volume.
            assert cost.merge_cycles < cost.merge_hops


class TestPipelineSchedule:
    def test_uniform_width1_matches_hand_count(self):
        """4 chunks through 3 width-1 stages at 10 cycles each:
        makespan (4 + 3 - 1) * 10, fill/drain (3 - 1) * 10."""
        from repro.backend.sharded import _pipeline_schedule

        times = [[10] * 4 for _ in range(3)]
        critical, busy, assign = _pipeline_schedule(times, [1, 1, 1])
        assert critical == (4 + 3 - 1) * 10
        assert busy == [[40], [40], [40]]
        assert critical - max(max(b) for b in busy) == (3 - 1) * 10
        assert all(stage == [0, 0, 0, 0] for stage in assign)

    def test_replicated_stage_takes_chunks_round_robin(self):
        from repro.backend.sharded import _pipeline_schedule

        critical, busy, assign = _pipeline_schedule([[10] * 4], [2])
        # Two arrays drain four chunks in two waves.
        assert critical == 20
        assert busy == [[20, 20]]
        assert assign == [[0, 1, 0, 1]]

    def test_backend_fill_drain_matches_schedule_decomposition(self, rng):
        """critical == bottleneck busy + fill/drain + merge, and the
        fill/drain bubble is non-negative by construction."""
        net = make_net()
        states = rng.uniform(0, 1, size=(16, 1, SIDE, SIDE))
        for shards in (2, 4):
            _, cost = ShardedBackend(
                net, shards=shards, shard="pipeline"
            ).forward_batch(states)
            assert cost.fill_drain_cycles >= 0
            assert cost.critical_path_cycles == (
                max(cost.shard_cycles) + cost.fill_drain_cycles + cost.merge_cycles
            )

    def test_explicit_chunk_hand_count(self):
        """The pipeline's stages priced over 4 equal micro-batches of a
        16-row batch: each stage's per-chunk time is busy/4 and the
        priced fill/drain must reproduce from the schedule recurrence
        by hand."""
        from dataclasses import replace

        from repro.backend.sharded import _pipeline_schedule

        backend = ShardedBackend(make_net(), shards=2, shard="pipeline")
        plan = replace(
            backend.plan(16, (1, SIDE, SIDE), (0, 1)), sizes=(4, 4, 4, 4)
        )
        assert plan.arrays == ((0,), (1,))
        cost = backend._price(plan, (1, SIDE, SIDE), None).cost
        times = [
            [cost.shard_cycles[arrays[0]] // 4] * 4 for arrays in plan.arrays
        ]
        critical, _busy, _assign = _pipeline_schedule(times, [1, 1])
        assert cost.fill_drain_cycles == critical - max(cost.shard_cycles) > 0

    def test_pipeline_beats_layer_sharding_at_k8(self, rng):
        """The tentpole claim: where layer sharding collapses (0.59
        efficiency at K=8), the pipeline stays >= 0.75."""
        net = make_net()
        states = rng.uniform(0, 1, size=(64, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, layer = ShardedBackend(net, shards=8, shard="layer").forward_batch(states)
        _, pipe = ShardedBackend(net, shards=8, shard="pipeline").forward_batch(states)
        assert pipe.critical_path_cycles < layer.critical_path_cycles
        eff = single.total_cycles / pipe.critical_path_cycles / 8
        assert eff >= 0.75

    def test_stage_plan_partitions_model_not_batch(self, rng):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="pipeline")
        plan = backend.plan(8, (1, SIDE, SIDE), (0, 1, 2, 3))
        assert len(plan.arrays) >= 2  # never degenerates to data parallelism
        assert set(plan.splits) == {"batch"}
        flat_arrays = [a for arrays in plan.arrays for a in arrays]
        assert sorted(flat_arrays) == [0, 1, 2, 3]  # disjoint coverage
        # Stage bounds tile the parametric layers contiguously.
        assert plan.bounds[0] == 0
        assert plan.bounds[-1] == len(net.parametric_layers())
        assert all(lo < hi for lo, hi in zip(plan.bounds, plan.bounds[1:]))
        assert len(plan.bounds) == len(plan.arrays) + 1
        assert sum(plan.sizes) == 8


def _output_slices(plan):
    """``{layer index: (array, lo, hi) slices}`` of a one-stage
    output-split plan over ``NET``'s parametric layers."""
    assert plan.splits == ("output",)
    return {
        index: plan.output_slices(
            0, layer.out_channels if isinstance(layer, Conv2D)
            else layer.out_features,
        )
        for index, layer in NET.parametric_layers()
    }


class TestShardEdgeCases:
    def test_zero_row_chunks_after_crash_failover(self):
        """batch=1 over K=4 with one array crashed: the three surviving
        arrays would get 1/0/0 rows — the empty chunks must neither
        dispatch nor charge merge traffic."""
        from repro.faults.injector import FAULTS, FaultPlan, chaos

        net = make_net()
        states = np.random.default_rng(3).uniform(0, 1, size=(1, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        for policy in ("sample", "pipeline"):
            backend = ShardedBackend(net, shards=4, shard=policy)
            with chaos(FaultPlan(seed=0, shard_crashes=((1, 2),))) as inj:
                inj.note_step()
                q, cost = backend.forward_batch(states)
            assert np.array_equal(q, ref_q), policy
            # One row of work exists; idle and dead arrays charge zero.
            assert cost.shard_cycles[2] == 0, policy
            assert sum(1 for c in cost.shard_cycles if c > 0) >= 1
            # No gather traffic for rows that never moved: the single
            # chunk lives on one array end to end under sample; under
            # pipeline only real stage hand-offs charge.
            if policy == "sample":
                assert cost.merge_cycles == 0
            assert cost.merge_cycles == cost.merge_hops  # flat

    def test_consumer_accounting_matches_plan_walk(self, rng):
        """Pin the layer-policy all-gather charge: walk the
        ``(array, lo, hi)`` plan and charge ``(consumers - hub) *
        activation + gather`` by hand; the backend's flat-NoC merge must
        agree exactly.  K=8 makes FC5 (5 outputs) narrower than the
        array count, so consumer sets shrink and shift between layers —
        the case the charge could double- or under-count."""
        net = make_net()
        states = rng.uniform(0, 1, size=(3, 1, SIDE, SIDE))
        backend = ShardedBackend(net, shards=8, shard="layer")
        _, cost = backend.forward_batch(states)

        plan = _output_slices(backend.plan(3, (1, SIDE, SIDE), tuple(range(8))))
        x = np.asarray(states, dtype=np.float64)
        expected = 0
        hub = None
        narrow_seen = False
        for index, layer in enumerate(net.layers):
            slices = plan.get(index)
            if slices is not None:
                consumers = {k for k, _lo, _hi in slices}
                if len(consumers) < 8:
                    narrow_seen = True
                if hub is not None:
                    # Hub consumes its own copy free; every other
                    # consumer's link carries the full activation once.
                    expected += len(consumers - {hub}) * x.size
            x = layer.forward(x, training=False)
            if slices is not None:
                widths = [hi - lo for _k, lo, hi in slices]
                hub = slices[0][0]
                expected += x.size - x.size * widths[0] // sum(widths)
        assert narrow_seen  # FC5's 5 outputs over 8 arrays
        assert cost.merge_cycles == expected

    def test_idle_arrays_receive_no_broadcast(self):
        """An array with no slice of a narrow layer is not a consumer —
        it must not appear in that layer's plan at all; the slices that
        remain tile the layer's outputs contiguously, over survivors
        only (all 8 arrays, then 6 after two crashes)."""
        net = make_net()
        backend = ShardedBackend(net, shards=8, shard="layer")
        for alive in (tuple(range(8)), (0, 2, 3, 5, 6, 7)):
            plan = _output_slices(backend.plan(3, (1, SIDE, SIDE), alive))
            assert sorted(plan) == [i for i, _layer in net.parametric_layers()]
            narrow = [s for s in plan.values() if len(s) < len(alive)]
            assert narrow  # FC5 is narrower than the survivors
            for index, slices in plan.items():
                layer = net.layers[index]
                width = (
                    layer.out_channels if isinstance(layer, Conv2D)
                    else layer.out_features
                )
                ks = [k for k, _lo, _hi in slices]
                assert len(set(ks)) == len(ks) and set(ks) <= set(alive)
                assert ks == sorted(ks)
                assert all(hi > lo for _k, lo, hi in slices)
                # Contiguous slices covering [0, width).
                assert slices[0][1] == 0 and slices[-1][2] == width
                assert all(a[2] == b[1] for a, b in zip(slices, slices[1:]))


#: Pinned sharded bills: (call, policy, K, NoC, batch, killed arrays,
#: (critical, merge, merge hops, fill/drain, summed per-array cycles,
#: MACs), per-layer work cycles).  ``train-frozen`` trains only the last
#: parametric layer; ``forward`` runs ``forward_batch``.
PINNED_BILLS = [
    ("train", "sample", 4, "flat", 16, (),
     (519608, 42207, 42207, 0, 1909604, 1709568),
     (684036, 538544, 85680, 336416, 170016, 84624, 10288)),
    ("train-frozen", "sample", 8, "ring", 33, (),
     (187375, 336, 2640, 0, 1235947, 1185888),
     (428000, 349440, 55824, 216960, 109792, 54768, 21163)),
    ("train", "sample", 3, "mesh", 7, (),
     (366218, 5277, 42207, 0, 852207, 747936),
     (299347, 235607, 39525, 155342, 78542, 39063, 4781)),
    ("train", "pipeline", 4, "flat", 16, (),
     (700200, 20480, 20480, 20446, 2085200, 1709568),
     (684816, 553232, 105264, 414752, 209952, 104208, 12976)),
    ("train", "pipeline", 8, "ring", 33, (),
     (674479, 19010, 152050, 42801, 4300725, 3525984),
     (1412433, 1141041, 217107, 855426, 433026, 214929, 26763)),
    ("train-frozen", "pipeline", 3, "mesh", 33, (),
     (448587, 600, 4800, 12651, 1262547, 1185888),
     (429000, 359040, 57024, 221760, 112992, 55968, 26763)),
    ("train-frozen", "pipeline", 8, "ring", 33, (),
     (192306, 1011, 8058, 14482, 1262547, 1185888),
     (429000, 359040, 57024, 221760, 112992, 55968, 26763)),
    ("train", "pipeline", 6, "mesh", 7, (),
     (272652, 3223, 25781, 83957, 912275, 747936),
     (299607, 242039, 46053, 181454, 91854, 45591, 5677)),
    ("forward", "sample", 4, "flat", 16, (),
     (148152, 60, 60, 0, 592368, 569856),
     (207520, 169472, 27072, 105216, 53248, 26560, 3280)),
    ("forward", "sample", 8, "ring", 5, (),
     (37687, 10, 50, 0, 188385, 178080),
     (65000, 54400, 8640, 33600, 17120, 8480, 1145)),
    ("forward", "sample", 4, "mesh", 7, (1,),
     (111293, 6, 30, 0, 260251, 249312),
     (90840, 74624, 11904, 46272, 23456, 11680, 1475)),
    ("forward", "layer", 4, "flat", 16, (),
     (176842, 26560, 26560, 0, 599544, 569856),
     (207400, 168320, 27200, 107904, 55040, 28864, 4816)),
    ("forward", "layer", 8, "ring", 33, (),
     (187600, 28462, 227370, 0, 1266573, 1175328),
     (427720, 346752, 58208, 235200, 121952, 65856, 10885)),
    ("forward", "layer", 4, "mesh", 7, (2,),
     (96259, 1722, 13727, 0, 261067, 249312),
     (90760, 73856, 11808, 46656, 23712, 12352, 1923)),
    ("forward", "pipeline", 4, "flat", 16, (),
     (200341, 1024, 1024, 5349, 602832, 569856),
     (208000, 174080, 27648, 107520, 54784, 27136, 3664)),
    ("forward", "pipeline", 8, "ring", 3, (),
     (37761, 84, 663, 13000, 113031, 106848),
     (39000, 32640, 5184, 20160, 10272, 5088, 687)),
    ("forward", "pipeline", 6, "mesh", 33, (0,),
     (290386, 112, 848, 27594, 1243341, 1175328),
     (429000, 359040, 57024, 221760, 112992, 55968, 7557)),
]


def _pin_id(index: int, row) -> str:
    call, policy, shards, noc, batch, killed = row[:6]
    if call == "forward":
        return f"forward-{policy}-{shards}-{noc}-{batch}-killed{len(killed)}"
    return f"{policy}-{shards}-{noc}-{batch}-{call == 'train-frozen'}-expected{index}"


class TestModelParallelTraining:
    def test_layer_policy_no_longer_falls_back_to_data_parallel(self):
        net = make_net()
        sample = ShardedBackend(net, shards=4, shard="sample")
        layer = ShardedBackend(net, shards=4, shard="layer")
        tc_sample = sample.train_cost(16, (1, SIDE, SIDE), first_trainable=0)
        tc_layer = layer.train_cost(16, (1, SIDE, SIDE), first_trainable=0)
        # Distinct cost structure: model-parallel slices, not K copies
        # of the whole network over batch chunks.
        assert tc_layer.shard_cycles != tc_sample.shard_cycles
        assert tc_layer.merge_cycles != tc_sample.merge_cycles
        grad_elements = sum(p.size for p in net.parameters(0))
        # The data-parallel signature charge — (K-1) full weight
        # gradients — is gone: dW stays on the array that applies it.
        assert tc_sample.merge_cycles == 3 * grad_elements

    def test_frozen_prefix_training_merge_equals_inference_merge(self, rng):
        """With only the last parametric layer trainable there is no
        dX to reduce below it, so the layer policy's training traffic
        is exactly the forward broadcast/gather inference pays."""
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="layer")
        batch = 6
        states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
        _, inf = backend.forward_batch(states)
        last_param = max(i for i, _l in net.parametric_layers())
        tc = backend.train_cost(batch, (1, SIDE, SIDE), first_trainable=last_param)
        assert tc.merge_cycles == inf.merge_cycles

    def test_full_training_adds_backward_traffic(self, rng):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="layer")
        last_param = max(i for i, _l in net.parametric_layers())
        frozen = backend.train_cost(8, (1, SIDE, SIDE), first_trainable=last_param)
        full = backend.train_cost(8, (1, SIDE, SIDE), first_trainable=0)
        assert full.merge_cycles > frozen.merge_cycles
        assert full.critical_path_cycles > frozen.critical_path_cycles
        assert max(full.shard_cycles) > 0
        assert full.critical_path_cycles >= max(full.shard_cycles)

    def test_pipeline_training_charges_bubbles_and_boundaries(self):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="pipeline")
        tc = backend.train_cost(32, (1, SIDE, SIDE), first_trainable=0)
        assert tc.fill_drain_cycles > 0
        assert tc.merge_cycles > 0
        assert tc.critical_path_cycles == (
            max(tc.shard_cycles) + tc.fill_drain_cycles + tc.merge_cycles
        )
        # Pipelined training beats the naive serial sum of its stages.
        assert tc.critical_path_cycles < sum(tc.shard_cycles)

    @pytest.mark.parametrize(
        "call,policy,shards,noc,batch,killed,expected,layers", PINNED_BILLS,
        ids=[_pin_id(i, row) for i, row in enumerate(PINNED_BILLS)],
    )
    def test_train_cost_pinned(
        self, call, policy, shards, noc, batch, killed, expected, layers
    ):
        """Pinned training-step and forward bills — (critical, merge,
        merge hops, fill/drain, summed per-array cycles, MACs) plus the
        per-layer work cycles: re-planning or re-pricing the schedule
        may not move one cycle of them.  ``train-frozen`` trains only
        the last parametric layer; ``killed`` arrays crash before the
        call (a forward on the survivors)."""
        backend = ShardedBackend(NET, shards=shards, shard=policy, noc=noc)
        plan = FaultPlan(seed=0, shard_crashes=tuple((1, k) for k in killed))
        with chaos(plan) as inj:
            inj.note_step()
            if call == "forward":
                states = np.random.default_rng(batch).uniform(
                    0, 1, size=(batch, 1, SIDE, SIDE)
                )
                cost = backend.forward_batch(states)[1]
            else:
                cost = backend.train_cost(
                    batch, (1, SIDE, SIDE),
                    first_trainable=LAST_PARAM if call == "train-frozen" else 0,
                )
        assert (
            cost.critical_path_cycles, cost.merge_cycles, cost.merge_hops,
            cost.fill_drain_cycles, sum(cost.shard_cycles), cost.macs,
        ) == expected
        assert cost.layer_cycles == dict(zip(LAYER_NAMES, layers))

    def test_train_cost_merge_survives_accumulation(self):
        """The NoC and pipeline fields flow through ``+``."""
        a = StepCost(
            backend="sharded", states=4, layer_cycles={"FC1": 100},
            shards=2, shard_cycles=(60, 40), critical_path_cycles=70,
            merge_cycles=10, merge_hops=30, fill_drain_cycles=5, noc="ring",
        )
        b = StepCost(
            backend="sharded", states=4, layer_cycles={"FC1": 80},
            shards=2, shard_cycles=(40, 40), critical_path_cycles=50,
            merge_cycles=10, merge_hops=30, fill_drain_cycles=3, noc="ring",
        )
        merged = a + b
        assert merged.merge_hops == 60
        assert merged.fill_drain_cycles == 8
        assert merged.noc == "ring"


class _FixedPlanBackend(ShardedBackend):
    """A sharded backend that serves one given plan, not a policy's."""

    fixed: ShardPlan

    def plan(self, rows, state_shape, alive):
        return self.fixed


def _draw_plan(data, alive, batch) -> ShardPlan:
    """A random plan over the survivors ``alive``: contiguous stages,
    each with a random split and a disjoint, shuffled set of arrays,
    and random micro-batch sizes."""
    count = len(NET.parametric_layers())
    stages = data.draw(st.integers(1, min(len(alive), count)))

    def cuts(n):  # stages - 1 sorted cut points in [1, n)
        if stages == 1:
            return []
        return sorted(data.draw(st.sets(
            st.integers(1, n - 1), min_size=stages - 1, max_size=stages - 1
        )))

    bounds = (0, *cuts(count), count)
    order = data.draw(st.permutations(alive))
    groups = (0, *cuts(len(alive)), len(alive))
    chunks = data.draw(st.integers(1, batch))
    rows = [0, batch]
    if chunks > 1:
        rows[1:1] = sorted(data.draw(st.sets(
            st.integers(1, batch - 1), min_size=chunks - 1, max_size=chunks - 1
        )))
    return ShardPlan(
        bounds=bounds,
        arrays=tuple(tuple(order[lo:hi]) for lo, hi in zip(groups, groups[1:])),
        splits=tuple(
            data.draw(st.sampled_from(["batch", "output"])) for _ in range(stages)
        ),
        sizes=tuple(hi - lo for lo, hi in zip(rows, rows[1:])),
    )


#: An output-split conv stage on two arrays feeding a batch-split FC
#: stage replicated on the other two, over three uneven micro-batches.
MIXED_PLAN = ShardPlan(
    bounds=(0, 2, len(NET.parametric_layers())),
    arrays=((2, 0), (1, 3)),
    splits=("output", "batch"),
    sizes=(3, 4, 2),
)


class TestPlanThenPrice:
    """One datapath forward plus a closed-form price stands in for the
    executed plan — exactly, fault draws included — for the three
    policies' plans and for any other plan."""

    @staticmethod
    def _run(policy, shards, noc, killed, stretch, work):
        """``work(backend)`` on a fresh backend under a chaos plan that
        kills ``killed`` at the first step; returns (result, event log).
        ``policy`` is a policy name or a :class:`ShardPlan` to serve."""
        if isinstance(policy, ShardPlan):
            backend = _FixedPlanBackend(NET, shards=shards, noc=noc)
            backend.fixed = policy
        else:
            backend = ShardedBackend(NET, shards=shards, shard=policy, noc=noc)
        rate = 0.3 if stretch else 0.0
        plan = FaultPlan(
            seed=11,
            shard_crashes=tuple((1, k) for k in sorted(killed)),
            shard_transient_rate=rate,
            shard_straggler_rate=rate,
        )
        with chaos(plan) as inj:
            inj.note_step()
            result = work(backend)
        return result, inj.event_log()

    def _check(self, config, batch, first_trainable):
        """Price and executed reference agree on every field, the fault
        log and the Q bytes, which are the single-array datapath's."""
        states = np.random.default_rng(batch + 31 * config[1]).uniform(
            0, 1, size=(batch, 1, SIDE, SIDE)
        )
        (forward, train), log = self._run(*config, lambda b: (
            b.forward_batch(states),
            b.train_cost(batch, (1, SIDE, SIDE), first_trainable),
        ))
        (ref_forward, ref_train), ref_log = self._run(*config, lambda b: (
            reference_forward(b, states),
            reference_train_cost(b, batch, (1, SIDE, SIDE), first_trainable),
        ))
        (q, cost), (ref_q, ref_cost) = forward, ref_forward
        assert cost == ref_cost
        assert train == ref_train
        assert log == ref_log
        single_q, _ = SystolicBackend(NET).forward_batch(states)
        assert q.dtype == single_q.dtype and q.tobytes() == single_q.tobytes()
        assert q.tobytes() == ref_q.tobytes()
        return cost, train

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_price_equals_executed_schedule(self, data):
        shards = data.draw(st.integers(1, 8))
        noc = data.draw(st.sampled_from(["flat", "ring", "mesh"]))
        batch = data.draw(st.integers(1, 20))  # batch < K included
        killed = data.draw(
            st.sets(st.integers(0, shards - 1), max_size=shards - 1)
        )
        alive = tuple(k for k in range(shards) if k not in killed)
        # Half the draws are one of the three policies' plans, half a
        # random plan.
        policy = data.draw(st.one_of(
            st.sampled_from(["sample", "layer", "pipeline"]), st.none()
        ))
        if policy is None:
            policy = _draw_plan(data, alive, batch)
        stretch = data.draw(st.booleans())
        first_trainable = data.draw(st.sampled_from([0, LAST_PARAM]))
        cost, train = self._check(
            (policy, shards, noc, killed, stretch), batch, first_trainable
        )
        # No schedule beats perfect division of its work.
        for c in (cost, train):
            assert c.critical_path_cycles >= -(-c.total_cycles // len(alive))
            assert c.fill_drain_cycles >= 0
            if noc == "flat":
                assert c.merge_cycles == c.merge_hops

    @pytest.mark.parametrize("noc", ["flat", "ring", "mesh"])
    @pytest.mark.parametrize("first_trainable", [0, LAST_PARAM])
    def test_mixed_plan_prices_what_it_executes(self, noc, first_trainable):
        """An output-split conv stage feeding a batch-split FC stage —
        a plan none of the three policies builds — under chaos."""
        cost, train = self._check(
            (MIXED_PLAN, 4, noc, set(), True), 9, first_trainable
        )
        assert all(cost.shard_cycles) and all(train.shard_cycles)
        assert cost.merge_cycles > 0 and train.merge_cycles > 0

    @pytest.mark.parametrize("policy", ["sample", "layer", "pipeline"])
    def test_spans_price_each_piece_and_time_one_forward(self, policy):
        """One ``shard.forward`` span per chunk (per stage x chunk under
        pipeline, per layer slice under layer) with the executed
        schedule's args and cycles; only the first carries host time —
        the one forward that ran."""
        states = np.random.default_rng(4).uniform(0, 1, size=(16, 1, SIDE, SIDE))
        spans = {}
        for label, forward in (
            ("priced", lambda b: b.forward_batch(states)),
            ("executed", lambda b: reference_forward(b, states)),
        ):
            backend = ShardedBackend(NET, shards=4, shard=policy, noc="ring")
            with observed(registry=MetricsRegistry()) as (tracer, _):
                forward(backend)
            spans[label] = [s for s in tracer.spans if s.name == "shard.forward"]
        assert [(s.args, s.cycles) for s in spans["priced"]] == [
            (s.args, s.cycles) for s in spans["executed"]
        ]
        assert len(spans["priced"]) > 1
        assert all(s.duration_ns == 0 for s in spans["priced"][1:])

    def test_steady_state_forward_reuses_the_price(self, rng):
        """The price is memoised: after the first forward every repeat
        is one hit on the ``sharded_price`` table, and the whole-network
        oracle it is built on is not asked again."""
        from repro.parallel import clear_memo_caches, memo_stats

        clear_memo_caches()
        backend = ShardedBackend(NET, shards=8, shard="pipeline", noc="ring")
        states = rng.uniform(0, 1, size=(32, 1, SIDE, SIDE))
        _, first = backend.forward_batch(states)
        before = memo_stats()
        for _ in range(3):
            assert backend.forward_batch(states)[1] == first
        after = memo_stats()
        assert after["sharded_price"]["hits"] == before["sharded_price"]["hits"] + 3
        assert after["sharded_price"]["misses"] == 1
        training = "network_training_step_cost"
        assert after[training] == before[training]
        # Callers own their record: mutating it leaves the memo intact.
        first.layer_cycles.clear()
        assert backend.forward_batch(states)[1].layer_cycles


class TestStalenessRegression:
    def test_agreement_stays_high_at_sync_every_4(self, stale_rollout):
        """Serving a snapshot up to 3 updates stale must not break the
        policy: fixed-point vs float action agreement >= 0.95."""
        agent, states, _report = stale_rollout
        assert agent.backend.agreement_rate(states) >= 0.95

    def test_round_stats_measure_staleness_and_shards(self, stale_rollout):
        agent, _states, report = stale_rollout
        assert report.backend == "sharded"
        assert report.shards == 4
        assert report.total_critical_path_cycles > 0
        # Work strictly exceeds the parallel wall-clock.
        assert (
            report.total_critical_path_cycles < report.total_inference_cycles
        )
        # sync_every=4 with many updates: served staleness is visible
        # but bounded by the flip cadence.
        assert 0.0 < report.mean_sync_staleness < 4.0
        for stats in report.rounds:
            assert stats.shards == 4
            inference = stats.inference
            assert 0 < inference.critical_path_cycles < inference.total_cycles
        # The bus flipped on cadence: staleness never reached sync_every.
        assert agent.weight_bus.staleness < 4
