"""Execution backends: numerics equivalence, cycle budgets, fleet threading.

The backend seam's contracts:

* ``NumpyBackend`` is bitwise the float network (the agent's historical
  behaviour) with a zero cycle budget;
* ``QuantizedBackend`` is bitwise the weight-swap forward through the
  float layers (``tests/pe_reference.weight_swap_forward``);
* ``SystolicBackend`` is bitwise the quantized backend — one datapath,
  with cycles — and a forward through the loop-level PE oracle
  (``tests/pe_reference.py``) matches it bitwise, cycle for cycle,
  over a shape grid;
* cycle budgets come from the closed-form systolic accounting and
  thread through the agent's ledger into fleet round reports;
* after an online training update, ``sync()`` write-back keeps the
  deployed datapath current.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    SHARD_POLICIES,
    NumpyBackend,
    QuantizedBackend,
    StepCost,
    SystolicBackend,
    make_backend,
)
from repro.fixedpoint import Q8_8
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.network import Network
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name
from repro.systolic import conv_rowstationary_stats, fc_tile_stats

from pe_reference import oracle_forward, weight_swap_forward

SIDE = 16


@pytest.fixture(scope="module")
def rollout_states():
    """Seeded on-policy rollout states (the agreement-rate population)."""
    vec_env = VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=[0, 1, 2, 3],
        image_side=SIDE,
        max_episode_steps=100,
    )
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=0,
        batch_size=4,
    )
    scheduler = FleetScheduler(agent, vec_env, train_every=2, eval_steps=10)
    scheduler.run(rounds=1, steps_per_round=40)
    states, _, _, _, _ = agent.replay.sample(128, np.random.default_rng(7))
    return network, states


def make_net(seed: int = 0) -> Network:
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


class TestRegistry:
    def test_registered_names(self):
        assert {"numpy", "quantized", "systolic"} <= set(BACKENDS)

    def test_make_backend_instantiates(self):
        net = make_net()
        assert isinstance(make_backend("numpy", net), NumpyBackend)
        assert isinstance(make_backend("systolic", net), SystolicBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("tpu", make_net())

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="registered:"):
            make_backend("tpu", make_net())

    def test_near_miss_gets_a_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'sharded'"):
            make_backend("shraded", make_net())
        with pytest.raises(ValueError, match="did you mean 'systolic'"):
            make_backend("systollic", make_net())


class TestStepCost:
    def test_totals_and_merge(self):
        a = StepCost(backend="systolic", states=4, macs=10,
                     layer_cycles={"CONV1": 100, "FC1": 50})
        b = StepCost(backend="systolic", states=2, macs=5,
                     layer_cycles={"FC1": 25})
        merged = a + b
        assert merged.total_cycles == 175
        assert merged.states == 6
        assert merged.macs == 15
        assert merged.layer_cycles == {"CONV1": 100, "FC1": 75}
        assert merged.cycles_per_state == pytest.approx(175 / 6)
        assert a.array_seconds() == pytest.approx(150 / 1e9)

    def test_empty_merge_is_zero(self):
        zero = sum([], StepCost(backend="numpy"))
        assert zero.total_cycles == 0 and zero.states == 0

    def test_empty_merge_is_plain_stepcost(self):
        # No records means nothing sharded: the zero cost is a plain
        # StepCost with no shard geometry to mislead downstream code.
        zero = sum([], StepCost())
        assert type(zero) is StepCost
        assert zero.backend == "" and zero.macs == 0
        assert zero.layer_cycles == {}
        assert zero.shards == 1 and zero.shard_cycles == ()

    def test_singleton_merge_preserves_the_record(self):
        cost = StepCost(backend="systolic", states=4, macs=10,
                        layer_cycles={"CONV1": 100, "FC1": 50})
        merged = StepCost() + cost
        assert type(merged) is StepCost
        assert merged.total_cycles == cost.total_cycles
        assert merged.states == cost.states
        assert merged.macs == cost.macs
        assert merged.layer_cycles == cost.layer_cycles
        assert merged.backend == cost.backend

    def test_singleton_shardcost_merge_preserves_geometry(self):
        cost = StepCost(backend="sharded", states=4, macs=10,
                        layer_cycles={"CONV1": 90, "FC1": 30},
                        shards=3, shard_cycles=(60, 40, 20),
                        merge_cycles=7)
        merged = StepCost() + cost
        assert merged == cost
        assert merged.shards == 3
        assert merged.shard_cycles == (60, 40, 20)
        assert merged.merge_cycles == 7
        assert merged.critical_path_cycles == cost.critical_path_cycles
        assert merged.critical_shard_index == cost.critical_shard_index


EMPTY_BATCH_CASES = [
    (name, {"shards": 2, "shard": policy} if name == "sharded" else {})
    for name in sorted(BACKENDS)
    for policy in (SHARD_POLICIES if name == "sharded" else (None,))
]


@pytest.mark.parametrize(
    "name,kwargs",
    EMPTY_BATCH_CASES,
    ids=[f"{n}-{k['shard']}" if k else n for n, k in EMPTY_BATCH_CASES],
)
def test_empty_batch_serves_nothing(name, kwargs):
    """A 0-row batch returns a (0, actions) Q array and serves no state,
    no MAC and no cycle on every backend and shard policy."""
    net = make_net()
    backend = make_backend(name, net, **kwargs)
    q_values, cost = backend.forward_batch(np.zeros((0, 1, SIDE, SIDE)))
    assert q_values.shape == (0, net.layers[-1].out_features)
    assert cost.states == 0 and cost.macs == 0
    assert cost.total_cycles == 0
    assert cost.critical_path_cycles == 0


class TestNumpyBackend:
    def test_bitwise_matches_agent_q_values(self, rng):
        net = make_net()
        agent = QLearningAgent(net, config=config_by_name("L4"), seed=0)
        backend = NumpyBackend(net)
        states = rng.uniform(0, 1, size=(5, 1, SIDE, SIDE))
        # Like-for-like calls are bitwise identical: single state against
        # q_values (both one-state batches), whole batch against predict.
        for i in range(5):
            assert np.array_equal(
                backend.forward_batch(states[i][None])[0][0],
                agent.q_values(states[i]),
            )
        q_values, cost = backend.forward_batch(states)
        assert np.array_equal(q_values, net.predict(states))
        assert cost.total_cycles == 0 and cost.states == 5
        assert backend.agreement_rate(states) == 1.0


class TestQuantizedBackend:
    def test_bitwise_matches_quantized_network(self, rng):
        net = make_net()
        backend = QuantizedBackend(net)
        states = rng.uniform(0, 1, size=(6, 1, SIDE, SIDE))
        q_values, cost = backend.forward_batch(states)
        # The per-layer weight-swap path is the cross-validation oracle.
        assert np.array_equal(q_values, weight_swap_forward(net, states))
        assert cost.total_cycles == 0 and cost.states == 6
        assert backend.train_cost(8, (1, SIDE, SIDE)).total_cycles == 0

    def test_agreement_on_seeded_rollout_states(self, rollout_states):
        network, states = rollout_states
        assert QuantizedBackend(network).agreement_rate(states) >= 0.95


class TestSystolicBackend:
    def test_quantized_numerics_bitwise_match_quantized_backend(self, rng):
        net = make_net()
        systolic, quantized = SystolicBackend(net), QuantizedBackend(net)
        for batch in (1, 4, 16, 64):
            states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
            sys_q, sys_cost = systolic.forward_batch(states)
            quant_q, _ = quantized.forward_batch(states)
            assert np.array_equal(sys_q, quant_q)
            # The GEMMs on fixed-point values are exact: bitwise the
            # float layers' own forward on the quantised weights.
            assert np.array_equal(sys_q, weight_swap_forward(net, states))
            assert sys_cost.total_cycles > 0

    def test_agreement_on_seeded_rollout_states(self, rollout_states):
        network, states = rollout_states
        assert SystolicBackend(network).agreement_rate(states) >= 0.95

    @pytest.mark.parametrize(
        "channels,side,filters,kernel,stride,features",
        [
            (1, 8, 2, 3, 1, 6),
            (2, 9, 3, 3, 2, 5),
            (1, 10, 2, 5, 2, 7),
        ],
    )
    def test_fast_vs_pe_fidelity_agree(
        self, channels, side, filters, kernel, stride, features
    ):
        """Every parametric layer run through the PE oracle on the served
        weights, with the backend's requantisation, computes the exact
        same raw-integer datapath results and cycle budgets as the GEMM
        fast path."""
        rng = np.random.default_rng(side * kernel + stride)
        conv = Conv2D(channels, filters, kernel, stride=stride, name="c", rng=rng)
        out_c, oh, ow = conv.output_shape(side, side)
        net = Network(
            [conv, ReLU(), Flatten(),
             Dense(out_c * oh * ow, features, name="d", rng=rng)],
            name="grid-net",
        )
        states = rng.uniform(0, 1, size=(3, channels, side, side))
        backend = SystolicBackend(net)
        fast_q, fast_cost = backend.forward_batch(states)
        pe_q, pe_layer_cycles = oracle_forward(backend, states)
        assert np.array_equal(fast_q, pe_q)
        assert fast_cost.layer_cycles == pe_layer_cycles
        assert fast_cost.total_cycles == sum(pe_layer_cycles.values()) > 0

    def test_cycle_budgets_are_the_closed_form_stats(self, rng):
        net = make_net()
        n = 4
        states = rng.uniform(0, 1, size=(n, 1, SIDE, SIDE))
        _, cost = SystolicBackend(net).forward_batch(states)
        conv1 = net.layers[0]
        expected = conv_rowstationary_stats(
            conv1.in_channels, SIDE + 2 * conv1.pad, SIDE + 2 * conv1.pad,
            conv1.out_channels, conv1.kernel_size, conv1.kernel_size,
            stride=conv1.stride, batch=n,
        )
        assert cost.layer_cycles["CONV1"] == expected.total_cycles
        fc5 = next(l for l in net.layers if getattr(l, "name", "") == "FC5")
        assert cost.layer_cycles["FC5"] == fc_tile_stats(
            fc5.in_features, fc5.out_features, batch=n
        ).total_cycles

    def test_weight_reuse_amortises_across_fleet_batch(self, rng):
        """Doubling the state batch less-than-doubles per-layer cycles:
        FC tiles *and* conv filter rows stay resident while the batch
        streams through, so loads are charged once per batch.  (Conv
        cycles used to scale exactly linearly before the row-stationary
        schedule kept filter rows resident across images.)"""
        net = make_net()
        backend = SystolicBackend(net)
        _, c1 = backend.forward_batch(rng.uniform(0, 1, size=(1, 1, SIDE, SIDE)))
        _, c8 = backend.forward_batch(rng.uniform(0, 1, size=(8, 1, SIDE, SIDE)))
        assert c8.layer_cycles["CONV1"] < 8 * c1.layer_cycles["CONV1"]
        assert c8.layer_cycles["FC1"] < 8 * c1.layer_cycles["FC1"]
        # The per-image MAC + drain schedule still scales exactly: the
        # batched budget is 8x the single-image budget minus 7 re-loads.
        conv1 = net.layers[0]
        loads = conv_rowstationary_stats(
            conv1.in_channels, SIDE + 2 * conv1.pad, SIDE + 2 * conv1.pad,
            conv1.out_channels, conv1.kernel_size, conv1.kernel_size,
            stride=conv1.stride, batch=1,
        ).load_cycles
        assert c8.layer_cycles["CONV1"] == 8 * c1.layer_cycles["CONV1"] - 7 * loads

    def test_sync_tracks_online_updates(self, rng):
        net = make_net()
        backend = SystolicBackend(net)
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        stale_q, _ = backend.forward_batch(states)
        for p in net.parameters():
            p.value = p.value + 0.01
        # Without sync the datapath still serves the downloaded snapshot.
        assert np.array_equal(backend.forward_batch(states)[0], stale_q)
        backend.sync()
        fresh_q, _ = backend.forward_batch(states)
        assert np.array_equal(fresh_q, SystolicBackend(net).forward_batch(states)[0])
        assert not np.array_equal(fresh_q, stale_q)

    def test_state_batch_shape_validated(self):
        with pytest.raises(ValueError, match="state batch"):
            SystolicBackend(make_net()).forward_batch(np.zeros((SIDE, SIDE)))


class TestTrainCost:
    def test_numpy_backend_training_is_free(self):
        """The default models the paper's split: training off-device."""
        cost = NumpyBackend(make_net()).train_cost(8, (1, SIDE, SIDE))
        assert cost.total_cycles == 0
        assert cost.states == 8

    def test_systolic_train_cost_is_the_closed_form_step(self):
        from repro.systolic import network_training_step_cost

        net = make_net()
        cost = SystolicBackend(net).train_cost(4, (1, SIDE, SIDE))
        step = network_training_step_cost(net, (1, SIDE, SIDE), 4)
        assert cost.total_cycles == step.total_cycles > 0
        assert cost.macs == step.total_macs
        assert set(cost.layer_cycles) == {l.name for l in step.layers}
        # Backward GEMMs make training dearer than the forward alone.
        _, fwd = SystolicBackend(net).forward_batch(
            np.zeros((4, 1, SIDE, SIDE))
        )
        assert cost.total_cycles > fwd.total_cycles

    def test_partial_backprop_cheaper_than_e2e(self):
        net = make_net()
        backend = SystolicBackend(net)
        boundary = config_by_name("L2").first_trainable_layer(net)
        partial = backend.train_cost(4, (1, SIDE, SIDE), first_trainable=boundary)
        e2e = backend.train_cost(4, (1, SIDE, SIDE))
        assert 0 < partial.total_cycles < e2e.total_cycles

    def test_sharded_train_cost_splits_the_batch(self):
        from repro.backend import ShardedBackend

        net = make_net()
        single = SystolicBackend(net).train_cost(8, (1, SIDE, SIDE))
        cost = ShardedBackend(net, shards=4, shard="sample").train_cost(
            8, (1, SIDE, SIDE)
        )
        assert cost.shards == 4 and len(cost.shard_cycles) == 4
        # Gradient all-reduce: 3 non-root arrays ship every trainable
        # element once.
        trainable = sum(p.size for p in net.parameters())
        assert cost.merge_cycles == 3 * trainable
        assert cost.critical_path_cycles == max(cost.shard_cycles) + cost.merge_cycles
        # Data parallelism beats one array even after the all-reduce.
        assert cost.critical_path_cycles < single.total_cycles

    def test_agent_charges_training_to_the_array(self, rng):
        from repro.env.episode import Transition

        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            backend=SystolicBackend(net), train_on_array=True,
        )
        states = rng.uniform(0, 1, size=(9, 1, SIDE, SIDE))
        for i in range(8):
            agent.observe(Transition(
                state=states[i], action=int(i % 5), reward=1.0,
                next_state=states[i + 1], done=False,
            ))
        assert agent.drain_training_cost().total_cycles == 0
        agent.train_step()
        agent.train_step()
        cost = agent.drain_training_cost()
        assert cost.backend == "systolic"
        expected = agent.backend.train_cost(
            4, (1, SIDE, SIDE), first_trainable=agent.first_trainable
        )
        assert cost.total_cycles == 2 * expected.total_cycles
        assert agent.drain_training_cost().total_cycles == 0

    def test_agent_default_charges_nothing(self, rng):
        from repro.env.episode import Transition

        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            backend=SystolicBackend(net),
        )
        states = rng.uniform(0, 1, size=(9, 1, SIDE, SIDE))
        for i in range(8):
            agent.observe(Transition(
                state=states[i], action=int(i % 5), reward=1.0,
                next_state=states[i + 1], done=False,
            ))
        agent.train_step()
        assert agent.drain_training_cost().total_cycles == 0


class TestAgentRouting:
    def test_default_backend_is_float_numpy(self):
        agent = QLearningAgent(make_net(), config=config_by_name("L4"), seed=0)
        assert isinstance(agent.backend, NumpyBackend)

    def test_backend_over_foreign_network_rejected(self):
        """Serving one network while training another must not construct."""
        with pytest.raises(ValueError, match="agent's own network"):
            QLearningAgent(
                make_net(), config=config_by_name("L4"), seed=0,
                backend=QuantizedBackend(make_net(seed=1)),
            )

    def test_act_batch_records_cost_and_drain_clears(self, rng):
        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0,
            epsilon=EpsilonSchedule(0.0, 0.0, 1),
            backend=SystolicBackend(net),
        )
        states = rng.uniform(0, 1, size=(4, 1, SIDE, SIDE))
        agent.act_batch(states)
        agent.act_batch(states, greedy=True)
        cost = agent.drain_inference_cost()
        assert cost.backend == "systolic"
        assert cost.states == 8
        assert cost.total_cycles > 0
        assert agent.drain_inference_cost().states == 0

    def test_greedy_actions_follow_the_backend_policy(self, rng):
        net = make_net()
        backend = QuantizedBackend(net)
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, backend=backend
        )
        states = rng.uniform(0, 1, size=(6, 1, SIDE, SIDE))
        actions = agent.act_batch(states, greedy=True)
        expected, _ = backend.greedy_actions(states)
        assert np.array_equal(actions, expected)

    def test_train_step_syncs_backend(self, rollout_states):
        """After an online update the quantised datapath must serve the
        written-back weights, not the downloaded snapshot."""
        network, states = rollout_states
        net = make_net(seed=3)
        backend = QuantizedBackend(net)
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            backend=backend,
        )
        before = backend.forward_batch(states[:4])[0]
        from repro.env.episode import Transition

        for i in range(8):
            agent.observe(Transition(
                state=states[i], action=int(i % 5), reward=1.0,
                next_state=states[i + 1], done=False,
            ))
        agent.train_step()
        after = backend.forward_batch(states[:4])[0]
        assert not np.array_equal(before, after)
        refreshed = QuantizedBackend(net).forward_batch(states[:4])[0]
        assert np.array_equal(after, refreshed)


class TestFleetThreading:
    def make_fleet(self, num_envs=4):
        return VecNavigationEnv.from_names(
            ["indoor-apartment", "outdoor-forest"],
            seeds=list(range(num_envs)),
            image_side=SIDE,
            max_episode_steps=100,
        )

    def test_rounds_carry_cycle_budgets(self):
        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
            backend=SystolicBackend(net),
        )
        scheduler = FleetScheduler(agent, self.make_fleet(), train_every=2,
                                   eval_steps=10)
        report = scheduler.run(rounds=2, steps_per_round=20)
        assert report.backend == "systolic"
        for stats in report.rounds:
            assert stats.inference.backend == "systolic"
            assert stats.inference.total_cycles > 0
            assert stats.inference.states > 0
            assert stats.inference.macs > 0
            assert stats.inference.array_seconds() > 0
        assert report.total_inference_cycles == sum(
            r.inference.total_cycles for r in report.rounds
        )
        projection = scheduler.project_load(report)
        assert projection.inference_cycles_per_step == pytest.approx(
            report.total_inference_cycles / report.total_env_steps
        )
        assert projection.inference_sustainable_steps_per_second < float("inf")
        assert projection.inference_utilization > 0

    def test_custom_array_config_threads_into_seconds_and_projection(self):
        """A backend running at a non-default clock must convert its own
        cycles with its own clock, not the paper array's."""
        from repro.systolic import ArrayConfig

        half_clock = ArrayConfig(clock_hz=5e8)
        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
            backend=SystolicBackend(net, config=half_clock),
        )
        scheduler = FleetScheduler(agent, self.make_fleet(), train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=20)
        projection = scheduler.project_load(report)
        assert projection.inference_sustainable_steps_per_second == (
            pytest.approx(
                5e8 * report.total_env_steps / report.total_inference_cycles
            )
        )

    def test_numpy_backend_rounds_have_zero_budget(self):
        net = make_net()
        agent = QLearningAgent(
            net, config=config_by_name("L4"), seed=0, batch_size=4,
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
        )
        scheduler = FleetScheduler(agent, self.make_fleet(), train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=20)
        assert report.backend == "numpy"
        assert report.total_inference_cycles == 0
        projection = scheduler.project_load(report)
        assert projection.inference_cycles_per_step == 0.0
        assert projection.inference_sustainable_steps_per_second == float("inf")
        assert projection.inference_realtime_feasible

    def test_quantized_outputs_stay_on_the_activation_grid(self, rollout_states):
        network, states = rollout_states
        q_values, _ = SystolicBackend(network).forward_batch(states)
        assert np.all(Q8_8.representable(q_values))


class TestFleetCliBackend:
    def test_backend_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fleet", "--backend", "systolic"])
        assert args.backend == "systolic"
        assert build_parser().parse_args(["fleet"]).backend == "numpy"

    def test_fleet_command_with_systolic_backend(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "--num-envs", "4", "--rounds", "2", "--steps", "30",
            "--eval-steps", "10", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
            "--backend", "systolic",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend 'systolic'" in out
        assert "kcycles/env-step measured" in out
        assert "action agreement" in out
