"""Fleet scheduler, fleet training runner, and the platform projection
of measured fleet load."""

import numpy as np
import pytest

from repro.backend import StepCost
from repro.cli import main
from repro.fleet import (
    FleetScheduler,
    VecNavigationEnv,
    project_fleet_load,
    train_agent_fleet,
)
from repro.nn.alexnet import build_network, scaled_drone_net_spec
from repro.rl import config_by_name, online_adapt, meta_train
from repro.rl.agent import EpsilonSchedule, QLearningAgent

SIDE = 16


def make_agent(seed: int = 0, config: str = "L4") -> QLearningAgent:
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)
    return QLearningAgent(
        network,
        config=config_by_name(config),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=seed,
        batch_size=4,
    )


def make_fleet(num_envs: int = 6) -> VecNavigationEnv:
    return VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=list(range(num_envs)),
        image_side=SIDE,
        max_episode_steps=100,
    )


class TestFleetRunner:
    def test_trains_and_reports_per_env(self):
        agent = make_agent()
        vec_env = make_fleet()
        result = train_agent_fleet(agent, vec_env, iterations=30)
        assert result.num_envs == 6
        assert result.total_env_steps == 180
        assert len(result.curves) == 6
        assert all(len(c.reward_curve) == 30 for c in result.curves)
        assert result.train_updates > 0
        assert np.isfinite(result.loss_curve).all()
        assert len(result.safe_flight_distances) == 6
        assert result.steps_per_second > 0
        assert set(result.environments) == {
            "indoor-apartment", "outdoor-forest"
        }
        assert result.final_state  # weights escaped

    def test_batch_scale_matches_sample_throughput(self):
        agent = make_agent()
        vec_env = make_fleet()
        train_agent_fleet(agent, vec_env, iterations=20, train_every=2)
        # One scaled update per training step: batch 4 * 6 envs = 24.
        assert agent.train_count > 0

    def test_validation(self):
        agent = make_agent()
        vec_env = make_fleet(2)
        with pytest.raises(ValueError):
            train_agent_fleet(agent, vec_env, iterations=0)
        with pytest.raises(ValueError):
            train_agent_fleet(agent, vec_env, iterations=5, train_every=0)
        with pytest.raises(ValueError):
            train_agent_fleet(agent, vec_env, iterations=5, batch_scale=0)

    def test_train_batch_above_replay_capacity_rejected(self):
        agent = make_agent()
        vec_env = make_fleet(2)
        oversized = agent.replay.capacity // agent.batch_size + 1
        with pytest.raises(ValueError, match="replay capacity"):
            train_agent_fleet(
                agent, vec_env, iterations=5, batch_scale=oversized
            )
        with pytest.raises(ValueError, match="replay capacity"):
            FleetScheduler(agent, vec_env, batch_scale=oversized)


class TestFleetScheduler:
    def test_rounds_record_throughput_and_sfd(self):
        agent = make_agent()
        vec_env = make_fleet()
        scheduler = FleetScheduler(
            agent, vec_env, train_every=2, extra_train_updates=2, eval_steps=10
        )
        report = scheduler.run(rounds=2, steps_per_round=25)
        assert len(report.rounds) == 2
        for stats in report.rounds:
            assert stats.env_steps == (25 + 10) * 6
            assert stats.steps_per_second > 0
            assert stats.eval_sfd_by_class.keys() == {
                "indoor-apartment", "outdoor-forest"
            }
            assert all(v >= 0 for v in stats.eval_sfd_by_class.values())
        assert report.total_env_steps == 2 * 35 * 6
        assert report.total_train_updates > 0
        assert report.steps_per_second > 0
        assert report.episodes_per_second >= 0
        assert set(report.sfd_by_class) == {
            "indoor-apartment", "outdoor-forest"
        }

    def test_validation(self):
        agent = make_agent()
        vec_env = make_fleet(2)
        with pytest.raises(ValueError):
            FleetScheduler(agent, vec_env, train_every=0)
        with pytest.raises(ValueError):
            FleetScheduler(agent, vec_env, eval_steps=-1)
        with pytest.raises(ValueError):
            FleetScheduler(agent, vec_env, pipeline_chunk=0)
        scheduler = FleetScheduler(agent, vec_env)
        with pytest.raises(ValueError):
            scheduler.run(rounds=0, steps_per_round=5)

    def test_pipeline_measures_overlap(self):
        """Chunked rollout/train interleaving reports the overlap a
        two-stage pipeline would hide, once training actually runs."""
        agent = make_agent()
        scheduler = FleetScheduler(agent, make_fleet(), train_every=2)
        report = scheduler.run(rounds=2, steps_per_round=30)
        assert report.total_train_updates > 0
        assert 0.0 < report.pipeline_overlap_fraction < 1.0
        for stats in report.rounds:
            assert 0.0 <= stats.pipeline_overlap_fraction < 1.0
        # Chunking must not change the step/episode accounting.
        assert report.total_env_steps == 2 * 30 * 6

    def test_pipeline_chunk_size_preserves_update_cadence(self):
        """Once replay is warm, chunk size only moves *when* in the
        round updates run, never how many."""
        reports = []
        for chunk in (None, 10):
            agent = make_agent()
            scheduler = FleetScheduler(
                agent, make_fleet(), train_every=2, pipeline_chunk=chunk
            )
            # Warm-up round fills replay (its updates may differ by the
            # chunk boundary at which replay first holds a batch).
            scheduler.run(rounds=1, steps_per_round=10)
            reports.append(scheduler.run(rounds=1, steps_per_round=30))
        assert (
            reports[0].total_train_updates == reports[1].total_train_updates > 0
        )

    def test_mid_round_exception_cannot_leak_costs(self):
        """The try/finally drain: a rollout crash must not leave this
        round's partial StepCosts — inference *or* on-array training —
        (or staleness) for the next run."""
        from repro.backend import SystolicBackend

        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            network,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(0.0, 0.0, 1),  # always greedy: every
            seed=0,                                # step records a cost
            batch_size=4,
            backend=SystolicBackend(network),
            train_on_array=True,
        )
        vec_env = make_fleet(4)
        scheduler = FleetScheduler(agent, vec_env, train_every=2)
        calls = {"n": 0}
        original_step = vec_env.step

        def crashing_step(actions):
            calls["n"] += 1
            if calls["n"] == 8:
                # Crash after replay warmed up enough to have trained,
                # so the training ledger is non-trivially non-empty.
                raise RuntimeError("env crashed mid-round")
            return original_step(actions)

        vec_env.step = crashing_step
        with pytest.raises(RuntimeError, match="mid-round"):
            scheduler.run(rounds=2, steps_per_round=10)
        # The crashed round's forwards and training charges were
        # drained, not left pending.
        assert agent.drain_inference_cost().states == 0
        assert agent.drain_training_cost().total_cycles == 0
        assert agent.weight_bus.drain_serve_staleness() == 0.0
        vec_env.step = original_step
        report = scheduler.run(rounds=1, steps_per_round=10)
        # Round 0 of the new run carries exactly its own states: 10
        # greedy fleet steps over 4 envs.
        assert report.rounds[0].inference.states == 10 * 4
        # ... and exactly its own training charges.
        assert report.rounds[0].training.total_cycles == (
            report.rounds[0].train_updates
            * agent.backend.train_cost(
                scheduler.train_batch, (1, SIDE, SIDE),
                first_trainable=agent.first_trainable,
            ).total_cycles
        )

    def test_injected_exception_cannot_leak_costs_or_ledgers(self):
        """The same try/finally guarantee, driven by the fault injector
        instead of a monkeypatched env: a scheduled FaultInjectionError
        out of ``vec_env.step`` drains this round's partial costs *and*
        the injector's round bucket, and a clean re-run still starts
        from zero."""
        from repro.backend import SystolicBackend
        from repro.faults import FAULTS, FaultInjectionError, FaultPlan

        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            network,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(0.0, 0.0, 1),  # greedy: every step
            seed=0,                                # records a cost
            batch_size=4,
            backend=SystolicBackend(network),
            train_on_array=True,
        )
        scheduler = FleetScheduler(agent, make_fleet(4), train_every=2)
        injector = FAULTS.activate(FaultPlan(seed=0, raise_at_steps=(8,)))
        try:
            with pytest.raises(FaultInjectionError, match="fleet step 8"):
                scheduler.run(rounds=2, steps_per_round=10)
            # The crash itself was recorded before the raise...
            events = injector.event_log()
            assert [e["kind"] for e in events] == ["env.exception"]
            # ... and the finally drain left no partial ledgers behind:
            # neither agent costs nor an injector round bucket.
            assert agent.drain_inference_cost().states == 0
            assert agent.drain_training_cost().total_cycles == 0
            assert agent.weight_bus.drain_serve_staleness() == 0.0
            drained = injector.drain_round()
            assert drained["injected"] == 0 and drained["detected"] == 0
        finally:
            FAULTS.deactivate()
        report = scheduler.run(rounds=1, steps_per_round=10)
        # Round 0 of the clean re-run carries exactly its own states.
        assert report.rounds[0].inference.states == 10 * 4
        assert report.rounds[0].faults_injected == 0
        assert report.fault_events == []

    def test_train_on_array_rounds_carry_training_budget(self):
        """--train-on-array threading: rounds report training cycles,
        the report aggregates them, and the projection derives the
        combined rollout+training utilization."""
        from repro.backend import SystolicBackend

        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            network,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
            seed=0,
            batch_size=4,
            backend=SystolicBackend(network),
            train_on_array=True,
        )
        scheduler = FleetScheduler(agent, make_fleet(4), train_every=2)
        report = scheduler.run(rounds=2, steps_per_round=20)
        assert report.total_train_updates > 0
        per_update = agent.backend.train_cost(
            scheduler.train_batch, (1, SIDE, SIDE),
            first_trainable=agent.first_trainable,
        ).total_cycles
        for stats in report.rounds:
            training = stats.training
            assert training.total_cycles == stats.train_updates * per_update
            assert training.macs > 0
            assert training.array_seconds() == pytest.approx(
                training.total_cycles / 1e9
            )
            assert training.critical_path_cycles == training.total_cycles
        assert report.total_training_cycles == pytest.approx(
            per_update * report.total_train_updates
        )
        projection = scheduler.project_load(report)
        assert projection.training_cycles_per_update == pytest.approx(per_update)
        assert projection.training_sustainable_updates_per_second == (
            pytest.approx(1e9 / per_update)
        )
        assert (
            projection.training_sustainable_updates_per_second < float("inf")
        )
        assert projection.combined_array_utilization == pytest.approx(
            projection.inference_utilization
            + projection.training_array_utilization
        )
        assert projection.training_array_utilization > 0

    def test_off_device_training_keeps_zero_budget(self):
        """Without --train-on-array the training ledger stays empty and
        the projection's training side is unbounded (off-device)."""
        agent = make_agent()
        scheduler = FleetScheduler(agent, make_fleet(4), train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=20)
        assert report.total_training_cycles == 0
        assert report.training == StepCost(backend=agent.backend.name)
        projection = scheduler.project_load(report)
        assert projection.training_cycles_per_update == 0.0
        assert projection.training_sustainable_updates_per_second == float(
            "inf"
        )
        assert projection.combined_array_utilization == pytest.approx(
            projection.inference_utilization
        )

    def test_sharded_training_threads_critical_path(self):
        """Sharded --train-on-array: the training critical path (data
        parallel + gradient all-reduce) is below the serial work and
        feeds the K-array concurrent utilization."""
        from repro.backend import ShardedBackend

        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            network,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
            seed=0,
            batch_size=4,
            backend=ShardedBackend(network, shards=4, shard="sample"),
            train_on_array=True,
        )
        scheduler = FleetScheduler(agent, make_fleet(4), train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=30)
        assert report.total_train_updates > 0
        assert (
            0
            < report.total_training_critical_path_cycles
            < report.total_training_cycles
        )
        projection = scheduler.project_load(report)
        assert projection.training_critical_path_cycles_per_update == (
            pytest.approx(
                report.total_training_critical_path_cycles
                / report.total_train_updates
            )
        )
        assert projection.sharded_combined_utilization > (
            projection.sharded_utilization
        )

    def test_sharded_training_interconnect_is_an_inference_share(self):
        """Under layer sharding with on-array training, the interconnect
        share of the critical path reads the inference ledger alone:
        training's gradient reductions are charged per update, not
        folded into the per-env-step merge."""
        from repro.backend import ShardedBackend

        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            network,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(1.0, 0.1, 200),
            seed=0,
            batch_size=4,
            backend=ShardedBackend(network, shards=4, shard="layer", noc="ring"),
            train_on_array=True,
        )
        scheduler = FleetScheduler(agent, make_fleet(4), train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=30)
        inference, training = report.inference, report.training
        assert training.merge_cycles > 0
        projection = scheduler.project_load(report)
        assert projection.interconnect_fraction == (
            inference.merge_cycles / inference.critical_path_cycles
        )
        assert projection.interconnect_cycles_per_step == (
            inference.merge_cycles / report.total_env_steps
        )
        assert projection.training_merge_cycles_per_update == (
            training.merge_cycles / report.total_train_updates
        )

    def test_project_load_builds_projection(self):
        agent = make_agent(config="E2E")
        vec_env = make_fleet(4)
        scheduler = FleetScheduler(agent, vec_env, train_every=2)
        report = scheduler.run(rounds=1, steps_per_round=20)
        projection = scheduler.project_load(report)
        assert projection.report is report
        assert projection.batch_size == agent.batch_size * 4
        assert projection.iteration.config_name == "E2E"
        assert projection.iteration.fps > 0
        assert projection.utilization > 0
        assert projection.traffic.total_bits > 0
        # E2E writes frozen weights back to NVM every update.
        assert projection.traffic.nvm_write_bits > 0
        assert projection.endurance.lifetime_days < float("inf")
        assert projection.energy_watts > 0


class TestObservationCosting:
    def test_observation_batch_costs_on_systolic(self):
        """The post-hoc costing path: cost the scheduler's current
        observation batch directly on a SystolicBackend (the migration
        target of the removed cost_observation_batch)."""
        from repro.backend import SystolicBackend

        agent = make_agent()
        vec_env = make_fleet()
        scheduler = FleetScheduler(agent, vec_env, eval_steps=0)
        states = scheduler.observations
        assert states.shape[0] == 6
        q_values, cost = SystolicBackend(agent.network).forward_batch(states)
        assert q_values.shape == (6, 5)
        # Every conv/dense layer charged cycles; totals are consistent.
        assert set(cost.layer_cycles) == {
            l.name for l in agent.network.layers if l.parameters()
        }
        assert all(v > 0 for v in cost.layer_cycles.values())
        assert cost.total_cycles == sum(cost.layer_cycles.values())
        assert cost.array_seconds() == pytest.approx(cost.total_cycles / 1e9)

    def test_deprecated_wrapper_is_gone(self):
        assert not hasattr(FleetScheduler, "cost_observation_batch")
        import repro.fleet.scheduler as scheduler_module

        assert not hasattr(scheduler_module, "FleetObservationCost")


def sharded_cost(cycles: int, critical: int, shards: int = 4, **kw) -> StepCost:
    """A hand-made ledger: ``cycles`` of work on ``shards`` arrays whose
    schedule took ``critical`` wall-clock cycles."""
    return StepCost(
        layer_cycles={"FC1": cycles}, shards=shards,
        critical_path_cycles=critical, **kw,
    )


class TestProjectFleetLoad:
    def test_rates_and_validation(self, fleet_report):
        projection = project_fleet_load(fleet_report(), batch_size=128)
        assert projection.report.steps_per_second == 2000.0
        assert projection.bits_per_second == (
            projection.traffic.total_bits * 15.0
        )
        assert projection.utilization == pytest.approx(
            15.0 / projection.iteration.fps
        )
        assert projection.realtime_feasible == (projection.utilization <= 1.0)
        assert projection.energy_watts == pytest.approx(
            projection.iteration.iteration_energy_j * 15.0
        )
        with pytest.raises(ValueError, match="zero training iterations"):
            project_fleet_load(fleet_report(updates=0), batch_size=8)

    def test_sharded_fields_project_k_array_rates(self, fleet_report):
        report = fleet_report(sharded_cost(36_000 * 2000, 9_500 * 2000))
        projection = project_fleet_load(report, batch_size=128)
        assert report.shards == 4
        assert projection.inference_cycles_per_step == 36_000.0
        assert projection.critical_path_cycles_per_step == 9_500.0
        assert projection.sharded_sustainable_steps_per_second == pytest.approx(
            1.0 / 9.5e-6
        )
        assert projection.inference_sustainable_steps_per_second == (
            pytest.approx(1.0 / 3.6e-5)
        )
        assert projection.sharding_speedup == pytest.approx(36000.0 / 9500.0)
        assert projection.scaling_efficiency == pytest.approx(
            36000.0 / 9500.0 / 4
        )
        assert projection.sharded_utilization == pytest.approx(2000.0 * 9.5e-6)
        # Unsharded, unmeasured projections expose the single-array view.
        plain = project_fleet_load(fleet_report(), batch_size=128)
        assert plain.report.shards == 1
        assert plain.sharding_speedup == 1.0
        assert plain.scaling_efficiency == 1.0
        assert plain.sharded_sustainable_steps_per_second == float("inf")
        assert plain.inference_sustainable_steps_per_second == float("inf")
        assert plain.inference_utilization == 0.0

    def test_training_fields_derive_combined_utilization(self, fleet_report):
        report = fleet_report(
            sharded_cost(36_000 * 2000, 9_500 * 2000),
            sharded_cost(2_000_000 * 15, 600_000 * 15),
        )
        projection = project_fleet_load(report, batch_size=128)
        assert projection.training_cycles_per_update == 2_000_000.0
        assert projection.training_critical_path_cycles_per_update == 600_000.0
        assert projection.training_sustainable_updates_per_second == (
            pytest.approx(500.0)
        )
        assert projection.training_array_utilization == pytest.approx(
            15.0 * 2e-3
        )
        assert projection.combined_array_utilization == pytest.approx(
            2000.0 * 3.6e-5 + 15.0 * 2e-3
        )
        assert projection.combined_realtime_feasible == (
            projection.combined_array_utilization <= 1.0
        )
        assert projection.sharded_combined_utilization == pytest.approx(
            2000.0 * 9.5e-6 + 15.0 * 6e-4
        )
        # Off-device training leaves the training side unbounded.
        off = project_fleet_load(
            fleet_report(sharded_cost(36_000 * 2000, 9_500 * 2000)),
            batch_size=128,
        )
        assert off.training_sustainable_updates_per_second == float("inf")
        assert off.combined_array_utilization == pytest.approx(2000.0 * 3.6e-5)

    def test_interconnect_reads_each_ledger_on_its_own(self, fleet_report):
        """Inference merge and fill/drain are shares of the inference
        critical path per env step; training's gradient traffic is
        reported per update and never mixed into them."""
        report = fleet_report(
            sharded_cost(
                36_000 * 2000, 9_500 * 2000,
                merge_cycles=950 * 2000, fill_drain_cycles=400 * 2000,
            ),
            sharded_cost(2_000_000 * 15, 600_000 * 15, merge_cycles=80_000 * 15),
        )
        projection = project_fleet_load(report, batch_size=128)
        assert projection.interconnect_cycles_per_step == 950.0
        assert projection.fill_drain_cycles_per_step == 400.0
        assert projection.interconnect_fraction == pytest.approx(0.1)
        assert projection.training_merge_cycles_per_update == 80_000.0


class TestExperimentFleetPath:
    def test_online_adapt_with_fleet_matches_interface(self):
        meta = meta_train("meta-indoor", iterations=60, seed=0, image_side=SIDE)
        result = online_adapt(
            meta.final_state,
            "indoor-apartment",
            config_by_name("L4"),
            iterations=40,
            seed=1,
            image_side=SIDE,
            num_envs=3,
        )
        assert result.environment == "indoor-apartment"
        assert result.iterations == 40
        assert len(result.curves.reward_curve) == 40
        assert np.isfinite(result.final_reward)
        assert result.safe_flight_distance >= 0.0
        assert result.crash_count >= 0
        assert result.final_state

    def test_meta_train_fleet_path(self):
        result = meta_train(
            "meta-outdoor", iterations=30, seed=2, image_side=SIDE, num_envs=2
        )
        assert result.config_name == "E2E"
        assert len(result.curves.reward_curve) == 30


class TestFleetCli:
    def test_fleet_command_prints_report(self, capsys):
        assert main([
            "fleet", "--num-envs", "4", "--rounds", "1", "--steps", "30",
            "--eval-steps", "10", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
        ]) == 0
        out = capsys.readouterr().out
        assert "Steps/s" in out
        assert "Environment class" in out
        assert "endurance" in out

    def test_fleet_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fleet"])
        assert args.num_envs == 16
        assert args.seed == 0
        assert args.config == "L4"

    def test_rl_seed_flag_threads_through(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["rl", "--seed", "5"])
        assert args.seed == 5
