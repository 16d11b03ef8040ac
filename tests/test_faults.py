"""Deterministic fault injection, detection, and recovery (repro.faults).

Covers the plan/spec layer (parsing, validation, technology-derived
soft-error rates), the recovery primitives (checksums, bit flips), the
injector's determinism contract, and each integrated fault path:
weight-bus soft errors / drops / corruption, shard crash failover and
degradation, transient retries and stragglers, the agent's Q-value
guard, and sensor dropout with hold-last-frame recovery.  The
disabled-identity guarantee — no chaos plan, bitwise-identical runs —
is pinned both here (zero-rate plan) and in
``benchmarks/test_obs_overhead.py`` (seam fully off).
"""

import numpy as np
import pytest

from repro.backend import (
    NumpyBackend,
    QuantizedBackend,
    ShardedBackend,
    SystolicBackend,
)
from repro.cli import main
from repro.faults import (
    DEFAULT_CHAOS_RATES,
    FAULTS,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    buffer_checksum,
    chaos,
    flip_raw_bit,
    parse_fault_spec,
    sram_flip_rate_from_technology,
)
from repro.fixedpoint.qformat import Q2_13, Q8_8
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.memory.technology import (
    DDR_DRAM,
    MemoryTechnology,
    ON_DIE_SRAM,
    STT_MRAM,
)
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16


def make_net(seed: int = 0):
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


def make_agent(backend, seed: int = 0, **kwargs) -> QLearningAgent:
    return QLearningAgent(
        backend.network if hasattr(backend, "network") else make_net(seed),
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=seed,
        batch_size=4,
        backend=backend,
        **kwargs,
    )


def make_fleet(num_envs: int = 4) -> VecNavigationEnv:
    return VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=list(range(num_envs)),
        image_side=SIDE,
        max_episode_steps=100,
    )


@pytest.fixture(autouse=True)
def _seam_off_after():
    """No test may leak an active chaos seam into the next."""
    yield
    FAULTS.deactivate()


class TestFaultPlan:
    def test_defaults_inject_nothing(self):
        assert not FaultPlan().any_faults

    def test_any_faults_flags_each_knob(self):
        assert FaultPlan(sram_flip_rate=0.1).any_faults
        assert FaultPlan(shard_crashes=((5, 1),)).any_faults
        assert FaultPlan(raise_at_steps=(3,)).any_faults

    @pytest.mark.parametrize("field,value", [
        ("sram_flip_rate", 1.5),
        ("publish_drop_rate", -0.1),
        ("sensor_dropout_rate", 2.0),
    ])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(**{field: value})

    def test_policy_knobs_validated(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            FaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPlan(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            FaultPlan(retry_backoff=0.9)
        with pytest.raises(ValueError, match="crash schedule"):
            FaultPlan(shard_crashes=((0, 1),))
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(raise_at_steps=(0,))


class TestParseFaultSpec:
    def test_bare_seed_gets_default_mix(self):
        plan = parse_fault_spec("7")
        assert plan.seed == 7
        for field, rate in DEFAULT_CHAOS_RATES.items():
            assert getattr(plan, field) == rate
        assert plan.shard_crashes == ()

    def test_key_value_tokens(self):
        plan = parse_fault_spec(
            "seed=3,sram=0.2,drop=0.1,corrupt=0.05,transient=0.15,"
            "straggler=0.1,straggler-factor=8,sensor=0.02,"
            "retries=5,timeout=1000,backoff=3.0,health-timeout=9000"
        )
        assert plan.seed == 3
        assert plan.sram_flip_rate == 0.2
        assert plan.publish_drop_rate == 0.1
        assert plan.buffer_corruption_rate == 0.05
        assert plan.shard_transient_rate == 0.15
        assert plan.shard_straggler_rate == 0.1
        assert plan.straggler_factor == 8.0
        assert plan.sensor_dropout_rate == 0.02
        assert plan.max_retries == 5
        assert plan.retry_timeout_cycles == 1000
        assert plan.retry_backoff == 3.0
        assert plan.health_check_timeout_cycles == 9000

    def test_crash_and_raise_schedules(self):
        plan = parse_fault_spec("crash=1@30,crash=2@10,raise=12,raise=5")
        assert plan.shard_crashes == ((10, 2), (30, 1))
        assert plan.raise_at_steps == (5, 12)

    def test_sram_auto_derives_from_technology(self):
        plan = parse_fault_spec("sram=auto")
        assert plan.sram_flip_rate == pytest.approx(
            sram_flip_rate_from_technology()
        )
        assert 0.0 < plan.sram_flip_rate < 1.0

    @pytest.mark.parametrize("bad", [
        "", "bogus", "crash=1", "unknown=3", "sram=nope",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestSoftErrorRates:
    def test_mram_storage_is_most_upset_immune(self):
        # The paper's selling point carries to fault modelling: magnetic
        # storage is SEU-immune relative to volatile charge storage.
        assert (
            STT_MRAM.soft_error_rate_per_bit_s
            < DDR_DRAM.soft_error_rate_per_bit_s
            < ON_DIE_SRAM.soft_error_rate_per_bit_s
        )

    def test_rate_scales_and_clamps(self):
        base = sram_flip_rate_from_technology(bits=1 << 20)
        assert sram_flip_rate_from_technology(bits=1 << 21) == pytest.approx(
            min(2 * base, 1.0)
        )
        assert sram_flip_rate_from_technology(acceleration=1e30) == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="soft error rate"):
            MemoryTechnology(
                name="bad", read_latency_s=1e-9, write_latency_s=1e-9,
                read_energy_per_bit_j=1e-12, write_energy_per_bit_j=1e-12,
                non_volatile=False, soft_error_rate_per_bit_s=-1e-18,
            )

    def test_invalid_exposure_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sram_flip_rate_from_technology(bits=0)


class TestRecoveryPrimitives:
    def test_flip_raw_bit_roundtrips(self):
        for raw in (0, 1, -1, 1000, Q2_13.max_raw, Q2_13.min_raw):
            for bit in (0, 7, 15):
                flipped = flip_raw_bit(raw, bit, Q2_13)
                assert flipped != raw
                assert flip_raw_bit(flipped, bit, Q2_13) == raw
                assert Q2_13.min_raw <= flipped <= Q2_13.max_raw

    def test_flip_sign_bit_goes_negative(self):
        assert flip_raw_bit(0, Q2_13.total_bits - 1, Q2_13) < 0

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError):
            flip_raw_bit(0, 16, Q2_13)
        with pytest.raises(ValueError):
            flip_raw_bit(0, -1, Q8_8)

    def test_checksum_detects_single_element_change(self):
        buffers = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        before = buffer_checksum(buffers)
        buffers["a"][1, 2] += 1e-9
        assert buffer_checksum(buffers) != before

    def test_checksum_is_name_order_insensitive(self):
        a = np.arange(4.0)
        b = np.ones(3)
        assert buffer_checksum({"x": a, "y": b}) == buffer_checksum(
            {"y": b, "x": a}
        )
        assert buffer_checksum({}) == 0


class TestInjectorDeterminism:
    def test_decisions_depend_only_on_plan_and_counters(self):
        plan = FaultPlan(
            seed=5, sram_flip_rate=0.3, publish_drop_rate=0.3,
            shard_transient_rate=0.3, shard_straggler_rate=0.3,
            sensor_dropout_rate=0.3,
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        # Interleave unrelated draws on b: decisions keyed by explicit
        # counters must not shift.
        for update in range(1, 30):
            b.sensor_dropout(0)
            assert a.drop_publish(update) == b.drop_publish(update)
            assert (a.sram_flip_rng(update) is None) == (
                b.sram_flip_rng(update) is None
            )
            assert a.transient_attempts(update, 2) == b.transient_attempts(
                update, 2
            )
            assert a.straggler_factor(update, 1) == b.straggler_factor(
                update, 1
            )

    def test_zero_rates_never_fire(self):
        inj = FaultInjector(FaultPlan(seed=0))
        for update in range(1, 100):
            assert inj.sram_flip_rng(update) is None
            assert not inj.drop_publish(update)
            assert inj.corrupt_rng(update) is None
            assert inj.transient_attempts(update, 0) == 0
            assert inj.straggler_factor(update, 0) == 1.0
            assert not inj.sensor_dropout(update)

    def test_crash_schedule_fires_once(self):
        inj = FaultInjector(FaultPlan(seed=0, shard_crashes=((3, 1),)))
        inj.note_step(); inj.note_step()
        assert inj.due_crashes() == []
        inj.note_step()
        assert inj.due_crashes() == [1]
        inj.kill(1)
        assert inj.due_crashes() == []

    def test_ledger_counts_and_drains(self):
        inj = FaultInjector(FaultPlan(seed=0))
        rec = inj.record("sram.flip", target="W1")
        inj.mark_detected(rec)
        inj.mark_detected(rec)  # idempotent
        inj.mark_recovered(rec, "fixed")
        inj.add_recovery_cycles(100)
        inj.note_degraded(8)
        out = inj.drain_round()
        assert out == {
            "injected": 1, "detected": 1, "recovered": 1,
            "recovery_cycles": 100, "degraded_states": 8,
        }
        # Bucket reset; the event log survives the drain.
        assert inj.drain_round()["injected"] == 0
        log = inj.event_log()
        assert len(log) == 1 and log[0]["recovered"]
        assert log[0]["detail"] == "fixed"


class TestWeightBusFaults:
    def _agent(self, sync_every=2):
        net = make_net()
        return make_agent(
            SystolicBackend(net), sync_every=sync_every
        )

    def test_sram_flip_detected_and_rolled_back(self):
        agent = self._agent()
        with chaos(FaultPlan(seed=1, sram_flip_rate=1.0)) as inj:
            agent.weight_bus.publish()  # captures good, injects a flip
            before = agent.backend.weight_checksum()
            agent.weight_bus.publish()  # integrity check catches it
        events = inj.events
        assert events[0].kind == "sram.flip"
        assert events[0].detected and events[0].recovered
        assert "rollback" in events[0].detail
        # The rollback restored the checksum-good snapshot.
        assert agent.backend.weight_checksum() != before

    def test_flip_targets_track_buffer_sizes(self):
        """A soft error hits every stored word with equal odds, so each
        serving buffer's share of flips tracks its share of the words:
        a 5-word bias is not as exposed as a 6144-word weight matrix."""
        bus = self._agent().weight_bus
        buffers = bus.backend.weight_buffers()
        words = sum(arr.size for arr in buffers.values())
        rng = np.random.default_rng(0)
        draws = 20_000
        hits = dict.fromkeys(buffers, 0)
        for _ in range(draws):
            name, index, bit = bus._pick_bit(rng)
            assert 0 <= index < buffers[name].size
            assert 0 <= bit < Q2_13.total_bits
            hits[name] += 1
        for name, arr in buffers.items():
            share = arr.size / words
            # Four binomial standard deviations, plus a little slack.
            bound = 4 * np.sqrt(share * (1 - share) / draws) + 1e-3
            assert abs(hits[name] / draws - share) <= bound, (name, hits)

    def test_flip_open_across_layer_failover_is_rolled_back(self):
        """A flip still open when a layer failover re-plans the slices
        stays in the one serving buffer the survivors read: the next
        publish's ordinary checksum check catches it and rolls back."""
        backend = ShardedBackend(make_net(), shards=4, shard="layer")
        agent = make_agent(backend, sync_every=4)
        states = np.zeros((2, 1, SIDE, SIDE))
        plan = FaultPlan(seed=1, sram_flip_rate=1.0, shard_crashes=((1, 1),))
        with chaos(plan) as inj:
            agent.weight_bus.publish()  # captures good, injects a flip
            good = agent.weight_bus._good_checksum
            layout = {n: a.shape for n, a in backend.weight_buffers().items()}
            assert not inj.events[0].detected
            inj.note_step()
            backend.forward_batch(states)  # crash: fail over onto 3 arrays
            assert inj.events[1].kind == "shard.crash"
            # The failover left the buffer, and the flip in it, alone.
            assert {
                n: a.shape for n, a in backend.weight_buffers().items()
            } == layout
            assert backend.weight_checksum() != good
            agent.weight_bus.publish()  # integrity check catches it
            flip = inj.events[0]
            assert flip.kind == "sram.flip"
            assert flip.target in layout
            assert flip.detected and flip.recovered
            assert "rollback" in flip.detail

    def test_publish_drop_caught_by_staleness_watchdog(self):
        agent = self._agent(sync_every=2)
        with chaos(FaultPlan(seed=1, publish_drop_rate=1.0)) as inj:
            agent.weight_bus.publish()              # staleness 1
            assert not agent.weight_bus.publish()   # due flip dropped
            assert agent.weight_bus.staleness == 2
            assert agent.weight_bus.publish()       # watchdog force-flips
            assert agent.weight_bus.staleness == 0
        drop = inj.events[0]
        assert drop.kind == "publish.drop"
        assert drop.detected and drop.recovered
        assert "watchdog" in drop.detail

    def test_flip_corruption_retries_then_recovers(self):
        agent = self._agent(sync_every=1)
        with chaos(
            FaultPlan(seed=2, buffer_corruption_rate=0.999)
        ) as inj:
            for _ in range(3):
                agent.weight_bus.publish()
        corrupt = [e for e in inj.events if e.kind == "buffer.corrupt"]
        assert corrupt
        assert all(e.detected and e.recovered for e in corrupt)
        assert inj.drain_round()["recovery_cycles"] > 0

    def test_numpy_backend_is_exempt(self):
        # No serving snapshot, nothing to corrupt: chaos publishes run
        # the plain path.
        agent = make_agent(NumpyBackend(make_net()))
        with chaos(FaultPlan(seed=1, sram_flip_rate=1.0)) as inj:
            agent.weight_bus.publish()
        assert inj.events == []


class TestShardFaults:
    def _sharded(self, policy="sample"):
        net = make_net()
        return ShardedBackend(net, shards=4, shard=policy), net

    def _states(self, n=4):
        rng = np.random.default_rng(0)
        return rng.uniform(0, 1, size=(n, 1, SIDE, SIDE))

    def test_zero_plan_is_bitwise_identical(self):
        backend, _ = self._sharded()
        states = self._states()
        base, base_cost = backend.forward_batch(states)
        with chaos(FaultPlan(seed=0)):
            chaotic, chaos_cost = backend.forward_batch(states)
        assert np.array_equal(base, chaotic)
        assert base_cost.total_cycles == chaos_cost.total_cycles
        assert base_cost.shard_cycles == chaos_cost.shard_cycles

    @pytest.mark.parametrize("policy", ["sample", "layer"])
    def test_crash_failover_is_bitwise_equal(self, policy):
        backend, _ = self._sharded(policy)
        states = self._states()
        base, _ = backend.forward_batch(states)
        with chaos(FaultPlan(seed=0, shard_crashes=((1, 2),))) as inj:
            inj.note_step()
            out, cost = backend.forward_batch(states)
        assert np.array_equal(base, out)
        crash = inj.events[0]
        assert crash.kind == "shard.crash" and crash.target == "shard2"
        assert crash.detected and crash.recovered
        assert "failover" in crash.detail
        # The dead array charges nothing after failover.
        assert cost.shard_cycles[2] == 0
        assert inj.drain_round()["recovery_cycles"] > 0

    @pytest.mark.parametrize("policy", ["sample", "layer", "pipeline"])
    def test_failover_serves_the_published_weights(self, policy):
        """A crash failover re-plans the schedule, never the weights:
        live trainer updates the weight bus has not flipped stay off
        the datapath, so the served Q values and the serving-buffer
        checksum are the same before and after the failover."""
        backend, net = self._sharded(policy)
        bus = make_agent(backend, sync_every=4).weight_bus
        states = self._states()
        served, _ = backend.forward_batch(states)
        checksum = backend.weight_checksum()
        for p in net.parameters():
            p.value = p.value + 0.01
        bus.publish()  # staged, not flipped
        with chaos(FaultPlan(seed=0, shard_crashes=((1, 2),))) as inj:
            inj.note_step()
            q, cost = backend.forward_batch(states)
        assert inj.events[0].kind == "shard.crash" and cost.shard_cycles[2] == 0
        assert q.tobytes() == served.tobytes()
        assert backend.weight_checksum() == checksum
        assert bus.staleness == 1

    def test_all_arrays_lost_degrades_to_numpy(self):
        backend, net = self._sharded()
        states = self._states()
        crashes = tuple((1, k) for k in range(4))
        with chaos(FaultPlan(seed=0, shard_crashes=crashes)) as inj:
            inj.note_step()
            out, cost = backend.forward_batch(states)
        # Degraded output is the float path, not the quantised arrays.
        assert np.array_equal(out, NumpyBackend(net).forward_batch(states)[0])
        assert cost.total_cycles == 0
        kinds = [e.kind for e in inj.events]
        assert kinds.count("shard.crash") == 4
        assert "fleet.degraded" in kinds
        assert inj.drain_round()["degraded_states"] == 4

    def test_transient_and_straggler_charge_recovery_cycles(self):
        backend, _ = self._sharded()
        states = self._states()
        base, base_cost = backend.forward_batch(states)
        plan = FaultPlan(
            seed=3, shard_transient_rate=1.0, shard_straggler_rate=1.0,
            straggler_factor=4.0,
        )
        with chaos(plan) as inj:
            out, cost = backend.forward_batch(states)
        # Transients and stragglers cost wall-clock (per-array and
        # critical-path) cycles, never correctness; the layer-work
        # totals are untouched.
        assert np.array_equal(base, out)
        assert cost.total_cycles == base_cost.total_cycles
        assert cost.critical_path_cycles > base_cost.critical_path_cycles
        assert all(
            chaos_k > base_k
            for chaos_k, base_k in zip(cost.shard_cycles, base_cost.shard_cycles)
        )
        kinds = {e.kind for e in inj.events}
        assert kinds == {"shard.transient", "shard.straggler"}
        assert all(e.detected and e.recovered for e in inj.events)
        assert inj.drain_round()["recovery_cycles"] > 0

    def test_train_cost_splits_over_survivors(self):
        backend, _ = self._sharded()
        alive_cost = backend.train_cost(8, (1, SIDE, SIDE))
        with chaos(FaultPlan(seed=0, shard_crashes=((1, 0),))) as inj:
            inj.note_step()
            backend.forward_batch(self._states())
            degraded = backend.train_cost(8, (1, SIDE, SIDE))
        assert degraded.shard_cycles[0] == 0
        assert degraded.critical_path_cycles >= alive_cost.critical_path_cycles


def _assert_poisoned_weights_recovered(backend) -> None:
    """Rail the served weights; the agent's guard must flip and recompute."""
    agent = make_agent(backend)
    served = backend.weight_buffers()
    states = np.random.default_rng(0).uniform(0, 1, size=(4, 1, SIDE, SIDE))
    with chaos(FaultPlan(seed=0, sram_flip_rate=1e-9)) as inj:
        # Poison the *served* value snapshots only; the float staging
        # weights stay clean, so a bus flip is a real repair.  Huge
        # weights rail every activation at the quantization ceiling,
        # which is exactly the signature the guard's rail-pinned check
        # looks for (NaNs would be laundered into finite codes by the
        # activation quantizer).
        for name in served:
            served[name][:] = 1e9
        q = agent.act_batch(states, greedy=True)
    assert q.shape == (4,)
    anomaly = [e for e in inj.events if e.kind == "qvalue.anomaly"]
    assert len(anomaly) == 1
    assert anomaly[0].detected and anomaly[0].recovered
    assert "recompute" in anomaly[0].detail
    # The served snapshot is clean again.
    clean_q, clean = backend.forward_batch(states)
    assert np.isfinite(clean_q).all()
    # The recompute is charged its cycles but serves the same batch:
    # the ledger holds 4 states and two clean forwards' cycles.
    ledger = agent.drain_inference_cost()
    assert ledger.states == 4
    assert ledger.total_cycles == 2 * clean.total_cycles


class TestQValueGuard:
    def test_poisoned_weights_detected_and_recovered(self):
        _assert_poisoned_weights_recovered(SystolicBackend(make_net()))

    def test_poisoned_quantized_weights_detected_and_recovered(self):
        # The cycle-free view of the datapath serves the same buffer and
        # formats, so its railed Q values are caught and repaired too.
        _assert_poisoned_weights_recovered(QuantizedBackend(make_net()))

    @pytest.mark.parametrize("shard", ["sample", "layer", "pipeline"])
    def test_poisoned_sharded_weights_detected_and_recovered(self, shard):
        # Every policy serves from its one datapath's buffer, and the
        # guard reads the quantised format through the sharded backend.
        _assert_poisoned_weights_recovered(
            ShardedBackend(make_net(), shards=2, shard=shard)
        )

    def test_guard_blames_undetected_flip_first(self):
        net = make_net()
        backend = SystolicBackend(net)
        agent = make_agent(backend)
        states = np.random.default_rng(0).uniform(
            0, 1, size=(4, 1, SIDE, SIDE)
        )
        with chaos(FaultPlan(seed=0, sram_flip_rate=1e-9)) as inj:
            flip = inj.record("sram.flip", target="W1")
            for buffer in backend.weight_buffers().values():
                buffer[:] = 1e9
            agent.act_batch(states, greedy=True)
        # The guard attributes the anomaly to the known injected flip
        # rather than opening a fresh anomaly record.
        assert flip.detected and flip.recovered
        assert not any(e.kind == "qvalue.anomaly" for e in inj.events)


class TestVecEnvFaults:
    def test_scheduled_raise_is_recorded(self):
        vec_env = make_fleet(2)
        states = vec_env.reset()
        actions = np.zeros(2, dtype=int)
        with chaos(FaultPlan(seed=0, raise_at_steps=(2,))) as inj:
            vec_env.step(actions)
            with pytest.raises(FaultInjectionError, match="fleet step 2"):
                vec_env.step(actions)
        assert [e.kind for e in inj.events] == ["env.exception"]

    def test_sensor_dropout_holds_last_frame(self):
        vec_env = make_fleet(2)
        vec_env.reset()
        actions = np.zeros(2, dtype=int)
        with chaos(FaultPlan(seed=0, sensor_dropout_rate=1.0)) as inj:
            first, _, _, _ = vec_env.step(actions)
            second, _, _, _ = vec_env.step(actions)
        drops = [e for e in inj.events if e.kind == "sensor.dropout"]
        # Every env dropped on both steps; all detected by the
        # dead-frame check.
        assert len(drops) == 4
        assert all(e.detected for e in drops)
        # Step 1 had no history: dead zero frames served, not recovered.
        step1 = [e for e in drops if e.step == 1]
        assert not any(e.recovered for e in step1)
        assert not first.any()
        # Step 2 recovered by holding the last served frame.
        step2 = [e for e in drops if e.step == 2]
        assert all(e.recovered for e in step2)
        assert np.array_equal(second, first)

    def test_disabled_seam_is_bitwise_identical(self):
        def run():
            vec_env = make_fleet(2)
            states = [vec_env.reset()]
            for _ in range(5):
                states.append(vec_env.step(np.zeros(2, dtype=int))[0])
            return np.stack(states)

        plain = run()
        with chaos(FaultPlan(seed=9)):  # zero rates: nothing may fire
            under_seam = run()
        assert np.array_equal(plain, under_seam)


class TestFleetChaosRun:
    def _run(self, plan=None, num_envs=4, **backend_kwargs):
        agent = make_agent(
            ShardedBackend(
                make_net(), shards=4, **{"shard": "sample", **backend_kwargs}
            ),
            sync_every=4,
        )
        scheduler = FleetScheduler(
            agent, make_fleet(num_envs), train_every=2, eval_steps=5
        )
        if plan is None:
            return scheduler.run(rounds=2, steps_per_round=20)
        with chaos(plan):
            return scheduler.run(rounds=2, steps_per_round=20)

    def test_event_log_replays_identically(self):
        plan = parse_fault_spec(
            "seed=7,crash=1@15,transient=0.1,straggler=0.1,sensor=0.02"
        )
        a = self._run(plan)
        b = self._run(plan)
        assert a.fault_events == b.fault_events
        assert [
            (r.faults_injected, r.faults_detected, r.faults_recovered,
             r.fault_recovery_cycles, r.active_shards)
            for r in a.rounds
        ] == [
            (r.faults_injected, r.faults_detected, r.faults_recovered,
             r.fault_recovery_cycles, r.active_shards)
            for r in b.rounds
        ]

    def test_crash_reports_failover_metrics(self):
        report = self._run(parse_fault_spec("seed=7,crash=1@15"))
        assert report.availability < 1.0
        assert report.total_faults_recovered >= 1
        assert report.mttr_rounds >= 1.0
        assert report.rounds[-1].active_shards == 3
        assert any(
            e["kind"] == "shard.crash" for e in report.fault_events
        )

    def test_layer_crash_failover_under_default_chaos_completes(self):
        """A layer-sharding failover under the default chaos mix
        re-plans the slices over the survivors and the run completes
        (it once died rolling a 4-array snapshot back into 3-array
        buffers)."""
        plan = FaultPlan(
            seed=0, shard_crashes=((10, 1),), **DEFAULT_CHAOS_RATES
        )
        report = self._run(plan, shard="layer", noc="mesh")
        assert report.total_env_steps == 2 * (20 + 5) * 4
        assert report.rounds[-1].active_shards == 3
        assert 0.0 < report.availability < 1.0
        crash = next(e for e in report.fault_events if e["kind"] == "shard.crash")
        assert crash["detected"] and crash["recovered"]
        # Upsets before and after the failover hit the one serving
        # buffer the survivors read, under its full buffer names.
        flips = [e for e in report.fault_events if e["kind"] == "sram.flip"]
        assert flips and all("/" not in e["target"] for e in flips)

    def test_fault_free_run_reports_trivial_metrics(self):
        report = self._run()
        assert report.availability == 1.0
        assert report.mttr_rounds == 0.0
        assert report.degraded_fraction == 0.0
        assert report.fault_events == []
        assert all(r.faults_injected == 0 for r in report.rounds)
        assert all(r.active_shards == 4 for r in report.rounds)


class TestTrafficFaultFields:
    def test_projection_carries_and_derates(self, fleet_report):
        from repro.backend import StepCost
        from repro.fleet import project_fleet_load

        measured = StepCost(
            states=1000, layer_cycles={"FC1": 40_000 * 100}, shards=4,
            critical_path_cycles=10_000 * 100,
        )
        proj = project_fleet_load(
            fleet_report(
                measured, steps=100, updates=1, dead_shards=1,
                degraded_states=100,
            ),
            batch_size=16,
        )
        assert proj.report.availability == 0.75
        assert proj.report.degraded_fraction == 0.1
        assert proj.sharded_sustainable_steps_per_second == pytest.approx(1e5)
        assert proj.available_sustainable_steps_per_second == pytest.approx(
            proj.sharded_sustainable_steps_per_second * 0.75
        )
        # Unmeasured bound stays unbounded, availability or not.
        unmeasured = project_fleet_load(
            fleet_report(StepCost(shards=2), updates=1, dead_shards=1),
            batch_size=16,
        )
        assert unmeasured.report.availability == 0.5
        assert unmeasured.available_sustainable_steps_per_second == float(
            "inf"
        )


class TestCLIValidation:
    @pytest.mark.parametrize("flag", [
        "--shards", "--sync-every", "--pipeline-chunk",
    ])
    def test_counts_must_be_at_least_one(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", flag, "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_bad_faults_spec_is_an_error(self, capsys):
        with pytest.raises(SystemExit, match="bad --faults"):
            main(["fleet", "--faults", "nonsense"])

    def test_chaos_smoke_run_reports_faults(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        main([
            "fleet", "--backend", "sharded", "--shards", "4",
            "--num-envs", "4", "--rounds", "1", "--steps", "20",
            "--eval-steps", "5", "--sync-every", "4",
            "--faults", "seed=7,crash=1@10,transient=0.1",
            "--json", str(out_path),
        ])
        out = capsys.readouterr().out
        assert "fault injection:" in out
        assert "shard.crash" in out
        payload = json.loads(out_path.read_text())
        faults = payload["fleet"]["faults"]
        assert faults["injected"] >= 1
        assert faults["availability"] < 1.0
        assert any(
            e["kind"] == "shard.crash" for e in faults["events"]
        )
