"""Multi-array sharding throughput and async rollout/train pipelining.

Two measurements on the fleet-sized observation batch:

* **K-array scaling** — the single-array cycle budget versus the
  sharded critical path for K in {1, 2, 4, 8} under all three shard
  policies.  ``cycle_speedup`` is the wall-clock payoff of K arrays
  (single-array cycles / critical-path cycles); sample sharding must
  reach the acceptance bound of <= 0.3x single-array cycles at K=4,
  and the pipeline policy must hold >= 0.75 scaling efficiency at
  K=8 — the regime where layer sharding's per-layer all-gather
  collapses to ~0.59.
* **Pipelined fleet** — a short sharded fleet run with an async weight
  bus (``sync_every=4``): measured pipeline overlap fraction, mean
  served snapshot staleness, and the serving agreement sampled
  mid-run (stale fixed-point policy vs the live float policy) for a
  sweep of sync cadences — the agreement/staleness tradeoff, measured.

Artifacts: ``sharding_throughput.txt`` (human-readable tables) and
``BENCH_sharding.json`` (machine-readable speedups/fractions) for
trajectory tracking.
"""

import time

import numpy as np

from _artifacts import write_artifacts
from repro.analysis import format_table
from repro.backend import ShardedBackend, SystolicBackend
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16
BATCH = 64
SHARD_COUNTS = (1, 2, 4, 8)
SYNC_SWEEP = (1, 4, 16)
#: Acceptance bound: K=4 sample sharding's critical path vs one array.
K4_CRITICAL_CEILING = 0.3
#: Acceptance floor: pipeline scaling efficiency at K=8 (layer
#: sharding collapses to ~0.59 here; the pipeline must not).
PIPELINE_K8_EFFICIENCY_FLOOR = 0.75


def _make_fleet(num_envs=4):
    return VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=list(range(num_envs)),
        image_side=SIDE,
        max_episode_steps=100,
    )


def _scaling_rows(network, states, single_cycles, single_seconds):
    out = {}
    for policy in ("sample", "layer", "pipeline"):
        for shards in SHARD_COUNTS:
            backend = ShardedBackend(network, shards=shards, shard=policy)
            backend.forward_batch(states[:2])  # warm caches
            start = time.perf_counter()
            _, cost = backend.forward_batch(states)
            seconds = time.perf_counter() - start
            # Wall-seconds efficiency rides along with the modelled
            # one: the host runs the K arrays one after another, so
            # this shows what sharding costs the simulator itself.
            wall_speedup = single_seconds / seconds if seconds else 0.0
            out[f"{policy}-{shards}"] = {
                "policy": policy,
                "shards": shards,
                "seconds": seconds,
                "work_cycles": cost.total_cycles,
                "critical_path_cycles": cost.critical_path_cycles,
                "merge_cycles": cost.merge_cycles,
                "fill_drain_cycles": cost.fill_drain_cycles,
                "cycle_speedup": single_cycles / cost.critical_path_cycles,
                "scaling_efficiency": (
                    single_cycles / cost.critical_path_cycles / shards
                ),
                "wall_speedup": wall_speedup,
                "wall_scaling_efficiency": wall_speedup / shards,
            }
    return out


def _serving_agreement(agent, vec_env, probe, steps, train_every=2):
    """Mean stale-vs-float agreement sampled across a training run."""
    states = vec_env.reset()
    samples = []
    train_batch = agent.batch_size * vec_env.num_envs
    for step in range(steps):
        actions = agent.act_batch(states)
        next_states, rewards, dones, infos = vec_env.step(actions)
        agent.observe_batch(
            vec_env.make_transitions(
                states, actions, rewards, dones, next_states, infos
            )
        )
        if len(agent.replay) >= train_batch and step % train_every == 0:
            agent.train_step_batch(train_batch)
        if step % 10 == 9:
            # Probe the *serving* snapshot at whatever staleness the
            # bus currently has — the number a fleet user experiences.
            samples.append(agent.backend.agreement_rate(probe))
        states = next_states
    return float(np.mean(samples)), agent.weight_bus.flips


def test_sharding_throughput(benchmark, results_dir):
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
    rng = np.random.default_rng(0)
    states = rng.uniform(0.0, 1.0, size=(BATCH, 1, SIDE, SIDE))
    probe = rng.uniform(0.0, 1.0, size=(32, 1, SIDE, SIDE))

    def run():
        single = SystolicBackend(network)
        single.forward_batch(states[:2])
        start = time.perf_counter()
        _, single_cost = single.forward_batch(states)
        single_seconds = time.perf_counter() - start
        scaling = _scaling_rows(
            network, states, single_cost.total_cycles, single_seconds
        )

        # Pipelined sharded fleet with an async weight bus.
        fleet_net = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        agent = QLearningAgent(
            fleet_net,
            config=config_by_name("L4"),
            epsilon=EpsilonSchedule(1.0, 0.1, 400),
            seed=0,
            batch_size=4,
            backend=ShardedBackend(fleet_net, shards=4, shard="sample"),
            sync_every=4,
        )
        scheduler = FleetScheduler(
            agent, _make_fleet(), train_every=2, eval_steps=10
        )
        report = scheduler.run(rounds=2, steps_per_round=60)
        fleet = {
            "shards": report.shards,
            "pipeline_overlap_fraction": report.pipeline_overlap_fraction,
            "mean_sync_staleness": report.mean_sync_staleness,
            "cycles_per_env_step": report.cycles_per_env_step,
            "critical_path_cycles_per_env_step": (
                report.critical_path_cycles_per_env_step
            ),
        }

        # Agreement/staleness tradeoff: serving agreement vs cadence.
        staleness = {}
        for sync_every in SYNC_SWEEP:
            net = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
            sweep_agent = QLearningAgent(
                net,
                config=config_by_name("L4"),
                epsilon=EpsilonSchedule(1.0, 0.1, 400),
                seed=0,
                batch_size=4,
                backend=ShardedBackend(net, shards=4, shard="sample"),
                sync_every=sync_every,
            )
            agreement, flips = _serving_agreement(
                sweep_agent, _make_fleet(), probe, steps=120
            )
            staleness[sync_every] = {
                "serving_agreement": agreement,
                "flips": flips,
            }
        return {
            "single": {
                "seconds": single_seconds,
                "cycles": single_cost.total_cycles,
            },
            "scaling": scaling,
            "fleet": fleet,
            "staleness": staleness,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    scaling_rows = [
        [
            r["policy"],
            r["shards"],
            round(r["critical_path_cycles"] / 1e3, 1),
            round(r["merge_cycles"] / 1e3, 1),
            round(r["fill_drain_cycles"] / 1e3, 1),
            round(r["cycle_speedup"], 2),
            round(r["scaling_efficiency"], 2),
            round(r["wall_speedup"], 2),
            round(r["wall_scaling_efficiency"], 2),
        ]
        for r in results["scaling"].values()
    ]
    table = format_table(
        [
            "Policy", "K", "Critical kcyc", "Merge kcyc", "Bubble kcyc",
            "Cycle speedup", "Cycle eff", "Wall speedup", "Wall eff",
        ],
        scaling_rows,
    )
    fleet = results["fleet"]
    staleness_rows = [
        [s, round(r["serving_agreement"], 3), r["flips"]]
        for s, r in results["staleness"].items()
    ]
    body = (
        f"single array: {results['single']['cycles']} cycles for the "
        f"{BATCH}-state observation batch\n\n"
        + table
        + "\n\npipelined sharded fleet (K=4, sample, sync_every=4): "
        f"overlap {fleet['pipeline_overlap_fraction']:.2f}, mean served "
        f"staleness {fleet['mean_sync_staleness']:.2f} updates, critical "
        f"path {fleet['critical_path_cycles_per_env_step'] / 1e3:.1f} "
        "kcycles/env-step\n\n"
        + format_table(
            ["sync_every", "Serving agreement", "Flips"], staleness_rows
        )
    )
    write_artifacts(
        results_dir,
        "sharding_throughput.txt",
        body,
        "BENCH_sharding.json",
        {"batch": BATCH, "image_side": SIDE, **results},
    )

    # K-array scaling: critical path shrinks with K; the K=4 sample
    # policy meets the acceptance ceiling.
    single_cycles = results["single"]["cycles"]
    k4 = results["scaling"]["sample-4"]
    assert k4["critical_path_cycles"] <= K4_CRITICAL_CEILING * single_cycles
    for policy in ("sample", "layer", "pipeline"):
        speedups = [
            results["scaling"][f"{policy}-{k}"]["cycle_speedup"]
            for k in SHARD_COUNTS
        ]
        assert speedups[0] <= 1.0 + 1e-9  # K=1 adds no parallelism
        assert all(b > a for a, b in zip(speedups, speedups[1:])), policy
    # The tentpole claim: where layer sharding's per-layer all-gather
    # collapses at K=8 (~0.59 efficiency), staged pipeline parallelism
    # holds the floor — only stage-boundary activations cross arrays.
    pipe8 = results["scaling"]["pipeline-8"]
    layer8 = results["scaling"]["layer-8"]
    assert pipe8["critical_path_cycles"] < layer8["critical_path_cycles"]
    assert pipe8["scaling_efficiency"] >= PIPELINE_K8_EFFICIENCY_FLOOR
    # Pipeline bubbles are charged explicitly, never negative.
    for k in SHARD_COUNTS[1:]:
        assert results["scaling"][f"pipeline-{k}"]["fill_drain_cycles"] >= 0
    # The interleaved pipeline measured real overlap and real staleness.
    assert fleet["pipeline_overlap_fraction"] > 0.0
    assert 0.0 < fleet["mean_sync_staleness"] < 4.0
    # Synchronous serving agreement is quantization-only (the floor);
    # the sweep rows document what staleness costs on top of it.
    assert results["staleness"][1]["serving_agreement"] >= 0.9
