"""Fault tolerance under seeded chaos: degraded throughput + recovery cost.

A short sharded fleet run is executed four ways — fault-free, under a
crash-only :class:`~repro.faults.FaultPlan` that kills 1 of the 4
arrays mid-run, and twice under a mixed chaos plan (the same crash plus
transients, stragglers, weight-bus faults and sensor dropout).  The
chaos runs pin the stack's fault-tolerance guarantees:

* **Determinism** — both mixed-plan runs produce the identical
  per-round ledger *and* the identical fault/recovery event log
  (counter-keyed RNG streams, no wall-clock anywhere in the fault
  path).
* **Failover** — the crashed run completes, reports availability < 1,
  at least one recovered fault, and an MTTR of >= 1 round.
* **Degraded-throughput floor** — with 1 of K arrays dead, the modelled
  sustainable step rate (critical-path cycles) of the *crash-only* run
  must stay at or above the (K-1)/K scaling floor times a margin:
  failover may not cost more than the dead array's proportional share.
  The fleet width (12 envs) divides evenly over both 4 and 3 shards, so
  the floor is exact, not a granularity artifact.  Relaxable via
  ``FAULTS_DEGRADED_MARGIN``.
* **Recovery-overhead ceiling** — the cycles the mixed run charges to
  retries, rollbacks and failover health checks must stay a small
  fraction of its critical path (``FAULTS_RECOVERY_CEILING``).

Artifacts: ``fault_tolerance.txt`` + ``BENCH_faults.json`` — the
CI-uploaded record of the degraded-run floor and recovery ceiling.
"""

import os

import pytest

from _artifacts import write_artifacts
from repro.backend import ShardedBackend
from repro.faults import chaos, parse_fault_spec
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.fleet.scheduler import per
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16
SHARDS = 4
#: Evenly divisible by SHARDS and SHARDS - 1, so sample-policy failover
#: redistributes the batch with no remainder — the proportional floor
#: is exact.
NUM_ENVS = 12
ROUNDS = 2
STEPS_PER_ROUND = 40
#: Kill shard 1 at fleet step 30 of 80 — the run finishes on 3 arrays.
CRASH_SPEC = "seed=7,crash=1@30"
CHAOS_SPEC = (
    CRASH_SPEC + ",sram=0.05,drop=0.1,corrupt=0.05,"
    "transient=0.05,straggler=0.05,sensor=0.02"
)
DEGRADED_MARGIN = float(os.environ.get("FAULTS_DEGRADED_MARGIN", "0.95"))
RECOVERY_CEILING = float(os.environ.get("FAULTS_RECOVERY_CEILING", "0.25"))


def _run_fleet(plan=None):
    """One short sharded fleet run; returns (report, scheduler)."""
    network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 400),
        seed=0,
        batch_size=4,
        backend=ShardedBackend(network, shards=SHARDS, shard="sample"),
        sync_every=4,
    )
    vec_env = VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=list(range(NUM_ENVS)),
        image_side=SIDE,
        max_episode_steps=100,
    )
    scheduler = FleetScheduler(agent, vec_env, train_every=2, eval_steps=10)
    if plan is None:
        return scheduler.run(ROUNDS, STEPS_PER_ROUND), scheduler
    with chaos(plan):
        return scheduler.run(ROUNDS, STEPS_PER_ROUND), scheduler


def _fingerprint(report):
    """Deterministic (non-wall-clock) content of a fleet report."""
    return [
        (
            r.env_steps, r.episodes, r.train_updates, r.mean_loss,
            r.inference, r.training,
            r.faults_injected, r.faults_detected, r.faults_recovered,
            r.fault_recovery_cycles, r.degraded_states, r.active_shards,
        )
        for r in report.rounds
    ]


def test_fault_tolerance(benchmark, results_dir):
    crash_plan = parse_fault_spec(CRASH_SPEC)
    chaos_plan = parse_fault_spec(CHAOS_SPEC)

    def run():
        clean, _ = _run_fleet()
        crashed, _ = _run_fleet(crash_plan)
        first, scheduler = _run_fleet(chaos_plan)
        second, _ = _run_fleet(chaos_plan)
        return clean, crashed, first, second, scheduler

    clean, crashed, report, replay, scheduler = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Determinism: the same plan replays the identical run and the
    # identical fault/recovery event log.
    assert _fingerprint(report) == _fingerprint(replay)
    assert report.fault_events == replay.fault_events

    # Failover: both chaos runs completed on K-1 arrays and said so.
    for r in (crashed, report):
        assert r.total_faults_injected > 0
        assert r.total_faults_recovered >= 1
        assert r.availability < 1.0
        assert r.mttr_rounds >= 1.0
        assert any(e["kind"] == "shard.crash" for e in r.fault_events)

    # Degraded-throughput floor: modelled steps/sec of the crash-only
    # run vs fault-free, from the measured critical-path budgets.
    # Survivors absorb the dead shard's work, so per-step wall cycles
    # grow by at most K/(K-1) over the degraded stretch — the crashed
    # run must keep at least (K-1)/K of the clean modelled rate (times
    # a margin for the merge traffic of the rebuilt split).
    clean_cps = per(clean.total_critical_path_cycles, clean.total_env_steps)
    crashed_cps = per(
        crashed.total_critical_path_cycles, crashed.total_env_steps
    )
    degraded_ratio = clean_cps / crashed_cps if crashed_cps else 1.0
    floor = (SHARDS - 1) / SHARDS * DEGRADED_MARGIN
    assert degraded_ratio >= floor, (
        f"degraded throughput ratio {degraded_ratio:.3f} fell below the "
        f"{SHARDS - 1}/{SHARDS} failover floor x {DEGRADED_MARGIN} margin "
        f"= {floor:.3f}"
    )

    # Recovery-overhead ceiling: detection + recovery of the full chaos
    # mix must stay cheap relative to the work the run actually served.
    overhead = (
        report.total_fault_recovery_cycles
        / report.total_critical_path_cycles
        if report.total_critical_path_cycles
        else 0.0
    )
    assert overhead <= RECOVERY_CEILING, (
        f"recovery overhead {overhead:.3f} of the critical path exceeds "
        f"the {RECOVERY_CEILING} ceiling"
    )

    projection = scheduler.project_load(report)
    assert projection.available_sustainable_steps_per_second == pytest.approx(
        projection.sharded_sustainable_steps_per_second * report.availability
    )

    by_kind: dict[str, int] = {}
    for event in report.fault_events:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    write_artifacts(
        results_dir,
        "fault_tolerance.txt",
        (
            f"chaos run ({CHAOS_SPEC}): {report.total_faults_injected} "
            f"injected / {report.total_faults_detected} detected / "
            f"{report.total_faults_recovered} recovered, availability "
            f"{report.availability:.3f}, MTTR {report.mttr_rounds:.1f} "
            f"rounds\ndegraded throughput ratio {degraded_ratio:.3f} "
            f"(floor {floor:.3f}), recovery overhead {overhead:.4f} "
            f"(ceiling {RECOVERY_CEILING})"
        ),
        "BENCH_faults.json",
        {
            "crash_spec": CRASH_SPEC,
            "chaos_spec": CHAOS_SPEC,
            "shards": SHARDS,
            "num_envs": NUM_ENVS,
            "faults_injected": report.total_faults_injected,
            "faults_detected": report.total_faults_detected,
            "faults_recovered": report.total_faults_recovered,
            "fault_kinds": by_kind,
            "availability": report.availability,
            "mttr_rounds": report.mttr_rounds,
            "degraded_fraction": report.degraded_fraction,
            "clean_critical_path_cycles_per_step": clean_cps,
            "crashed_critical_path_cycles_per_step": crashed_cps,
            "degraded_throughput_ratio": degraded_ratio,
            "degraded_throughput_floor": floor,
            "recovery_cycles": report.total_fault_recovery_cycles,
            "recovery_overhead_fraction": overhead,
            "recovery_overhead_ceiling": RECOVERY_CEILING,
            "available_sustainable_steps_per_second": (
                projection.available_sustainable_steps_per_second
            ),
        },
    )
