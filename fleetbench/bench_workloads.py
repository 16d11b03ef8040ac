"""Workloads and seeded missions of the fleet benchmark.

A *mission* is one deterministic ``FleetScheduler.run`` over freshly
built envs, network, agent and backend.  Everything it computes except
host time is a pure function of its spec and seed, so running the same
mission again must reproduce its fingerprint bit for bit.  A workload
is a cycle of three missions seeded from the run's ``--seed``; a run
replays whole cycles until its measuring window closes.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.backend import SystolicBackend, make_backend
from repro.env.generators import ENVIRONMENTS
from repro.faults import DEFAULT_CHAOS_RATES, FaultPlan, chaos
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

#: Missions per cycle; mission ``j`` of a run is seeded ``1000 * seed + j``.
CYCLE = 3
IMAGE_SIDE = 16


@dataclass(frozen=True)
class MissionSpec:
    """One mission: fleet shape, backend, training cadence and length."""

    num_envs: int
    backend: str
    train_every: int
    rounds: int
    steps: int
    eval_steps: int
    shards: int = 1
    shard: str = "sample"
    noc: str = "flat"
    train_on_array: bool = False
    #: Scheduled crash ``(fleet_step, shard)``; when set the mission runs
    #: under ``DEFAULT_CHAOS_RATES`` plus this crash.
    crash: tuple[int, int] | None = None
    #: Check sharded Q values against one ``SystolicBackend`` afterwards.
    check_sharded: bool = False

    @property
    def fleet_steps(self) -> int:
        """Fleet steps (rollout + eval) of a mission that completes."""
        return self.rounds * (self.steps + self.eval_steps)

    def backend_kwargs(self) -> dict:
        if self.backend != "sharded":
            return {}
        return {"shards": self.shards, "shard": self.shard, "noc": self.noc}

    def fault_plan(self, seed: int) -> FaultPlan | None:
        if self.crash is None:
            return None
        return FaultPlan(
            seed=seed, shard_crashes=(self.crash,), **DEFAULT_CHAOS_RATES
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: The mission cycle (length ``CYCLE``).
    cycle: tuple[MissionSpec, ...]
    #: What one attempted operation is: a fleet ``"step"`` or a ``"mission"``.
    op: str


def _repeat(spec: MissionSpec) -> tuple[MissionSpec, ...]:
    return (spec,) * CYCLE


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rollout-numpy",
            cycle=_repeat(
                MissionSpec(
                    num_envs=16, backend="numpy", train_every=8,
                    rounds=2, steps=64, eval_steps=16,
                )
            ),
            op="step",
        ),
        Workload(
            name="online-train-l4",
            cycle=_repeat(
                MissionSpec(
                    num_envs=8, backend="systolic", train_every=1,
                    rounds=2, steps=32, eval_steps=8, train_on_array=True,
                )
            ),
            op="step",
        ),
        Workload(
            name="sharded-pipeline-k8",
            cycle=_repeat(
                MissionSpec(
                    num_envs=32, backend="sharded", train_every=2,
                    rounds=2, steps=16, eval_steps=4, shards=8,
                    shard="pipeline", noc="ring", train_on_array=True,
                    check_sharded=True,
                )
            ),
            op="step",
        ),
        Workload(
            name="chaos-failover",
            cycle=tuple(
                MissionSpec(
                    num_envs=8, backend="sharded", train_every=2,
                    rounds=2, steps=24, eval_steps=6, shards=4,
                    shard=policy, noc="mesh", train_on_array=True,
                    crash=(36, 1),
                )
                for policy in ("sample", "layer", "pipeline")
            ),
            op="mission",
        ),
    )
}


@dataclass
class Mission:
    """The objects one mission runs on, built from a spec and a seed."""

    spec: MissionSpec
    seed: int
    scheduler: FleetScheduler
    #: The fleet's first observation batch, kept for the sharded check.
    held_states: np.ndarray

    @property
    def agent(self) -> QLearningAgent:
        return self.scheduler.agent

    @property
    def vec_env(self) -> VecNavigationEnv:
        return self.scheduler.vec_env


def build_mission(spec: MissionSpec, seed: int) -> Mission:
    """Envs, network, agent, backend and the first forward of a mission."""
    vec_env = VecNavigationEnv.from_names(
        sorted(ENVIRONMENTS),
        seeds=[seed + i for i in range(spec.num_envs)],
        image_side=IMAGE_SIDE,
        max_episode_steps=400,
    )
    network = build_network(
        scaled_drone_net_spec(input_side=IMAGE_SIDE), seed=seed
    )
    agent_steps = spec.num_envs * spec.fleet_steps
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, max(agent_steps // 2, 1)),
        seed=seed,
        backend=make_backend(spec.backend, network, **spec.backend_kwargs()),
        train_on_array=spec.train_on_array,
    )
    scheduler = FleetScheduler(
        agent, vec_env, train_every=spec.train_every,
        eval_steps=spec.eval_steps,
    )
    held = scheduler.observations
    agent.backend.forward_batch(held)
    return Mission(spec, seed, scheduler, held)


@dataclass
class Outcome:
    """What one mission produced: its report or its error, and checks."""

    seed: int
    wall_ns: int
    report: object | None
    error: str | None
    events: list[dict]
    fingerprint: str
    #: Output checks that failed (empty when every check passed).
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def weight_checksum(network) -> int:
    """CRC-32 over the float Q-network's parameters, in a fixed order."""
    crc = 0
    for name, value in sorted(network.state_dict().items()):
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(value).tobytes(), crc)
    return crc


def modelled_totals(report) -> dict[str, int]:
    """Every modelled cycle total of a completed mission."""
    return {
        "inference": report.total_inference_cycles,
        "critical_path": report.total_critical_path_cycles,
        "training": report.total_training_cycles,
        "training_critical_path": report.total_training_critical_path_cycles,
        "merge": report.total_merge_cycles,
        "fill_drain": report.total_fill_drain_cycles,
        "recovery": report.total_fault_recovery_cycles,
    }


def fingerprint(mission: Mission, report, error, events) -> str:
    """Digest of a mission's deterministic outputs."""
    vec_env = mission.vec_env
    payload = {
        "weights": weight_checksum(mission.agent.network),
        "crash_counts": [int(v) for v in vec_env.crash_counts],
        "events": events,
        "error": error,
    }
    if report is not None:
        payload["sfd_by_class"] = report.sfd_by_class
        payload["cycles"] = modelled_totals(report)
        payload["env_steps"] = report.total_env_steps
        payload["train_updates"] = report.total_train_updates
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def sharded_matches_single(mission: Mission) -> bool:
    """Sharded Q values on the held batch equal one SystolicBackend's.

    Calls the class's method so that benchmark wrappers on the instance
    neither time nor count this check.
    """
    backend = mission.agent.backend
    sharded, _ = type(backend).forward_batch(backend, mission.held_states)
    single, _ = SystolicBackend(mission.agent.network).forward_batch(
        mission.held_states
    )
    return sharded.dtype == single.dtype and sharded.tobytes() == single.tobytes()


def run_mission(mission: Mission) -> Outcome:
    """Run one mission to completion (or failure) and check its outputs."""
    spec = mission.spec
    plan = spec.fault_plan(mission.seed)
    report = error = None
    events: list[dict] = []
    injector = None
    start = time.perf_counter_ns()
    try:
        if plan is None:
            report = mission.scheduler.run(spec.rounds, spec.steps)
        else:
            with chaos(plan) as injector:
                report = mission.scheduler.run(spec.rounds, spec.steps)
    except Exception as exc:  # a failed mission is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter_ns() - start
    if injector is not None:
        events = injector.event_log()
    outcome = Outcome(
        seed=mission.seed,
        wall_ns=wall,
        report=report,
        error=error,
        events=events,
        fingerprint=fingerprint(mission, report, error, events),
    )
    if report is not None:
        if report.total_env_steps != spec.fleet_steps * spec.num_envs:
            outcome.problems.append(
                f"{report.total_env_steps} env steps, expected "
                f"{spec.fleet_steps * spec.num_envs}"
            )
        if not np.all(np.isfinite(list(report.sfd_by_class.values()))):
            outcome.problems.append("non-finite SFD")
        if spec.check_sharded and not sharded_matches_single(mission):
            outcome.problems.append(
                "sharded Q values differ from a single SystolicBackend"
            )
    return outcome
