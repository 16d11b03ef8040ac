"""Fleet scheduler: pipelined rollout/train rounds with throughput
accounting.

:class:`FleetScheduler` drives a :class:`~repro.fleet.vec_env.VecNavigationEnv`
and a shared :class:`~repro.rl.agent.QLearningAgent` through repeated
rounds.  Each round's rollout phase is an **interleaved pipeline**
rather than a strict rollout-then-train sequence: the rollout splits
into chunks of ``pipeline_chunk`` fleet steps, and the training updates
due after chunk *i* are eligible to overlap chunk *i+1*'s inference —
the deployed datapath serves a double-buffered weight snapshot (the
agent's :class:`~repro.backend.WeightBus`), so acting never has to wait
for the float optimizer.  Execution in-process stays serial and
deterministic (one RNG stream, fixed interleave order); the *measured*
chunk timings quantify the overlap a two-stage pipelined platform
would hide (``pipeline_overlap_fraction``).  A round ends with extra
replay-only updates and a greedy evaluation window, as before.

Each round records wall-clock throughput (env steps/sec, episodes/sec,
training iterations/sec) and — when the agent's execution backend
models hardware — the per-round accelerator cost its forward passes
were charged: the agent's inference ledger, a
:class:`~repro.backend.StepCost` sum drained into
``RoundStats.inference`` (its multi-array fields — shard count,
critical-path, NoC and fill/drain cycles — filled when the backend
shards), plus the mean weight-snapshot staleness served.  Agents built
with ``train_on_array=True`` additionally charge every training update
the whole-network training-step cost (:mod:`repro.systolic.training`);
the scheduler drains that second ledger per round too
(``RoundStats.training``), so the projection can report the combined
rollout+training utilization of the array(s).  ``FleetReport`` sums
the round ledgers with ``+``.
:meth:`FleetScheduler.project_load` projects a report onto the paper
platform: a :class:`FleetLoadProjection` is a view over the report —
its measured rates and both ledgers — plus the paper-scale Fig. 13
iteration cost, memory traffic and NVM endurance at the fleet's
training batch, so a simulated fleet's demand maps onto the platform's
FPS / latency / energy / endurance model, including what K arrays
sustain.  It reads every cycle figure from the ledgers when asked, so
a new ``StepCost`` field needs no new projection parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend import StepCost
from repro.faults.injector import FAULTS
from repro.fleet.runner import scaled_train_batch
from repro.fleet.vec_env import VecNavigationEnv
from repro.nn.alexnet import modified_alexnet_spec
from repro.obs.probes import PROBE
from repro.parallel.memo import publish_memo_metrics
from repro.perf.training import IterationCost, TrainingIterationModel
from repro.perf.traffic import (
    EnduranceEstimate,
    IterationTraffic,
    TrafficSimulator,
)
from repro.rl.agent import QLearningAgent
from repro.rl.transfer import config_by_name
from repro.systolic.array import PAPER_ARRAY, ArrayConfig

__all__ = [
    "per",
    "RoundStats",
    "FleetReport",
    "FleetLoadProjection",
    "project_fleet_load",
    "FleetScheduler",
]


def per(total: float, count: float) -> float:
    """``total / count``, or 0.0 when nothing was counted."""
    return total / count if count else 0.0


@dataclass(frozen=True)
class RoundStats:
    """Throughput and task metrics of one scheduler round.

    ``inference`` is the cost the agent's execution backend charged for
    the round's rollout and evaluation forward passes, ``training`` the
    cost of its on-array training updates (both zero under the float
    ``numpy`` backend, which has no hardware model, and ``training``
    unless the agent trains on the array).
    """

    round_index: int
    env_steps: int
    episodes: int
    train_updates: int
    rollout_seconds: float
    train_seconds: float
    eval_seconds: float
    mean_loss: float
    eval_sfd_by_class: dict[str, float]
    inference: StepCost = field(default_factory=StepCost)
    training: StepCost = field(default_factory=StepCost)
    #: Mean weight-snapshot staleness (in updates) of served states.
    sync_staleness: float = 0.0
    #: Fraction of rollout+train wall time a two-stage pipeline hides.
    pipeline_overlap_fraction: float = 0.0
    # --- fault-injection ledger (all zero unless a chaos run) ---------
    #: Faults injected / detected / recovered during this round.
    faults_injected: int = 0
    faults_detected: int = 0
    faults_recovered: int = 0
    #: Modelled array cycles spent on recovery (retries, health-check
    #: timeouts, rollbacks, guard recomputes) this round.
    fault_recovery_cycles: int = 0
    #: States served by the degraded numpy fallback this round.
    degraded_states: int = 0
    #: Arrays still alive at the end of the round (== ``shards`` unless
    #: a chaos run killed some).
    active_shards: int = 0

    @property
    def shards(self) -> int:
        """Arrays the backend executed on (1 unless sharded)."""
        return max(self.inference.shards, self.training.shards)

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock time of the round."""
        return self.rollout_seconds + self.train_seconds + self.eval_seconds

    @property
    def steps_per_second(self) -> float:
        """Env steps per second over the whole round."""
        return per(self.env_steps, self.wall_seconds)

    @property
    def episodes_per_second(self) -> float:
        """Completed episodes per second over the whole round."""
        return per(self.episodes, self.wall_seconds)

    @property
    def train_iterations_per_second(self) -> float:
        """Training updates per second over the whole round."""
        return per(self.train_updates, self.wall_seconds)


@dataclass
class FleetReport:
    """Aggregated outcome of a scheduler run.

    ``inference`` and ``training`` sum the rounds' cost ledgers; a rate
    is one of their fields over ``total_env_steps`` or
    ``total_train_updates`` (:func:`per`).
    """

    num_envs: int
    config_name: str
    backend: str = "numpy"
    rounds: list[RoundStats] = field(default_factory=list)
    sfd_by_class: dict[str, float] = field(default_factory=dict)
    crash_counts: list[int] = field(default_factory=list)
    #: Full fault/recovery event log of a chaos run (empty otherwise);
    #: each entry is a :meth:`~repro.faults.injector.FaultRecord.as_dict`.
    fault_events: list[dict] = field(default_factory=list)

    @property
    def inference(self) -> StepCost:
        """Backend-charged inference cost across all rounds."""
        return sum((r.inference for r in self.rounds), StepCost())

    @property
    def training(self) -> StepCost:
        """On-array training cost across all rounds."""
        return sum((r.training for r in self.rounds), StepCost())

    @property
    def total_env_steps(self) -> int:
        """Env steps across all rounds."""
        return sum(r.env_steps for r in self.rounds)

    @property
    def total_episodes(self) -> int:
        """Episodes completed across all rounds."""
        return sum(r.episodes for r in self.rounds)

    @property
    def total_train_updates(self) -> int:
        """Training updates across all rounds."""
        return sum(r.train_updates for r in self.rounds)

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock time across all rounds."""
        return sum(r.wall_seconds for r in self.rounds)

    @property
    def steps_per_second(self) -> float:
        """Aggregate env-step throughput."""
        return per(self.total_env_steps, self.wall_seconds)

    @property
    def episodes_per_second(self) -> float:
        """Aggregate episode throughput."""
        return per(self.total_episodes, self.wall_seconds)

    @property
    def train_iterations_per_second(self) -> float:
        """Aggregate training-update throughput."""
        return per(self.total_train_updates, self.wall_seconds)

    # --- one-line views of the ledgers -------------------------------
    @property
    def total_inference_cycles(self) -> int:
        return self.inference.total_cycles

    @property
    def total_critical_path_cycles(self) -> int:
        return self.inference.critical_path_cycles

    @property
    def total_training_cycles(self) -> int:
        return self.training.total_cycles

    @property
    def total_training_critical_path_cycles(self) -> int:
        return self.training.critical_path_cycles

    @property
    def total_merge_cycles(self) -> int:
        return (self.inference + self.training).merge_cycles

    @property
    def total_fill_drain_cycles(self) -> int:
        return (self.inference + self.training).fill_drain_cycles

    @property
    def shards(self) -> int:
        """Arrays the backend executed on (max over rounds)."""
        return max((r.shards for r in self.rounds), default=1)

    @property
    def critical_shard_index(self) -> int:
        """The array most often on the critical path (0 if unsharded).

        The per-round indices vote; ties break toward the lowest index,
        matching the per-cost ``argmax`` convention.
        """
        votes: dict[int, int] = {}
        for r in self.rounds:
            if r.shards > 1:
                index = r.inference.critical_shard_index
                votes[index] = votes.get(index, 0) + 1
        if not votes:
            return 0
        return max(sorted(votes), key=votes.__getitem__)

    @property
    def mean_sync_staleness(self) -> float:
        """Env-step-weighted mean staleness of the served weight snapshot."""
        weighted = sum(r.sync_staleness * r.env_steps for r in self.rounds)
        return per(weighted, self.total_env_steps)

    @property
    def pipeline_overlap_fraction(self) -> float:
        """Wall-time-weighted mean pipeline overlap across rounds."""
        wall = sum(r.rollout_seconds + r.train_seconds for r in self.rounds)
        if wall <= 0.0:
            return 0.0
        weighted = sum(
            r.pipeline_overlap_fraction * (r.rollout_seconds + r.train_seconds)
            for r in self.rounds
        )
        return weighted / wall

    # --- fault-tolerance outcomes (all trivial unless a chaos run) ----
    @property
    def total_faults_injected(self) -> int:
        """Faults injected across all rounds."""
        return sum(r.faults_injected for r in self.rounds)

    @property
    def total_faults_detected(self) -> int:
        """Faults detected across all rounds."""
        return sum(r.faults_detected for r in self.rounds)

    @property
    def total_faults_recovered(self) -> int:
        """Faults recovered across all rounds."""
        return sum(r.faults_recovered for r in self.rounds)

    @property
    def total_fault_recovery_cycles(self) -> int:
        """Modelled array cycles spent on recovery across all rounds."""
        return sum(r.fault_recovery_cycles for r in self.rounds)

    @property
    def total_degraded_states(self) -> int:
        """States served by the degraded numpy fallback."""
        return sum(r.degraded_states for r in self.rounds)

    @property
    def availability(self) -> float:
        """Mean fraction of configured arrays alive, round-weighted.

        1.0 for a fault-free run; a chaos run that kills 1 of 4 arrays
        halfway through K rounds reports ``1 - (K/2)/(4K)``.
        """
        total = sum(r.shards for r in self.rounds)
        if total == 0:
            return 1.0
        return sum(r.active_shards for r in self.rounds) / total

    @property
    def mttr_rounds(self) -> float:
        """Mean time to recovery, in scheduler rounds.

        Averaged over recovered faults; a fault detected and recovered
        within the same round counts 1 round.  0.0 when nothing was
        recovered (including fault-free runs).
        """
        times = [
            e["recovered_round"] - e["round"] + 1
            for e in self.fault_events
            if e.get("recovered") and e.get("recovered_round") is not None
        ]
        return float(np.mean(times)) if times else 0.0

    @property
    def degraded_fraction(self) -> float:
        """Fraction of served states that fell back to degraded numpy."""
        return per(self.total_degraded_states, self.inference.states)


def _sustained(count: int, seconds: float) -> float:
    """``count / seconds``: the rate the modelled array sustains, or
    ``inf`` when the ledger charged no time (nothing to bound)."""
    return count / seconds if seconds > 0.0 else float("inf")


@dataclass(frozen=True)
class FleetLoadProjection:
    """A measured fleet run projected onto the paper platform.

    A view over the run's :class:`FleetReport` plus the paper-scale
    platform cost at the fleet's training batch ``batch_size``:

    * ``iteration`` — the Fig. 13 cost of one training iteration on the
      calibrated modified-AlexNet model (``iteration.fps`` is the
      iteration rate the platform sustains),
    * ``traffic`` / ``endurance`` — the per-device memory traffic of
      that iteration and the NVM lifetime under the measured update
      rate.

    Everything else is read from the report when asked: the measured
    rates, and the inference and training ledgers
    (``report.inference`` / ``report.training``), whose cycles
    ``array`` converts to seconds.  From them come the step rate one
    array sustains at the measured budget, what the K sharded arrays
    sustain on the measured critical path (derated by the run's
    availability), and whether the platform sustains *concurrent*
    rollout + on-array training — on one array or on the K arrays.  A
    rate is ``inf`` when its ledger charged nothing (the float path,
    or training off-device).
    """

    report: FleetReport
    batch_size: int
    array: ArrayConfig
    iteration: IterationCost
    traffic: IterationTraffic
    endurance: EnduranceEstimate

    # --- the paper-scale platform at the fleet's training batch -------
    @property
    def utilization(self) -> float:
        """Demanded iteration rate / sustainable iteration rate (> 1:
        the fleet generates frames faster than the platform trains)."""
        return self.report.train_iterations_per_second / self.iteration.fps

    @property
    def realtime_feasible(self) -> bool:
        """Whether the platform keeps up with the fleet's demand."""
        return self.utilization <= 1.0

    @property
    def energy_watts(self) -> float:
        """Average power (J/s) of serving the demanded iteration rate."""
        return (
            self.iteration.iteration_energy_j
            * self.report.train_iterations_per_second
        )

    @property
    def bits_per_second(self) -> float:
        """Total memory traffic demanded, bits/sec."""
        return self.traffic.total_bits * self.report.train_iterations_per_second

    @property
    def nvm_write_bits_per_second(self) -> float:
        """NVM write traffic demanded, bits/sec (the endurance driver)."""
        return (
            self.traffic.nvm_write_bits * self.report.train_iterations_per_second
        )

    # --- the ledgers per env step and per update ----------------------
    @property
    def inference_cycles_per_step(self) -> float:
        """Inference work cycles per env step."""
        return per(self.report.inference.total_cycles, self.report.total_env_steps)

    @property
    def critical_path_cycles_per_step(self) -> float:
        """Inference critical-path (wall-clock) cycles per env step."""
        return per(
            self.report.inference.critical_path_cycles,
            self.report.total_env_steps,
        )

    @property
    def interconnect_cycles_per_step(self) -> float:
        """Inference NoC cycles per env step (gathers, broadcasts,
        pipeline hand-offs; 0 on one array)."""
        return per(self.report.inference.merge_cycles, self.report.total_env_steps)

    @property
    def fill_drain_cycles_per_step(self) -> float:
        """Inference pipeline fill/drain bubble cycles per env step."""
        return per(
            self.report.inference.fill_drain_cycles, self.report.total_env_steps
        )

    @property
    def training_cycles_per_update(self) -> float:
        """On-array training work cycles per update (0 off-device)."""
        return per(
            self.report.training.total_cycles, self.report.total_train_updates
        )

    @property
    def training_critical_path_cycles_per_update(self) -> float:
        """Training critical-path cycles per update."""
        return per(
            self.report.training.critical_path_cycles,
            self.report.total_train_updates,
        )

    @property
    def training_merge_cycles_per_update(self) -> float:
        """Training NoC cycles per update (gradient reductions, dX
        returns)."""
        return per(
            self.report.training.merge_cycles, self.report.total_train_updates
        )

    @property
    def interconnect_fraction(self) -> float:
        """NoC share of the inference critical path."""
        inference = self.report.inference
        return per(inference.merge_cycles, inference.critical_path_cycles)

    # --- what the array(s) sustain -----------------------------------
    @property
    def inference_sustainable_steps_per_second(self) -> float:
        """Env steps/sec one array sustains at the measured budget."""
        return _sustained(
            self.report.total_env_steps,
            self.report.inference.array_seconds(self.array),
        )

    @property
    def inference_utilization(self) -> float:
        """Demanded step rate / sustainable inference step rate."""
        return (
            self.report.steps_per_second
            / self.inference_sustainable_steps_per_second
        )

    @property
    def inference_realtime_feasible(self) -> bool:
        """Whether the array keeps up with the fleet's inference demand."""
        return self.inference_utilization <= 1.0

    @property
    def sharded_sustainable_steps_per_second(self) -> float:
        """Env steps/sec the K-array platform sustains on the measured
        critical path — the wall-clock cycles of the parallel schedule,
        so it reflects what sharding actually buys."""
        return _sustained(
            self.report.total_env_steps,
            self.report.inference.critical_path_seconds(self.array),
        )

    @property
    def sharded_utilization(self) -> float:
        """Demanded step rate / K-array sustainable step rate."""
        return (
            self.report.steps_per_second
            / self.sharded_sustainable_steps_per_second
        )

    @property
    def available_sustainable_steps_per_second(self) -> float:
        """K-array sustainable step rate, derated by availability.

        What the platform sustains *on average* across a run in which
        only ``report.availability`` of its arrays were alive — the
        headline capacity number a fault-tolerance SLO compares
        against.  ``inf`` stays ``inf`` (no measured bound is still no
        bound, dead shards or not).
        """
        rate = self.sharded_sustainable_steps_per_second
        if rate == float("inf"):
            return rate
        return rate * self.report.availability

    @property
    def training_sustainable_updates_per_second(self) -> float:
        """Training updates/sec one array sustains at the measured cost."""
        return _sustained(
            self.report.total_train_updates,
            self.report.training.array_seconds(self.array),
        )

    @property
    def training_array_utilization(self) -> float:
        """Demanded update rate / sustainable training update rate."""
        return (
            self.report.train_iterations_per_second
            / self.training_sustainable_updates_per_second
        )

    @property
    def combined_array_utilization(self) -> float:
        """Single-array utilization of rollout inference *plus* training.

        The datapath is time-shared: serving the fleet's forward passes
        and executing its training updates both burn the same array's
        cycles, so concurrent rollout + training is feasible while the
        sum of the two utilizations stays under 1.
        """
        return self.inference_utilization + self.training_array_utilization

    @property
    def combined_realtime_feasible(self) -> bool:
        """Whether one array sustains rollout and training concurrently."""
        return self.combined_array_utilization <= 1.0

    @property
    def sharded_combined_utilization(self) -> float:
        """K-array utilization of concurrent rollout + training, on the
        measured critical paths of both schedules."""
        return self.sharded_utilization + (
            self.report.train_iterations_per_second
            / _sustained(
                self.report.total_train_updates,
                self.report.training.critical_path_seconds(self.array),
            )
        )

    @property
    def sharding_speedup(self) -> float:
        """Inference work cycles over critical-path cycles (<= K; 1.0
        unsharded or unmeasured)."""
        return self.report.inference.parallel_speedup

    @property
    def scaling_efficiency(self) -> float:
        """Sharding speedup per array (1.0 = perfect scaling)."""
        return self.report.inference.scaling_efficiency


def project_fleet_load(
    report: FleetReport, batch_size: int, array: ArrayConfig = PAPER_ARRAY
) -> FleetLoadProjection:
    """Project a fleet run onto the paper platform's cost model.

    ``batch_size`` is the fleet's training batch (typically the agent
    batch times the fleet width): the paper-scale model — modified
    AlexNet under the run's transfer config — prices one iteration at
    it (Fig. 13) and walks its memory traffic, and the NVM lifetime
    follows at the run's measured update rate.  ``array`` converts the
    ledgers' cycles to seconds.  Raises ``ValueError`` when the report
    measured no training update: there is no load to project, and a
    clamped rate would print a nonsense utilization and lifetime
    instead of surfacing the problem.
    """
    if report.total_train_updates == 0:
        raise ValueError(
            "report measured zero training iterations; run more steps per "
            f"round (the fleet needs train_batch = {batch_size} transitions "
            "before it can train)"
        )
    simulator = TrafficSimulator(
        modified_alexnet_spec(), config_by_name(report.config_name)
    )
    traffic = simulator.simulate_iteration(batch_size)
    return FleetLoadProjection(
        report=report,
        batch_size=batch_size,
        array=array,
        iteration=TrainingIterationModel(simulator.cost_model).iteration_cost(
            batch_size
        ),
        traffic=traffic,
        endurance=simulator.endurance(
            traffic, report.train_iterations_per_second
        ),
    )


class FleetScheduler:
    """Drives rollout → train → evaluate rounds over a fleet.

    Parameters
    ----------
    agent:
        The shared Q-learning agent (its ``config`` names the transfer
        topology, which also selects the accelerator cost model for
        load projection).
    vec_env:
        The environment fleet.
    train_every:
        Online-training cadence during rollout, in fleet steps.
    extra_train_updates:
        Replay-only updates in each round's train phase.
    eval_steps:
        Greedy fleet steps in each round's evaluate phase (0 disables).
    batch_scale:
        Training-batch multiplier (default: fleet width), so one update
        carries ``agent.batch_size * batch_scale`` samples.
    pipeline_chunk:
        Rollout chunk size (fleet steps) of the interleaved pipeline;
        the training updates due in a chunk run between chunks, on
        experience up to that boundary, and may overlap the next
        chunk's inference on a pipelined platform.  Defaults to
        ``train_every`` — one update between consecutive chunks, the
        finest-grained pipeline the training cadence allows.
    """

    def __init__(
        self,
        agent: QLearningAgent,
        vec_env: VecNavigationEnv,
        train_every: int = 2,
        extra_train_updates: int = 0,
        eval_steps: int = 0,
        batch_scale: int | None = None,
        pipeline_chunk: int | None = None,
    ):
        if train_every <= 0:
            raise ValueError("train_every must be positive")
        if extra_train_updates < 0 or eval_steps < 0:
            raise ValueError("phase sizes cannot be negative")
        if pipeline_chunk is not None and pipeline_chunk <= 0:
            raise ValueError("pipeline_chunk must be positive")
        self.agent = agent
        self.vec_env = vec_env
        self.train_every = train_every
        self.extra_train_updates = extra_train_updates
        self.eval_steps = eval_steps
        self.pipeline_chunk = pipeline_chunk or train_every
        self.train_batch = scaled_train_batch(agent, vec_env.num_envs, batch_scale)
        self._states: np.ndarray | None = None

    @property
    def observations(self) -> np.ndarray:
        """Current fleet observation batch (resets the fleet if needed).

        The (N, C, H, W) states the next rollout step would act on —
        the natural batch to cost on a backend post hoc.
        """
        if self._states is None:
            self._states = self.vec_env.reset()
        return np.asarray(self._states, dtype=np.float64)

    # ------------------------------------------------------------------
    def _rollout(
        self, steps: int
    ) -> tuple[int, int, int, list[float], float, float, float]:
        """Collect ``steps`` fleet steps as an interleaved pipeline.

        The rollout splits into chunks of ``pipeline_chunk`` steps.
        Within a chunk the fleet only acts and observes (inference on
        the bus's weight snapshot); the training updates due in the
        chunk (one per ``train_every`` steps, once replay holds a
        batch) run at the chunk boundary.  Because inference reads the
        double-buffered snapshot and training writes the float staging
        weights, chunk *i*'s training is independent of chunk *i+1*'s
        inference until the bus flips — a pipelined platform runs them
        concurrently.  Execution here stays serial (determinism: one
        RNG stream, fixed order), but both stage durations are
        measured, and the overlap a two-stage pipeline would hide —
        ``sum(min(train_i, rollout_{i+1}))`` — is returned in seconds.

        Returns ``(env_steps, episodes, updates, losses,
        rollout_seconds, train_seconds, hidden_seconds)``.
        """
        if self._states is None:
            self._states = self.vec_env.reset()
        states = self._states
        episodes = 0
        updates = 0
        losses: list[float] = []
        chunk_rollout_walls: list[float] = []
        chunk_train_walls: list[float] = []
        done_steps = 0
        while done_steps < steps:
            this_chunk = min(self.pipeline_chunk, steps - done_steps)
            start = time.perf_counter()
            with PROBE.span("phase:rollout", steps=this_chunk) as sp:
                before = (
                    self.agent.pending_inference_cycles() if PROBE.enabled else 0
                )
                for _ in range(this_chunk):
                    actions = self.agent.act_batch(states)
                    next_states, rewards, dones, infos = self.vec_env.step(actions)
                    self.agent.observe_batch(
                        self.vec_env.make_transitions(
                            states, actions, rewards, dones, next_states, infos
                        )
                    )
                    episodes += sum(
                        1
                        for i, info in enumerate(infos)
                        if dones[i] or info["truncated"]
                    )
                    states = next_states
                if PROBE.enabled:
                    sp.add_cycles(
                        self.agent.pending_inference_cycles() - before
                    )
            acted = time.perf_counter()
            # Updates due in this chunk: the train_every cadence points
            # it covered, run back to back at the boundary.
            due = sum(
                1
                for s in range(done_steps, done_steps + this_chunk)
                if s % self.train_every == 0
            )
            with PROBE.span("phase:train", due=due) as sp:
                before = (
                    self.agent.pending_training_cycles() if PROBE.enabled else 0
                )
                for _ in range(due):
                    if len(self.agent.replay) < self.train_batch:
                        break
                    losses.append(self.agent.train_step_batch(self.train_batch))
                    updates += 1
                if PROBE.enabled:
                    sp.add_cycles(
                        self.agent.pending_training_cycles() - before
                    )
            trained = time.perf_counter()
            chunk_rollout_walls.append(acted - start)
            chunk_train_walls.append(trained - acted)
            done_steps += this_chunk
        self._states = states
        rollout_wall = sum(chunk_rollout_walls)
        train_wall = sum(chunk_train_walls)
        hidden = sum(
            min(chunk_train_walls[i], chunk_rollout_walls[i + 1])
            for i in range(len(chunk_rollout_walls) - 1)
        )
        return (
            steps * self.vec_env.num_envs,
            episodes,
            updates,
            losses,
            rollout_wall,
            train_wall,
            hidden,
        )

    def _train(self) -> tuple[int, list[float], float]:
        """Replay-only updates (no env stepping)."""
        losses: list[float] = []
        start = time.perf_counter()
        updates = 0
        with PROBE.span("phase:train", due=self.extra_train_updates) as sp:
            before = (
                self.agent.pending_training_cycles() if PROBE.enabled else 0
            )
            for _ in range(self.extra_train_updates):
                if len(self.agent.replay) < self.train_batch:
                    break
                losses.append(self.agent.train_step_batch(self.train_batch))
                updates += 1
            if PROBE.enabled:
                sp.add_cycles(self.agent.pending_training_cycles() - before)
        return updates, losses, time.perf_counter() - start

    def _evaluate(self) -> tuple[int, int, dict[str, float], float]:
        """Greedy rollout measuring per-class SFD over the eval window."""
        if self.eval_steps == 0:
            return 0, 0, {}, 0.0
        if self._states is None:
            self._states = self.vec_env.reset()
        states = self._states
        before_distance = [
            env.tracker.total_distance for env in self.vec_env.envs
        ]
        before_crashes = [env.tracker.crash_count for env in self.vec_env.envs]
        episodes = 0
        start = time.perf_counter()
        with PROBE.span("phase:eval", steps=self.eval_steps) as sp:
            before = (
                self.agent.pending_inference_cycles() if PROBE.enabled else 0
            )
            for _ in range(self.eval_steps):
                actions = self.agent.act_batch(states, greedy=True)
                states, _rewards, dones, infos = self.vec_env.step(actions)
                episodes += sum(
                    1 for i, info in enumerate(infos) if dones[i] or info["truncated"]
                )
            if PROBE.enabled:
                sp.add_cycles(self.agent.pending_inference_cycles() - before)
        self._states = states
        wall = time.perf_counter() - start
        by_class: dict[str, list[float]] = {}
        for i, env in enumerate(self.vec_env.envs):
            flown = env.tracker.total_distance - before_distance[i]
            crashes = env.tracker.crash_count - before_crashes[i]
            by_class.setdefault(env.world.name, []).append(
                flown / max(crashes, 1)
            )
        sfd = {name: float(np.mean(v)) for name, v in sorted(by_class.items())}
        return self.eval_steps * self.vec_env.num_envs, episodes, sfd, wall

    # ------------------------------------------------------------------
    def run(self, rounds: int, steps_per_round: int) -> FleetReport:
        """Execute ``rounds`` pipelined rollout/train/evaluate rounds."""
        if rounds <= 0 or steps_per_round <= 0:
            raise ValueError("rounds and steps_per_round must be positive")
        report = FleetReport(
            num_envs=self.vec_env.num_envs,
            config_name=self.agent.config.name,
            backend=self.agent.backend.name,
        )
        # Discard cost/staleness records from before this run so round 0
        # only carries its own budget.
        self.agent.drain_inference_cost()
        self.agent.drain_training_cost()
        self.agent.weight_bus.drain_serve_staleness()
        try:
            for index in range(rounds):
                if FAULTS.enabled:
                    FAULTS.injector.note_round(index)
                with PROBE.span("fleet.round", round=index) as round_span:
                    (
                        steps, episodes, updates, losses,
                        roll_wall, pipeline_train_wall, hidden_seconds,
                    ) = self._rollout(steps_per_round)
                    extra_updates, extra_losses, train_wall = self._train()
                    eval_steps, eval_episodes, eval_sfd, eval_wall = (
                        self._evaluate()
                    )
                    losses = losses + extra_losses
                    # Fraction of the round's rollout+train wall a
                    # two-stage pipeline hides; the denominator matches
                    # the rollout_seconds + train_seconds recorded below,
                    # so the report-level weighted mean is exactly
                    # total-hidden / total-serial.
                    serial = roll_wall + pipeline_train_wall + train_wall
                    overlap = hidden_seconds / serial if serial > 0.0 else 0.0
                    with PROBE.span("phase:drain"):
                        cost = self.agent.drain_inference_cost()
                        train_cost = self.agent.drain_training_cost()
                        staleness = (
                            self.agent.weight_bus.drain_serve_staleness()
                        )
                        if FAULTS.enabled:
                            fault = FAULTS.injector.drain_round()
                            dead = len(FAULTS.injector.dead_shards)
                        else:
                            fault = None
                            dead = 0
                        if PROBE.enabled:
                            # Refresh the cost-oracle memo gauges so the
                            # run's metrics snapshot carries end-of-round
                            # hit rates.
                            publish_memo_metrics(PROBE)
                    round_span.add_cycles(
                        cost.total_cycles + train_cost.total_cycles
                    )
                    if cost.shards > 1:
                        round_span.annotate(
                            shards=cost.shards,
                            critical_shard=cost.critical_shard_index,
                        )
                stats = RoundStats(
                    round_index=index,
                    env_steps=steps + eval_steps,
                    episodes=episodes + eval_episodes,
                    train_updates=updates + extra_updates,
                    rollout_seconds=roll_wall,
                    train_seconds=pipeline_train_wall + train_wall,
                    eval_seconds=eval_wall,
                    mean_loss=float(np.mean(losses)) if losses else float("nan"),
                    eval_sfd_by_class=eval_sfd,
                    inference=cost,
                    training=train_cost,
                    sync_staleness=staleness,
                    pipeline_overlap_fraction=overlap,
                    faults_injected=fault["injected"] if fault else 0,
                    faults_detected=fault["detected"] if fault else 0,
                    faults_recovered=fault["recovered"] if fault else 0,
                    fault_recovery_cycles=(
                        fault["recovery_cycles"] if fault else 0
                    ),
                    degraded_states=fault["degraded_states"] if fault else 0,
                    active_shards=max(cost.shards, train_cost.shards) - dead,
                )
                report.rounds.append(stats)
                if PROBE.enabled:
                    PROBE.count(
                        "repro_fleet_env_steps_total",
                        stats.env_steps,
                        help="Fleet env steps (rollout + eval).",
                    )
                    PROBE.count(
                        "repro_fleet_episodes_total",
                        stats.episodes,
                        help="Episodes completed by the fleet.",
                    )
                    PROBE.count(
                        "repro_fleet_train_updates_total",
                        stats.train_updates,
                        help="Training updates applied by the fleet.",
                    )
                    PROBE.gauge(
                        "repro_fleet_sync_staleness_updates",
                        stats.sync_staleness,
                        help="Mean served weight-snapshot staleness, last round.",
                    )
                    PROBE.observe(
                        "repro_fleet_round_seconds",
                        stats.wall_seconds,
                        help="Host wall time of one scheduler round.",
                    )
            # Deployment barrier: a completed run leaves no undeployed
            # updates — the bus bounds staleness *during* serving, but
            # the final weights must ship when the run hands back.
            if self.agent.weight_bus.staleness > 0:
                self.agent.weight_bus.flip()
        finally:
            # A mid-round exception must not leak this round's partial
            # costs (inference *or* training, or staleness — or fault
            # ledgers) into the next run's first round.
            self.agent.drain_inference_cost()
            self.agent.drain_training_cost()
            self.agent.weight_bus.drain_serve_staleness()
            if FAULTS.enabled:
                FAULTS.injector.drain_round()
        # Close every env's final crash-free segment so it counts.
        for env in self.vec_env.envs:
            env.tracker.flush()
        report.sfd_by_class = self.vec_env.sfd_by_class()
        report.crash_counts = [int(v) for v in self.vec_env.crash_counts]
        if FAULTS.enabled:
            report.fault_events = FAULTS.injector.event_log()
        return report

    def project_load(self, report: FleetReport) -> FleetLoadProjection:
        """Project the measured fleet load onto the paper platform.

        :func:`project_fleet_load` at this fleet's training batch, with
        cycles converted at the backend's own array clock.
        """
        return project_fleet_load(
            report, self.train_batch, self.agent.backend.config
        )
