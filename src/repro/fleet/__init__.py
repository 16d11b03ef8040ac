"""Fleet engine: vectorized multi-environment simulation with batched
agent inference.

The paper's core argument is throughput under real-time constraints
(Fig. 13), yet a naive reproduction steps one environment with one agent
at a time.  This subsystem scales the simulation side the same way the
accelerator scales the compute side — by batching:

* :class:`VecNavigationEnv` steps N heterogeneous environments (mixed
  indoor/outdoor worlds, per-env seeds) in one call, with vectorised
  depth-camera rendering and auto-reset semantics.  A fleet rollout is
  bitwise-identical to N seeded sequential rollouts.
* :func:`train_agent_fleet` runs online RL with one shared agent: one
  forward pass selects all N actions
  (:meth:`~repro.rl.agent.QLearningAgent.act_batch`), one scaled update
  (:meth:`~repro.rl.agent.QLearningAgent.train_step_batch`) replaces N
  small ones, and one replay buffer pools the fleet's experience with
  per-env episode accounting.
* :class:`FleetScheduler` drives pipelined rollout/train rounds
  (rollout chunks interleave with the training due between them, on a
  double-buffered weight snapshot, so a pipelined platform overlaps
  the two — the measured hidden fraction is reported) plus a greedy
  evaluate phase and measures throughput (steps/sec, episodes/sec,
  SFD per environment class) and the accelerator cost its backend
  charged (``FleetReport.inference`` / ``.training`` ledgers).
* :func:`project_fleet_load` projects a report onto the paper
  platform's FPS / latency / energy / endurance model: the
  :class:`FleetLoadProjection` is a view over the report's ledgers
  plus the paper-scale iteration cost, so it also says what K sharded
  arrays sustain when the agent's backend shards.

``python -m repro fleet`` exposes the scheduler from the shell;
``benchmarks/test_fleet_throughput.py`` proves the fleet beats the
sequential baseline by the required margin.
"""

from repro.fleet.vec_env import FleetRenderer, VecNavigationEnv
from repro.fleet.runner import FleetTrainingResult, train_agent_fleet
from repro.fleet.scheduler import (
    FleetLoadProjection,
    FleetReport,
    FleetScheduler,
    RoundStats,
    project_fleet_load,
)
from repro.fleet.throughput import ThroughputComparison, compare_throughput

__all__ = [
    "FleetRenderer",
    "VecNavigationEnv",
    "FleetTrainingResult",
    "train_agent_fleet",
    "FleetLoadProjection",
    "FleetReport",
    "FleetScheduler",
    "project_fleet_load",
    "RoundStats",
    "ThroughputComparison",
    "compare_throughput",
]
