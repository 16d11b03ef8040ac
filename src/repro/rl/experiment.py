"""The paper's end-to-end RL experiments (Figs. 10 and 11).

``run_transfer_experiment`` executes the full protocol for one test
environment:

1. meta-train an E2E agent in the category's meta-environment,
2. for each topology (L2/L3/L4/E2E), download the meta-weights and run
   online RL in the test environment with partial backpropagation,
3. report learning curves and safe flight distance.

Network and iteration counts are scaled down from the paper's 60 k
Unreal iterations (DESIGN.md substitution) but the protocol and all the
comparative structure are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.env.episode import NavigationEnv, Transition
from repro.env.camera import DepthCamera, StereoNoiseModel
from repro.env.generators import META_FOR_TEST, make_environment
from repro.nn.alexnet import build_network, scaled_drone_net_spec
from repro.nn.network import Network
from repro.rl.agent import EpsilonSchedule, QLearningAgent
from repro.rl.metrics import LearningCurves
from repro.rl.transfer import TRANSFER_CONFIGS, TransferConfig, config_by_name

__all__ = [
    "TrainingResult",
    "train_agent",
    "train_agent_in_fleet",
    "meta_train",
    "online_adapt",
    "run_transfer_experiment",
]


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    config_name: str
    environment: str
    curves: LearningCurves
    safe_flight_distance: float
    crash_count: int
    iterations: int
    final_state: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def final_reward(self) -> float:
        """Tail-mean of the cumulative-reward curve."""
        return self.curves.final_reward()


def _make_env(name: str, seed: int, image_side: int) -> NavigationEnv:
    world = make_environment(name, seed=seed)
    camera = DepthCamera(
        width=image_side, height=image_side, noise=StereoNoiseModel()
    )
    return NavigationEnv(world, camera=camera, seed=seed + 7)


def train_agent(
    agent: QLearningAgent,
    env: NavigationEnv,
    iterations: int,
    train_every: int = 2,
    max_episode_steps: int = 400,
    curves: LearningCurves | None = None,
) -> TrainingResult:
    """Run online RL for ``iterations`` environment steps."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    curves = curves or LearningCurves(reward_window=max(iterations // 8, 10))
    state = env.reset()
    episode_steps = 0
    for step in range(iterations):
        action = agent.select_action(state)
        next_state, reward, done, _info = env.step(action)
        agent.observe(Transition(state, action, reward, next_state, done))
        loss = None
        if agent.ready_to_train() and step % train_every == 0:
            loss = agent.train_step()
        curves.record_step(reward, done, loss)
        episode_steps += 1
        if done or episode_steps >= max_episode_steps:
            state = env.reset()
            episode_steps = 0
        else:
            state = next_state
    # Close the final (crash-free) flight segment so its distance counts.
    env.tracker.flush()
    return TrainingResult(
        config_name=agent.config.name,
        environment=env.world.name,
        curves=curves,
        safe_flight_distance=env.tracker.safe_flight_distance,
        crash_count=env.tracker.crash_count,
        iterations=iterations,
        final_state=agent.network.state_dict(),
    )


def train_agent_in_fleet(
    agent: QLearningAgent,
    env_name: str,
    iterations: int,
    num_envs: int,
    seed: int,
    image_side: int,
    max_episode_steps: int = 400,
) -> TrainingResult:
    """Fleet-backed counterpart of :func:`train_agent`.

    One shared agent collects experience from ``num_envs`` replicas of
    ``env_name`` (per-replica seeds), stepping and training in batches
    via :func:`repro.fleet.train_agent_fleet`.  The result aggregates
    the fleet: curves are env-means, SFD is the fleet mean, crashes sum.
    """
    from repro.fleet.runner import train_agent_fleet
    from repro.fleet.vec_env import VecNavigationEnv

    vec_env = VecNavigationEnv.from_names(
        [env_name],
        seeds=[seed + i for i in range(num_envs)],
        image_side=image_side,
        max_episode_steps=max_episode_steps,
    )
    fleet = train_agent_fleet(agent, vec_env, iterations=iterations)
    curves = LearningCurves(reward_window=max(iterations // 8, 10))
    curves.reward_curve = list(
        np.mean([c.reward_curve for c in fleet.curves], axis=0)
    )
    curves.return_curve = list(
        np.mean([c.return_curve for c in fleet.curves], axis=0)
    )
    curves.loss_curve = list(fleet.loss_curve)
    return TrainingResult(
        config_name=agent.config.name,
        environment=env_name,
        curves=curves,
        safe_flight_distance=fleet.mean_safe_flight_distance,
        crash_count=sum(fleet.crash_counts),
        iterations=iterations,
        final_state=fleet.final_state,
    )


def meta_train(
    meta_env_name: str,
    iterations: int = 1500,
    seed: int = 0,
    image_side: int = 16,
    network: Network | None = None,
    num_envs: int = 1,
) -> TrainingResult:
    """TL phase: end-to-end RL in the meta-environment.

    The paper trains 60 k Unreal iterations from ImageNet weights; we run
    a scaled count on the scaled network (seeded He-normal init).
    ``num_envs > 1`` collects the experience from a fleet of
    meta-environment replicas instead of a single env.
    """
    spec = scaled_drone_net_spec(input_side=image_side)
    network = network or build_network(spec, seed=seed)
    # The schedule counts per-state steps; a fleet consumes num_envs of
    # them per fleet step, so scale the decay to keep the same fraction
    # of the run exploratory.
    agent = QLearningAgent(
        network,
        config=config_by_name("E2E"),
        epsilon=EpsilonSchedule(1.0, 0.1, max(iterations * num_envs // 2, 1)),
        seed=seed,
    )
    if num_envs > 1:
        return train_agent_in_fleet(
            agent, meta_env_name, iterations, num_envs, seed, image_side
        )
    env = _make_env(meta_env_name, seed=seed, image_side=image_side)
    return train_agent(agent, env, iterations)


def online_adapt(
    meta_state: dict[str, np.ndarray],
    test_env_name: str,
    config: TransferConfig,
    iterations: int = 1500,
    seed: int = 1,
    image_side: int = 16,
    num_envs: int = 1,
) -> TrainingResult:
    """Deployment phase: online RL in the test environment.

    Downloads the meta-model, then trains only the layers selected by
    ``config`` (exploration restarts at a moderate rate, as the agent
    already has a useful policy).  ``num_envs > 1`` adapts against a
    fleet of test-environment replicas (batched stepping/training).
    """
    spec = scaled_drone_net_spec(input_side=image_side)
    network = build_network(spec, seed=seed)
    network.load_state_dict(meta_state)
    agent = QLearningAgent(
        network,
        config=config,
        epsilon=EpsilonSchedule(0.3, 0.05, max(iterations * num_envs // 2, 1)),
        seed=seed,
    )
    if num_envs > 1:
        return train_agent_in_fleet(
            agent, test_env_name, iterations, num_envs, seed, image_side
        )
    env = _make_env(test_env_name, seed=seed, image_side=image_side)
    return train_agent(agent, env, iterations)


def run_transfer_experiment(
    test_env_name: str,
    configs: tuple[TransferConfig, ...] = TRANSFER_CONFIGS,
    meta_iterations: int = 1500,
    adapt_iterations: int = 1500,
    seed: int = 0,
    image_side: int = 16,
    num_envs: int = 1,
) -> dict[str, TrainingResult]:
    """Full Fig. 10/11 protocol for one test environment.

    Returns one :class:`TrainingResult` per configuration name.
    ``num_envs > 1`` runs both phases against environment fleets.
    """
    meta_env_name = META_FOR_TEST[test_env_name]
    meta_result = meta_train(
        meta_env_name,
        iterations=meta_iterations,
        seed=seed,
        image_side=image_side,
        num_envs=num_envs,
    )
    results: dict[str, TrainingResult] = {}
    for config in configs:
        results[config.name] = online_adapt(
            meta_result.final_state,
            test_env_name,
            config,
            iterations=adapt_iterations,
            seed=seed + 13,
            image_side=image_side,
            num_envs=num_envs,
        )
    return results
