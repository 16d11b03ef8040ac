"""Frozen-policy evaluation.

Fig. 11's safe-flight-distance comparison is cleanest when measured with
a *frozen* greedy policy (no exploration noise, no ongoing updates).
:func:`evaluate_policy` runs such an evaluation and reports SFD, reward
statistics and the action distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.env.episode import NavigationEnv
from repro.env.trace import FlightTrace
from repro.nn.network import Network

__all__ = ["EvaluationResult", "evaluate_policy"]


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of a frozen-policy evaluation run."""

    environment: str
    steps: int
    safe_flight_distance: float
    crash_count: int
    mean_reward: float
    action_histogram: tuple[int, ...]
    trace: FlightTrace

    @property
    def crash_rate(self) -> float:
        """Crashes per step."""
        return self.crash_count / self.steps if self.steps else 0.0


def evaluate_policy(
    network: Network,
    env: NavigationEnv,
    steps: int = 1000,
    epsilon: float = 0.0,
    seed: int = 0,
) -> EvaluationResult:
    """Run ``network`` greedily in ``env`` for ``steps`` actions.

    ``epsilon`` adds optional residual exploration (0 = fully greedy).
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    rng = np.random.default_rng(seed)
    trace = FlightTrace()
    rewards = []
    state = env.reset()
    for _ in range(steps):
        if epsilon and rng.random() < epsilon:
            action = int(rng.integers(env.num_actions))
        else:
            action = int(np.argmax(network.predict(state[None, ...])[0]))
        next_state, reward, done, info = env.step(action)
        trace.record(info["pose"], action, reward, info["crashed"])
        rewards.append(reward)
        state = env.reset() if done else next_state
    # Close the final (crash-free) flight segment so its distance counts.
    env.tracker.flush()
    histogram = tuple(int(c) for c in trace.action_histogram(env.num_actions))
    return EvaluationResult(
        environment=env.world.name,
        steps=steps,
        safe_flight_distance=env.tracker.safe_flight_distance,
        crash_count=env.tracker.crash_count,
        mean_reward=float(np.mean(rewards)),
        action_histogram=histogram,
        trace=trace,
    )

