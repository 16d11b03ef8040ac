"""Reinforcement learning: Q-learning agent, transfer configurations,
meta-training and online adaptation experiments.

The paper's algorithm (Sections II and VI.B):

1. **Meta-training (TL phase).** Before deployment, the Q network is
   trained with RL in a complex meta-environment (indoor or outdoor),
   starting from ImageNet weights, for many iterations.
2. **Deployment.** The meta-model is downloaded to the drone — the
   convolutional prefix and early FC layers into STT-MRAM, the trainable
   FC tail into on-die SRAM.
3. **Online RL.** In the test environment the agent keeps learning, but
   backpropagation covers only the last i FC layers (L2/L3/L4) — or the
   whole network in the E2E baseline.

The metrics match Figs. 10 and 11: cumulative reward (moving average of
the last N rewards), return (moving average of per-flight reward sums),
and safe flight distance.
"""

from repro.rl.replay import ReplayBuffer
from repro.rl.transfer import TransferConfig, TRANSFER_CONFIGS, config_by_name
from repro.rl.agent import QLearningAgent, EpsilonSchedule
from repro.rl.metrics import MovingAverage, ReturnTracker, LearningCurves
from repro.rl.experiment import (
    TrainingResult,
    train_agent,
    train_agent_in_fleet,
    meta_train,
    online_adapt,
    run_transfer_experiment,
)
from repro.rl.evaluation import EvaluationResult, evaluate_policy
from repro.rl.sweep import SeedStatistics, SweepResult, run_seed_sweep

__all__ = [
    "ReplayBuffer",
    "TransferConfig",
    "TRANSFER_CONFIGS",
    "config_by_name",
    "QLearningAgent",
    "EpsilonSchedule",
    "MovingAverage",
    "ReturnTracker",
    "LearningCurves",
    "TrainingResult",
    "train_agent",
    "train_agent_in_fleet",
    "meta_train",
    "online_adapt",
    "run_transfer_experiment",
    "EvaluationResult",
    "evaluate_policy",
    "SeedStatistics",
    "SweepResult",
    "run_seed_sweep",
]
