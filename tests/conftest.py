"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import paper_platform
from repro.nn import build_network, modified_alexnet_spec, scaled_drone_net_spec


@pytest.fixture(scope="session")
def alexnet_spec():
    """Paper-scale modified AlexNet spec (shape arithmetic only)."""
    return modified_alexnet_spec()


@pytest.fixture(scope="session")
def scaled_spec():
    """Reduced drone-net spec used for functional training."""
    return scaled_drone_net_spec(input_side=16)


@pytest.fixture()
def scaled_network(scaled_spec):
    """A freshly initialised functional network (seeded)."""
    return build_network(scaled_spec, seed=0)


@pytest.fixture()
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture()
def platform():
    """The paper's hardware platform."""
    return paper_platform()


@pytest.fixture(scope="session")
def fleet_report():
    """Factory of one-round, one-second fleet reports (16 envs, L4)
    whose round carries hand-made cost ledgers, so a projection's
    rates are exact: ``fleet_report(inference=StepCost(...))`` runs
    2000 env steps and 15 updates per second by default."""
    from repro.backend import StepCost
    from repro.fleet import FleetReport, RoundStats

    def build(
        inference: StepCost = StepCost(),
        training: StepCost = StepCost(),
        *,
        steps: int = 2000,
        updates: int = 15,
        dead_shards: int = 0,
        degraded_states: int = 0,
    ) -> FleetReport:
        stats = RoundStats(
            round_index=0, env_steps=steps, episodes=0,
            train_updates=updates, rollout_seconds=1.0, train_seconds=0.0,
            eval_seconds=0.0, mean_loss=0.0, eval_sfd_by_class={},
            inference=inference, training=training,
            degraded_states=degraded_states,
            active_shards=max(inference.shards, training.shards) - dead_shards,
        )
        return FleetReport(num_envs=16, config_name="L4", rounds=[stats])

    return build
