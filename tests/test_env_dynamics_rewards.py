"""Tests for the inertial drone model and the centre-window reward."""

import numpy as np
import pytest

from repro.env import (
    DepthCamera,
    InertialDrone,
    NavigationEnv,
    RewardConfig,
    compute_reward,
    make_environment,
)
from repro.env.drone import Action, Drone
from repro.env.world import Pose


class TestInertialDrone:
    def test_validation(self):
        with pytest.raises(ValueError):
            InertialDrone(Pose(0, 0, 0), turn_fraction=0.0)
        with pytest.raises(ValueError):
            InertialDrone(Pose(0, 0, 0), speed_recovery=1.5)
        with pytest.raises(ValueError):
            InertialDrone(Pose(0, 0, 0), d_frame=0.0)

    def test_full_turn_fraction_matches_kinematic_heading(self):
        inertial = InertialDrone(Pose(0, 0, 0), turn_fraction=1.0)
        kinematic = Drone(Pose(0, 0, 0))
        pi = inertial.apply_action(Action.LEFT_55)
        pk = kinematic.apply_action(Action.LEFT_55)
        assert pi.heading == pytest.approx(pk.heading)

    def test_partial_turn_lags_command(self):
        drone = InertialDrone(Pose(0, 0, 0), turn_fraction=0.5)
        pose = drone.apply_action(Action.LEFT_55)
        assert 0 < pose.heading < np.deg2rad(55)

    def test_pending_turn_carries_over(self):
        drone = InertialDrone(Pose(0, 0, 0), turn_fraction=0.5)
        drone.apply_action(Action.LEFT_55)
        pose = drone.apply_action(Action.FORWARD)  # no new command
        # The remaining half of the turn keeps slewing.
        assert pose.heading > np.deg2rad(55) * 0.5

    def test_turning_scrubs_speed(self):
        drone = InertialDrone(Pose(0, 0, 0), turn_fraction=1.0, speed_recovery=0.1)
        before = drone.pose
        drone.apply_action(Action.LEFT_55)
        after = drone.pose
        dist = np.hypot(after.x - before.x, after.y - before.y)
        assert dist < drone.d_frame

    def test_straight_flight_recovers_speed(self):
        drone = InertialDrone(Pose(0, 0, 0), turn_fraction=1.0, speed_recovery=0.6)
        drone.apply_action(Action.LEFT_55)
        dists = []
        for _ in range(6):
            before = drone.pose
            drone.apply_action(Action.FORWARD)
            after = drone.pose
            dists.append(np.hypot(after.x - before.x, after.y - before.y))
        assert dists[-1] > dists[0]
        assert dists[-1] == pytest.approx(drone.d_frame, rel=0.05)

    def test_teleport_resets_dynamics(self):
        drone = InertialDrone(Pose(0, 0, 0), turn_fraction=0.5)
        drone.apply_action(Action.LEFT_55)
        drone.teleport(Pose(5, 5, 0))
        assert drone._pending_turn == 0.0
        assert drone._speed_scale == 1.0

    def test_drop_in_for_navigation_env(self):
        world = make_environment("indoor-apartment", seed=0)
        drone = InertialDrone(Pose(0, 0, 0), d_frame=world.d_min / 4)
        env = NavigationEnv(
            world,
            camera=DepthCamera(width=12, height=12),
            seed=0,
            drone=drone,
        )
        env.reset()
        obs, reward, done, info = env.step(1)
        assert obs.shape == (1, 12, 12)


class TestRewardVariants:
    def test_mean_is_paper_reward(self):
        img = np.full((9, 9), 0.8)
        img[4, 4] = 0.1  # one close obstacle pixel dead centre
        window_mean = (0.8 * 8 + 0.1) / 9
        assert compute_reward(img, RewardConfig()) == pytest.approx(window_mean)
