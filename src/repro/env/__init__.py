"""Drone world simulator.

The paper trains and tests in Unreal Engine 4 environments (indoor
apartment/house, outdoor forest/town; Fig. 9).  This package is the
substitution documented in DESIGN.md: a 2.5-D ray-cast simulator that
produces the same observable interface the paper's RL agent consumes —

* a depth image from a (noisy, stereo-like) forward camera,
* a reward equal to the average depth of the image's centre window,
* crash/termination events and the safe-flight-distance metric,

over procedurally generated indoor and outdoor worlds whose clutter
matches the paper's d_min settings (Fig. 1c: 0.7–1.3 m indoor, 3–5 m
outdoor).
"""

from repro.env.geometry import Segment, Circle, Box, RayCaster
from repro.env.world import World, Pose
from repro.env.generators import (
    make_environment,
    ENVIRONMENTS,
    META_ENVIRONMENTS,
    TEST_ENVIRONMENTS,
    EXTRA_ENVIRONMENTS,
    indoor_apartment,
    indoor_house,
    indoor_warehouse,
    outdoor_forest,
    outdoor_town,
    outdoor_suburb,
    meta_indoor,
    meta_outdoor,
)
from repro.env.drone import Drone, Action, ACTIONS, TURN_ANGLES_DEG
from repro.env.camera import DepthCamera, StereoNoiseModel
from repro.env.reward import compute_reward, RewardConfig
from repro.env.dynamics import InertialDrone
from repro.env.episode import NavigationEnv, Transition, SafeFlightTracker
from repro.env.fps import (
    min_fps_for_collision_avoidance,
    DMIN_TABLE,
    fps_requirement_table,
    max_safe_velocity,
)
from repro.env.trace import FlightTrace, TraceStep, render_world_ascii
from repro.env.realtime import (
    RealTimeReport,
    simulate_frame_queue,
    max_realtime_velocity,
)

__all__ = [
    "Segment",
    "Circle",
    "Box",
    "RayCaster",
    "World",
    "Pose",
    "make_environment",
    "ENVIRONMENTS",
    "META_ENVIRONMENTS",
    "TEST_ENVIRONMENTS",
    "EXTRA_ENVIRONMENTS",
    "indoor_apartment",
    "indoor_house",
    "indoor_warehouse",
    "outdoor_forest",
    "outdoor_town",
    "outdoor_suburb",
    "meta_indoor",
    "meta_outdoor",
    "Drone",
    "Action",
    "ACTIONS",
    "TURN_ANGLES_DEG",
    "DepthCamera",
    "StereoNoiseModel",
    "compute_reward",
    "RewardConfig",
    "InertialDrone",
    "NavigationEnv",
    "Transition",
    "SafeFlightTracker",
    "min_fps_for_collision_avoidance",
    "DMIN_TABLE",
    "fps_requirement_table",
    "max_safe_velocity",
    "FlightTrace",
    "TraceStep",
    "render_world_ascii",
    "RealTimeReport",
    "simulate_frame_queue",
    "max_realtime_velocity",
]
