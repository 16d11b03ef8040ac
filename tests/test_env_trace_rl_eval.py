"""Tests for flight tracing, world rendering and policy evaluation."""

import numpy as np
import pytest

from repro.env import (
    DepthCamera,
    FlightTrace,
    NavigationEnv,
    StereoNoiseModel,
    make_environment,
    render_world_ascii,
)
from repro.env.world import Pose
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import evaluate_policy, meta_train


class TestFlightTrace:
    def make_trace(self):
        trace = FlightTrace()
        trace.record(Pose(0, 0, 0), 0, 0.5, False)
        trace.record(Pose(1, 0, 0), 0, 0.6, False)
        trace.record(Pose(1, 1, 0), 1, -1.0, True)
        return trace

    def test_len_and_path(self):
        trace = self.make_trace()
        assert len(trace) == 3
        assert trace.path.shape == (3, 2)

    def test_crash_sites(self):
        assert self.make_trace().crash_sites == [(1.0, 1.0)]

    def test_total_distance(self):
        assert self.make_trace().total_distance() == pytest.approx(2.0)

    def test_mean_reward(self):
        assert self.make_trace().mean_reward() == pytest.approx(0.1 / 3)

    def test_action_histogram(self):
        hist = self.make_trace().action_histogram()
        assert hist.tolist() == [2, 1, 0, 0, 0]

    def test_action_out_of_range(self):
        trace = FlightTrace()
        trace.record(Pose(0, 0, 0), 9, 0.0, False)
        with pytest.raises(ValueError):
            trace.action_histogram()

    def test_empty_trace(self):
        trace = FlightTrace()
        assert trace.total_distance() == 0.0
        assert np.isnan(trace.mean_reward())
        assert trace.path.shape == (0, 2)


class TestRenderWorld:
    def test_render_contains_walls_and_header(self):
        world = make_environment("indoor-apartment", seed=0)
        art = render_world_ascii(world)
        assert "indoor-apartment" in art
        assert "#" in art

    def test_render_with_trace_shows_path_and_crash(self):
        world = make_environment("indoor-apartment", seed=0)
        trace = FlightTrace()
        trace.record(Pose(3.0, 3.0, 0), 0, 0.5, False)
        trace.record(Pose(3.5, 3.0, 0), 0, 0.5, False)
        trace.record(Pose(4.0, 3.0, 0), 0, -1.0, True)
        art = render_world_ascii(world, trace)
        assert "X" in art

    def test_circles_rendered(self):
        world = make_environment("outdoor-forest", seed=0)
        art = render_world_ascii(world)
        assert "o" in art

    def test_canvas_validation(self):
        world = make_environment("indoor-apartment", seed=0)
        with pytest.raises(ValueError):
            render_world_ascii(world, width=2)


class TestEvaluatePolicy:
    def make_env(self, seed=0):
        world = make_environment("indoor-apartment", seed=seed)
        return NavigationEnv(
            world, camera=DepthCamera(width=16, height=16), seed=seed
        )

    def test_result_fields(self):
        net = build_network(scaled_drone_net_spec(input_side=16), seed=0)
        result = evaluate_policy(net, self.make_env(), steps=100)
        assert result.steps == 100
        assert result.environment == "indoor-apartment"
        assert len(result.trace) == 100
        assert sum(result.action_histogram) == 100
        assert 0.0 <= result.crash_rate <= 1.0

    def test_deterministic_greedy(self):
        net = build_network(scaled_drone_net_spec(input_side=16), seed=0)
        a = evaluate_policy(net, self.make_env(seed=4), steps=60, seed=1)
        b = evaluate_policy(net, self.make_env(seed=4), steps=60, seed=1)
        assert a.safe_flight_distance == b.safe_flight_distance
        assert a.action_histogram == b.action_histogram

    def test_validation(self):
        net = build_network(scaled_drone_net_spec(input_side=16), seed=0)
        with pytest.raises(ValueError):
            evaluate_policy(net, self.make_env(), steps=0)
        with pytest.raises(ValueError):
            evaluate_policy(net, self.make_env(), steps=10, epsilon=2.0)

    def test_trained_beats_untrained(self):
        """A meta-trained policy should out-fly a random-init one under
        greedy evaluation in its own environment family."""
        meta = meta_train("meta-indoor", iterations=1200, seed=5, image_side=16)
        net = build_network(scaled_drone_net_spec(input_side=16), seed=6)
        net.load_state_dict(meta.final_state)
        trained = evaluate_policy(
            net,
            NavigationEnv(
                make_environment("indoor-apartment", seed=6),
                camera=DepthCamera(width=16, height=16, noise=StereoNoiseModel()),
                seed=37,
            ),
            steps=800,
            seed=6,
        )
        fresh = build_network(scaled_drone_net_spec(input_side=16), seed=123)
        untrained = evaluate_policy(
            fresh,
            NavigationEnv(
                make_environment("indoor-apartment", seed=6),
                camera=DepthCamera(width=16, height=16),
                seed=37,
            ),
            steps=800,
            seed=6,
        )
        assert trained.mean_reward > untrained.mean_reward
