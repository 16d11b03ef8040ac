"""Tests for fixed-point (quantised) inference."""

import numpy as np
import pytest

from repro.fixedpoint import Q2_13, Q8_8, QFormat
from repro.nn import QuantizedNetwork, build_network


class TestQuantizedNetwork:
    def test_prediction_close_to_float(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        qnet = QuantizedNetwork(net)
        x = rng.uniform(0, 1, size=(4, 1, 16, 16))
        fp = net.predict(x)
        qp = qnet.predict(x)
        assert qp.shape == fp.shape
        # 16-bit fixed point should track float closely at these scales.
        assert np.max(np.abs(qp - fp)) < 0.15 * (np.max(np.abs(fp)) + 1.0)

    def test_outputs_are_representable(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        qnet = QuantizedNetwork(net)
        out = qnet.predict(rng.uniform(0, 1, size=(2, 1, 16, 16)))
        assert np.all(Q8_8.representable(out))

    def test_original_network_unchanged(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        before = net.state_dict()
        QuantizedNetwork(net).predict(rng.uniform(0, 1, size=(1, 1, 16, 16)))
        after = net.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_action_agreement_high(self, scaled_spec, rng):
        """The greedy policy must survive 16-bit quantisation — the
        premise of running the TL model on the fixed-point platform."""
        net = build_network(scaled_spec, seed=0)
        qnet = QuantizedNetwork(net)
        states = rng.uniform(0, 1, size=(64, 1, 16, 16))
        assert qnet.agreement_rate(states) > 0.9

    def test_agreement_validation(self, scaled_spec):
        net = build_network(scaled_spec, seed=0)
        qnet = QuantizedNetwork(net)
        with pytest.raises(ValueError):
            qnet.agreement_rate(np.zeros((0, 1, 16, 16)))

    def test_coarse_format_degrades(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        fine = QuantizedNetwork(net, weight_format=Q2_13)
        coarse = QuantizedNetwork(net, weight_format=QFormat(2, 3))
        x = rng.uniform(0, 1, size=(8, 1, 16, 16))
        fp = net.predict(x)
        err_fine = np.mean(np.abs(fine.predict(x) - fp))
        err_coarse = np.mean(np.abs(coarse.predict(x) - fp))
        assert err_coarse > err_fine

    def test_weight_error_stats(self, scaled_spec):
        net = build_network(scaled_spec, seed=0)
        stats = QuantizedNetwork(net).weight_error_stats()
        assert stats.max_abs_error <= Q2_13.scale / 2 + 1e-12 or stats.saturated_fraction > 0
