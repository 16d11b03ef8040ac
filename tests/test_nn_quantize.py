"""Tests for fixed-point (quantised) inference: a float network served
by the 16-bit datapath (``QuantizedBackend``)."""

import numpy as np
import pytest

from repro.backend import QuantizedBackend
from repro.fixedpoint import Q2_13, Q8_8, QFormat, quantization_stats
from repro.nn import build_network


def predict(backend: QuantizedBackend, x: np.ndarray) -> np.ndarray:
    return backend.forward_batch(x)[0]


class TestQuantizedNetwork:
    def test_prediction_close_to_float(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        x = rng.uniform(0, 1, size=(4, 1, 16, 16))
        fp = net.predict(x)
        qp = predict(QuantizedBackend(net), x)
        assert qp.shape == fp.shape
        # 16-bit fixed point should track float closely at these scales.
        assert np.max(np.abs(qp - fp)) < 0.15 * (np.max(np.abs(fp)) + 1.0)

    def test_outputs_are_representable(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        out = predict(QuantizedBackend(net), rng.uniform(0, 1, size=(2, 1, 16, 16)))
        assert np.all(Q8_8.representable(out))

    def test_original_network_unchanged(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        before = net.state_dict()
        predict(QuantizedBackend(net), rng.uniform(0, 1, size=(1, 1, 16, 16)))
        after = net.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_action_agreement_high(self, scaled_spec, rng):
        """The greedy policy must survive 16-bit quantisation — the
        premise of running the TL model on the fixed-point platform."""
        net = build_network(scaled_spec, seed=0)
        states = rng.uniform(0, 1, size=(64, 1, 16, 16))
        assert QuantizedBackend(net).agreement_rate(states) > 0.9

    def test_agreement_validation(self, scaled_spec):
        net = build_network(scaled_spec, seed=0)
        with pytest.raises(ValueError):
            QuantizedBackend(net).agreement_rate(np.zeros((0, 1, 16, 16)))

    def test_coarse_format_degrades(self, scaled_spec, rng):
        net = build_network(scaled_spec, seed=0)
        fine = QuantizedBackend(net, weight_format=Q2_13)
        coarse = QuantizedBackend(net, weight_format=QFormat(2, 3))
        x = rng.uniform(0, 1, size=(8, 1, 16, 16))
        fp = net.predict(x)
        err_fine = np.mean(np.abs(predict(fine, x) - fp))
        err_coarse = np.mean(np.abs(predict(coarse, x) - fp))
        assert err_coarse > err_fine

    def test_weight_error_stats(self, scaled_spec):
        net = build_network(scaled_spec, seed=0)
        flat = np.concatenate([p.value.ravel() for p in net.parameters()])
        stats = quantization_stats(flat, Q2_13)
        assert stats.max_abs_error <= Q2_13.scale / 2 + 1e-12 or stats.saturated_fraction > 0
        # The serving buffer holds exactly that quantisation.
        served = QuantizedBackend(net).weight_buffers()
        flat_served = np.concatenate([served[p.name].ravel() for p in net.parameters()])
        assert np.array_equal(flat_served, Q2_13.quantize(flat))
