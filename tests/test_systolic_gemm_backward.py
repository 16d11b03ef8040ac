"""Tests: the GEMM conv-backward path matches Conv2D autograd exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import Conv2D

from pe_reference import conv_backward_gemm


def reference_grads(x, weights, grad_out, stride, pad, rng):
    layer = Conv2D(
        x.shape[1], weights.shape[0], weights.shape[2],
        stride=stride, pad=pad, rng=rng,
    )
    layer.weight.value = weights.copy()
    layer.bias.value = np.zeros(weights.shape[0])
    layer.forward(x, training=True)
    dx = layer.backward(grad_out)
    return layer.weight.grad, layer.bias.grad, dx


class TestAgainstAutograd:
    @pytest.mark.parametrize(
        "stride,pad", [(1, 0), (1, 1), (2, 0), (2, 2), (4, 0)]
    )
    def test_matches_conv2d_backward(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 11, 11))
        weights = rng.normal(size=(4, 3, 3, 3))
        out_side = (11 + 2 * pad - 3) // stride + 1
        grad_out = rng.normal(size=(2, 4, out_side, out_side))
        result = conv_backward_gemm(x, weights, grad_out, stride=stride, pad=pad)
        dw, db, dx = reference_grads(x, weights, grad_out, stride, pad, rng)
        assert np.allclose(result.weight_grad, dw)
        assert np.allclose(result.bias_grad, db)
        assert np.allclose(result.input_grad, dx)

    def test_conv1_like_geometry(self, rng):
        """The paper's CONV1 shape family: 11x11 kernel, stride 4."""
        x = rng.normal(size=(1, 3, 39, 39))
        weights = rng.normal(size=(8, 3, 11, 11))
        grad_out = rng.normal(size=(1, 8, 8, 8))
        result = conv_backward_gemm(x, weights, grad_out, stride=4)
        dw, db, dx = reference_grads(x, weights, grad_out, 4, 0, rng)
        assert np.allclose(result.weight_grad, dw)
        assert np.allclose(result.input_grad, dx)


class TestAccounting:
    def test_expansion_elements(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        weights = rng.normal(size=(3, 2, 3, 3))
        grad_out = rng.normal(size=(1, 3, 6, 6))
        result = conv_backward_gemm(x, weights, grad_out)
        assert result.expansion_elements == 2 * 9 * 36  # KKIC x OHOW

    def test_macs_symmetric(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        weights = rng.normal(size=(3, 2, 3, 3))
        grad_out = rng.normal(size=(1, 3, 6, 6))
        result = conv_backward_gemm(x, weights, grad_out)
        assert result.dw_macs == result.dx_macs == 3 * 36 * 18

    def test_expansion_bits(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        weights = rng.normal(size=(1, 1, 3, 3))
        grad_out = rng.normal(size=(1, 1, 3, 3))
        result = conv_backward_gemm(x, weights, grad_out)
        assert result.expansion_bits(16) == 2 * result.expansion_elements * 16


class TestValidation:
    def test_dim_checks(self, rng):
        with pytest.raises(ValueError):
            conv_backward_gemm(
                rng.normal(size=(3, 8, 8)),
                rng.normal(size=(1, 3, 3, 3)),
                rng.normal(size=(1, 1, 6, 6)),
            )

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv_backward_gemm(
                rng.normal(size=(1, 2, 8, 8)),
                rng.normal(size=(1, 3, 3, 3)),
                rng.normal(size=(1, 1, 6, 6)),
            )

    def test_grad_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv_backward_gemm(
                rng.normal(size=(1, 2, 8, 8)),
                rng.normal(size=(3, 2, 3, 3)),
                rng.normal(size=(1, 5, 6, 6)),
            )

    def test_spatial_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv_backward_gemm(
                rng.normal(size=(1, 2, 8, 8)),
                rng.normal(size=(3, 2, 3, 3)),
                rng.normal(size=(1, 3, 9, 9)),
            )


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 3),
    oc=st.integers(1, 4),
    size=st.integers(6, 12),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
    seed=st.integers(0, 500),
)
def test_gemm_path_always_matches(c, oc, size, kernel, stride, seed):
    if kernel > size:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, c, size, size))
    weights = rng.normal(size=(oc, c, kernel, kernel))
    out_side = (size - kernel) // stride + 1
    grad_out = rng.normal(size=(1, oc, out_side, out_side))
    result = conv_backward_gemm(x, weights, grad_out, stride=stride)
    dw, db, dx = reference_grads(x, weights, grad_out, stride, 0, rng)
    assert np.allclose(result.weight_grad, dw)
    assert np.allclose(result.bias_grad, db)
    assert np.allclose(result.input_grad, dx)
