"""Cross-validation of the NumPy layers against SciPy references.

Independent implementations catching each other: our im2col convolution
and pooling are checked against scipy.signal/scipy.ndimage, which share
no code with repro.nn.  The systolic fast path (conv forward, FC
forward/backward, GEMM conv backward) is held to the same external
reference, since it shares its kernels with the layers.
"""

import numpy as np
import pytest

scipy_signal = pytest.importorskip("scipy.signal")
scipy_ndimage = pytest.importorskip("scipy.ndimage")

from repro.nn.layers import Conv2D, MaxPool2D
from repro.systolic import (
    simulate_conv_rowstationary,
    simulate_fc_backward_transposed,
    simulate_fc_forward,
)

from pe_reference import conv_backward_gemm


class TestConvAgainstScipy:
    def test_single_channel_valid_conv(self, rng):
        x = rng.normal(size=(5, 7))
        kernel = rng.normal(size=(3, 3))
        layer = Conv2D(1, 1, 3, rng=rng)
        layer.weight.value = kernel[None, None]
        layer.bias.value = np.zeros(1)
        ours = layer.forward(x[None, None])[0, 0]
        # CNN "convolution" is correlation in scipy terms.
        ref = scipy_signal.correlate2d(x, kernel, mode="valid")
        assert np.allclose(ours, ref)

    def test_multi_channel_sums_correlations(self, rng):
        x = rng.normal(size=(3, 8, 8))
        weights = rng.normal(size=(2, 3, 3, 3))
        layer = Conv2D(3, 2, 3, rng=rng)
        layer.weight.value = weights
        layer.bias.value = np.zeros(2)
        ours = layer.forward(x[None])[0]
        for oc in range(2):
            ref = sum(
                scipy_signal.correlate2d(x[c], weights[oc, c], mode="valid")
                for c in range(3)
            )
            assert np.allclose(ours[oc], ref)

    def test_padded_conv(self, rng):
        x = rng.normal(size=(6, 6))
        kernel = rng.normal(size=(3, 3))
        layer = Conv2D(1, 1, 3, pad=1, rng=rng)
        layer.weight.value = kernel[None, None]
        layer.bias.value = np.zeros(1)
        ours = layer.forward(x[None, None])[0, 0]
        padded = np.pad(x, 1)
        ref = scipy_signal.correlate2d(padded, kernel, mode="valid")
        assert np.allclose(ours, ref)

    def test_strided_conv_subsamples(self, rng):
        x = rng.normal(size=(9, 9))
        kernel = rng.normal(size=(3, 3))
        layer = Conv2D(1, 1, 3, stride=2, rng=rng)
        layer.weight.value = kernel[None, None]
        layer.bias.value = np.zeros(1)
        ours = layer.forward(x[None, None])[0, 0]
        full = scipy_signal.correlate2d(x, kernel, mode="valid")
        assert np.allclose(ours, full[::2, ::2])


class TestSystolicFastPathAgainstScipy:
    """The systolic fast path against references that share no code."""

    def test_conv_forward_multichannel(self, rng):
        x = rng.normal(size=(3, 9, 9))
        weights = rng.normal(size=(2, 3, 3, 3))
        out, _ = simulate_conv_rowstationary(x, weights)
        for oc in range(2):
            ref = sum(
                scipy_signal.correlate2d(x[c], weights[oc, c], mode="valid")
                for c in range(3)
            )
            assert np.allclose(out[oc], ref)

    def test_conv_forward_padded_strided(self, rng):
        x = rng.normal(size=(1, 9, 9))
        kernel = rng.normal(size=(1, 1, 3, 3))
        out, _ = simulate_conv_rowstationary(x, kernel, stride=2, pad=1)
        padded = np.pad(x[0], 1)
        full = scipy_signal.correlate2d(padded, kernel[0, 0], mode="valid")
        assert np.allclose(out[0], full[::2, ::2])

    def test_conv_forward_batched(self, rng):
        x = rng.normal(size=(3, 1, 8, 8))
        kernel = rng.normal(size=(1, 1, 3, 3))
        out, _ = simulate_conv_rowstationary(x, kernel)
        for img in range(3):
            ref = scipy_signal.correlate2d(x[img, 0], kernel[0, 0], mode="valid")
            assert np.allclose(out[img, 0], ref)

    def test_fc_forward_and_backward(self, rng):
        m = rng.normal(size=(20, 30))
        v_in = rng.normal(size=20)
        v_out = rng.normal(size=30)
        # scipy.linalg.blas is an independent GEMV entry point.
        import scipy.linalg.blas as blas

        fwd = simulate_fc_forward(v_in, m)
        bwd = simulate_fc_backward_transposed(v_out, m)
        assert np.allclose(fwd.output, blas.dgemv(1.0, m, v_in, trans=1))
        assert np.allclose(bwd.output, blas.dgemv(1.0, m, v_out, trans=0))

    def test_conv_backward_input_grad(self, rng):
        """dX of a stride-1 conv is the *full* correlation of the
        upstream gradient with the 180deg-rotated kernel."""
        x = rng.normal(size=(1, 1, 8, 8))
        kernel = rng.normal(size=(1, 1, 3, 3))
        grad_out = rng.normal(size=(1, 1, 6, 6))
        result = conv_backward_gemm(x, kernel, grad_out)
        flipped = kernel[0, 0, ::-1, ::-1]
        ref = scipy_signal.correlate2d(
            np.pad(grad_out[0, 0], 2), flipped, mode="valid"
        )
        assert np.allclose(result.input_grad[0, 0], ref)

    def test_conv_backward_weight_grad(self, rng):
        """dW is the valid correlation of the input with the gradient."""
        x = rng.normal(size=(1, 1, 8, 8))
        kernel = rng.normal(size=(1, 1, 3, 3))
        grad_out = rng.normal(size=(1, 1, 6, 6))
        result = conv_backward_gemm(x, kernel, grad_out)
        ref = scipy_signal.correlate2d(x[0, 0], grad_out[0, 0], mode="valid")
        assert np.allclose(result.weight_grad[0, 0], ref)


class TestPoolAgainstScipy:
    def test_non_overlapping_pool(self, rng):
        x = rng.normal(size=(8, 8))
        ours = MaxPool2D(2, 2).forward(x[None, None])[0, 0]
        ref = scipy_ndimage.maximum_filter(x, size=2, origin=(-1, -1))[::2, ::2][
            : ours.shape[0], : ours.shape[1]
        ]
        assert np.allclose(ours, ref)

    def test_overlapping_alexnet_pool(self, rng):
        x = rng.normal(size=(13, 13))
        ours = MaxPool2D(3, 2).forward(x[None, None])[0, 0]
        # Reference: explicit window maxima.
        expected = np.array(
            [
                [x[i : i + 3, j : j + 3].max() for j in range(0, 11, 2)]
                for i in range(0, 11, 2)
            ]
        )
        assert np.allclose(ours, expected)
