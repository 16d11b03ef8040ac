"""Fixed-point (quantised) inference.

The platform computes in 16-bit fixed point (Fig. 4b); the TL model
downloaded to the drone is therefore a quantised snapshot of the
floating-point meta-model.  :class:`QuantizedNetwork` wraps a trained
:class:`~repro.nn.network.Network` with per-layer weight quantisation
and activation re-quantisation between layers, so the library can answer
the practical question the paper's co-design assumes away: *does the
policy survive 16-bit arithmetic?*  (It does — see the tests and the
``quantization_study`` example.)
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.qformat import QFormat, Q2_13, Q8_8, quantization_stats
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Network
from repro.systolic.kernels import conv2d_gemm, fc_forward_gemm

__all__ = ["QuantizedNetwork"]


class QuantizedNetwork:
    """A 16-bit fixed-point view of a trained network.

    Parameters
    ----------
    network:
        The trained floating-point network (not modified).
    weight_format:
        Q-format for weights/biases; defaults to Q2.13 (weights of a
        trained ReLU network are small).
    activation_format:
        Q-format for inter-layer activations; defaults to Q8.8 (sums can
        exceed the weight range).
    """

    def __init__(
        self,
        network: Network,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
    ):
        self.network = network
        self.weight_format = weight_format
        self.activation_format = activation_format
        self._quantized_state: dict[str, np.ndarray] = {}
        self.refresh_quantized_state()

    def refresh_quantized_state(self) -> None:
        """Re-quantise the float network's current weights.

        The constructor snapshot models the one-time TL model download;
        call this after an online training update so the fixed-point
        view tracks the live weights (the platform's SRAM write-back).
        """
        self._quantized_state = {
            p.name: self.weight_format.quantize(p.value)
            for p in self.network.parameters()
        }

    def weight_error_stats(self):
        """Quantisation error statistics over all weights."""
        flat = np.concatenate(
            [p.value.ravel() for p in self.network.parameters()]
        )
        return quantization_stats(flat, self.weight_format)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with quantised weights and activations.

        Weights are swapped in layer by layer; activations are
        re-quantised after every layer, emulating the 16-bit datapath.
        """
        x = self.activation_format.quantize(x)
        for layer in self.network.layers:
            params = layer.parameters()
            if params:
                saved = [p.value for p in params]
                for p in params:
                    p.value = self._quantized_state[p.name]
                try:
                    x = layer.forward(x, training=False)
                finally:
                    for p, value in zip(params, saved):
                        p.value = value
            else:
                x = layer.forward(x, training=False)
            x = self.activation_format.quantize(x)
        return x

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Batched quantised forward pass through the shared GEMM kernels.

        Bitwise-identical to :meth:`predict` (the per-layer weight-swap
        reference path, kept as the cross-validation oracle), but runs
        the parametric layers directly through
        :mod:`repro.systolic.kernels` with the pre-quantised weight
        tensors — no ``Parameter`` mutation, so concurrent callers never
        observe a half-swapped network, and conv/FC layers hit the same
        batched BLAS dispatches as the systolic fast path.
        """
        x = self.activation_format.quantize(np.asarray(x, dtype=np.float64))
        for layer in self.network.layers:
            if isinstance(layer, Conv2D):
                w = self._quantized_state[layer.weight.name]
                b = self._quantized_state[layer.bias.name]
                x = conv2d_gemm(x, w, stride=layer.stride, pad=layer.pad)
                x = x + b[None, :, None, None]
            elif isinstance(layer, Dense):
                w = self._quantized_state[layer.weight.name]
                b = self._quantized_state[layer.bias.name]
                x = fc_forward_gemm(x, w) + b
            else:
                x = layer.forward(x, training=False)
            x = self.activation_format.quantize(x)
        return x

    def agreement_rate(self, states: np.ndarray) -> float:
        """Fraction of states whose greedy action survives quantisation."""
        if states.ndim < 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty batch")
        fp = self.network.predict(states).argmax(axis=1)
        qp = self.predict_batch(states).argmax(axis=1)
        return float(np.mean(fp == qp))

