"""Hardware-in-the-loop execution backend: the quantized systolic datapath.

Runs the Q network the way the paper's accelerator does:

* **Numerics** — weights and activations live as fixed-point raw integer
  codes; each Conv2D becomes one batched im2col + integer GEMM and each
  Dense one integer vector-matrix product through the shared kernels
  (:mod:`repro.systolic.kernels`), with saturating re-quantisation into
  the activation format after every layer.  Because every intermediate
  product is an exact integer well inside float64's 2^53 mantissa, this
  raw-integer path is bitwise-identical to
  :meth:`~repro.nn.quantize.QuantizedNetwork.predict_batch` (proven in
  ``tests/test_backend.py``).
* **Cycles** — closed-form accounting from :mod:`repro.systolic.cycles`:
  row-stationary conv schedules scale per image, FC tile loads amortise
  across the batch (weight reuse, the Fig. 13 effect).  The loop-level
  PE oracle these counters stand for runs test-side
  (``tests/pe_reference.py``); a forward through it matches this
  datapath bitwise, cycle for cycle.

``quantized=False`` disables the fixed-point datapath and serves float
numerics while still charging cycles — the post-hoc "cost this
observation batch" mode.  :meth:`SystolicBackend.forward_layer` is the
per-layer primitive (one conv or FC pass on this array) that
:meth:`SystolicBackend.forward_batch` chains.  The multi-array
:class:`~repro.backend.sharded.ShardedBackend` does not compose it: it
runs one :meth:`~SystolicBackend.forward_batch` and prices its
schedule in closed form.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ExecutionBackend, StepCost, register_backend
from repro.fixedpoint.qformat import QFormat, Q2_13, Q8_8
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Network
from repro.systolic.array import ArrayConfig, PAPER_ARRAY
from repro.systolic.cycles import conv_rowstationary_stats, fc_tile_stats
from repro.systolic.kernels import conv2d_gemm, fc_forward_gemm

__all__ = ["SystolicBackend"]


def _single_array_cost(
    backend: str, states: int, macs: int, layer_cycles: dict[str, int]
) -> StepCost:
    """A cost run on one array: all of it on array 0's critical path."""
    total = sum(layer_cycles.values())
    return StepCost(
        backend=backend, states=states, macs=macs, layer_cycles=layer_cycles,
        shard_cycles=(total,), critical_path_cycles=total,
    )


@register_backend("systolic")
class SystolicBackend(ExecutionBackend):
    """Quantized fixed-point inference with per-step cycle budgets.

    Parameters
    ----------
    network:
        The trained float network (not modified); weights quantise once
        into ``weight_format`` raw codes at construction.
    config:
        Array geometry (defaults to the paper's 32x32 grid at 1 GHz).
    quantized:
        ``False`` disables the fixed-point datapath and runs float
        numerics (matching ``Network.predict``) while still charging
        cycles — for costing a batch without quantising the policy.
    weight_format / activation_format:
        The 16-bit corners of the paper's datapath.
    """

    def __init__(
        self,
        network: Network,
        config: ArrayConfig | None = None,
        quantized: bool = True,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
    ):
        self.network = network
        self.config = config or PAPER_ARRAY
        self.quantized = quantized
        self.weight_format = weight_format
        self.activation_format = activation_format
        # Raw integer codes (datapath operands) and their float values
        # (for bias adds and the float mode).
        self._raw: dict[str, np.ndarray] = {}
        self._value: dict[str, np.ndarray] = {}
        self.sync()

    def sync(self) -> None:
        """Re-quantise the live float weights into datapath operands.

        Construction models the one-time model download; the agent
        calls this after each online training update so the array
        executes with the written-back weights, not a stale snapshot.

        Raw codes are stored as float64-valued integers: every product
        and partial sum of the datapath stays below 2^53, so the GEMMs
        are exact in float64 — same integers as an int64 matmul — while
        dispatching to BLAS instead of NumPy's slow integer loop.

        Float mode copies the values: the snapshot must not alias the
        live parameters, or in-place optimizer updates would leak into
        the datapath between syncs and the weight bus's staleness
        would be fictitious.
        """
        for p in self.network.parameters():
            if self.quantized:
                raw = self.weight_format.to_raw(p.value)
                self._raw[p.name] = raw.astype(np.float64)
                self._value[p.name] = self.weight_format.from_raw(raw)
            else:
                self._value[p.name] = p.value.copy()

    # ------------------------------------------------------------------
    # Serving-buffer seam (fault injection / detection)
    # ------------------------------------------------------------------
    def weight_buffers(self) -> dict[str, np.ndarray]:
        """The arrays the datapath reads: raw codes (or float values)."""
        return self._raw if self.quantized else self._value

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        """Flip one stored bit of parameter ``name`` (SRAM soft error).

        The flip happens in the two's-complement raw code; the derived
        float value is recomputed so the GEMM operands (``_raw``) and
        the bias operands (``_value``) stay consistent, exactly
        as a real upset in the single stored copy would present.
        """
        from repro.faults.recovery import flip_raw_bit

        fmt = self.weight_format
        if self.quantized:
            flat = self._raw[name].reshape(-1)
            flat[index] = float(flip_raw_bit(int(flat[index]), bit, fmt))
            self._value[name] = fmt.from_raw(self._raw[name].astype(np.int64))
        else:
            flat = self._value[name].reshape(-1)
            raw = flip_raw_bit(int(fmt.to_raw(flat[index])), bit, fmt)
            flat[index] = float(fmt.from_raw(raw))

    def _refresh_weight_values(self) -> None:
        if self.quantized:
            for name, raw in self._raw.items():
                self._value[name] = self.weight_format.from_raw(
                    raw.astype(np.int64)
                )

    # ------------------------------------------------------------------
    def _weights(self, layer) -> tuple[np.ndarray, np.ndarray]:
        """(weight values, bias values) the datapath executes with."""
        return self._value[layer.weight.name], self._value[layer.bias.name]

    def _requantize(self, x: np.ndarray) -> np.ndarray:
        return self.activation_format.quantize(x) if self.quantized else x

    def _conv(self, layer: Conv2D, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """One conv layer: output (bias added), cycles, MACs."""
        w, b = self._weights(layer)
        n, c, h, wid = x.shape
        if self.quantized:
            # Integer GEMM on raw codes: act raw (scale 2^-fa) times
            # weight raw (scale 2^-fw) accumulates exactly at scale
            # 2^-(fa+fw); one multiply recovers the real value.
            raw = conv2d_gemm(
                self.activation_format.to_raw(x).astype(np.float64),
                self._raw[layer.weight.name],
                stride=layer.stride,
                pad=layer.pad,
            )
            out = raw * (self.activation_format.scale * self.weight_format.scale)
        else:
            out = conv2d_gemm(x, w, stride=layer.stride, pad=layer.pad)
        stats = conv_rowstationary_stats(
            c, h + 2 * layer.pad, wid + 2 * layer.pad,
            layer.out_channels, layer.kernel_size, layer.kernel_size,
            stride=layer.stride, config=self.config, batch=n,
        )
        out = out + b[None, :, None, None]
        return out, stats.total_cycles, stats.total_pe_cycles

    def _dense(self, layer: Dense, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """One FC layer: output (bias added), cycles, MACs."""
        w, b = self._weights(layer)
        if self.quantized:
            raw = fc_forward_gemm(
                self.activation_format.to_raw(x).astype(np.float64),
                self._raw[layer.weight.name],
            )
            out = raw * (self.activation_format.scale * self.weight_format.scale)
        else:
            out = fc_forward_gemm(x, w)
        sched = fc_tile_stats(
            layer.in_features, layer.out_features, self.config, batch=x.shape[0]
        )
        return out + b, sched.total_cycles, sched.mac_cycles

    def forward_layer(self, layer, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """One parametric layer on this array: ``(output, cycles, macs)``.

        Bias is added; the activation re-quantisation between layers
        is the caller's job.  Given an output slice of a layer (full
        input, a subset of the output channels / features) it computes
        exactly that slice of the full layer's output: re-quantisation
        is elementwise, so merge-then-quantise equals
        quantise-then-merge, and slices executed on separate arrays
        merge bitwise equal to this single-array path.
        """
        if isinstance(layer, Conv2D):
            return self._conv(layer, x)
        if isinstance(layer, Dense):
            return self._dense(layer, x)
        raise TypeError(
            f"forward_layer handles Conv2D/Dense, got {type(layer).__name__}"
        )

    # ------------------------------------------------------------------
    def train_cost(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int = 0,
    ) -> StepCost:
        """Closed-form cost of one batch-N training step on this array.

        Whole-network accounting from :mod:`repro.systolic.training`:
        the batch's forward passes over every layer plus, for layers at
        index >= ``first_trainable``, the Section V.B backward GEMMs
        (dW outer product and the Fig. 8 transposed dX).  Pure shape
        arithmetic — no numerics execute, so charging every agent
        update is cheap.  Training numerics themselves stay in float
        off the datapath (the paper's split); this models what running
        them *on* the array would cost it.
        """
        from repro.systolic.training import network_training_step_cost

        step = network_training_step_cost(
            self.network, state_shape, batch_size,
            config=self.config, first_trainable=first_trainable,
        )
        layer_cycles: dict[str, int] = {}
        for layer in step.layers:
            name = layer.name
            while name in layer_cycles:
                name += "'"
            layer_cycles[name] = layer.total_cycles
        return _single_array_cost(
            self.name, batch_size, step.total_macs, layer_cycles
        )

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
        n = x.shape[0]
        x = self._requantize(x)
        layer_cycles: dict[str, int] = {}
        total_macs = 0

        def charge(name: str, cycles: int) -> None:
            # Layer names are not guaranteed unique; never let a
            # duplicate silently swallow another layer's cycles.
            while name in layer_cycles:
                name += "'"
            layer_cycles[name] = cycles

        for layer in self.network.layers:
            if isinstance(layer, (Conv2D, Dense)):
                x, cycles, macs = self.forward_layer(layer, x)
                charge(layer.name, cycles)
                total_macs += macs
            else:
                # ReLU runs on the PE comparators, pooling/flatten on the
                # vector units — shape bookkeeping here, no MAC cycles.
                x = layer.forward(x, training=False)
            x = self._requantize(x)
        # The per-batch weight loads serve no state on an empty batch.
        return x, _single_array_cost(
            self.name, n, total_macs, layer_cycles if n else {}
        )
