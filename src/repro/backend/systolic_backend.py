"""The fixed-point datapath: the systolic backend and its cycle-free view.

Runs the Q network the way the paper's accelerator does:

* **Numerics** — one serving buffer holds every weight quantised into
  the weight format (the paper's single 16-bit copy: the meta-model in
  STT-MRAM, the RL-updated tail in SRAM).  Each Conv2D becomes one
  batched im2col + GEMM and each Dense one vector-matrix product
  through the shared kernels (:mod:`repro.systolic.kernels`), on
  activations re-quantised into the activation format after every
  layer.  Every operand is a dyadic value k·2^-f and every partial sum
  stays below 2^53, so the float64 GEMMs are exact — the same numbers
  integer MACs on the raw codes produce — while dispatching to BLAS.
* **Cycles** — closed-form accounting from :mod:`repro.systolic.cycles`,
  a walk over the layer shapes beside the numerics: row-stationary conv
  schedules scale per image, FC tile loads amortise across the batch
  (weight reuse, the Fig. 13 effect).  The loop-level PE oracle these
  counters stand for runs test-side (``tests/pe_reference.py``); a
  forward through it matches this datapath bitwise, cycle for cycle.

:class:`SystolicBackend` is the datapath with its cycle budgets;
:class:`QuantizedBackend` is the same datapath — same buffer, same
fault seam, same Q values — without the cycle walk.
:meth:`SystolicBackend.forward_layer` is the per-layer primitive (one
conv or FC pass on this array).  The multi-array
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
from repro.systolic.training import _layer_walk, network_training_step_cost

__all__ = ["SystolicBackend", "QuantizedBackend"]


def _single_array_cost(
    backend: str, states: int, macs: int, layer_cycles: dict[str, int]
) -> StepCost:
    """A cost run on one array: all of it on array 0's critical path."""
    total = sum(layer_cycles.values())
    return StepCost(
        backend=backend, states=states, macs=macs, layer_cycles=layer_cycles,
        shard_cycles=(total,), critical_path_cycles=total,
    )


def _by_layer(named_cycles) -> dict[str, int]:
    """Cycles keyed by layer name, from ``(name, cycles)`` pairs.

    Layer names are not guaranteed unique; a repeated name gains a
    prime rather than silently swallowing another layer's cycles.
    """
    layer_cycles: dict[str, int] = {}
    for name, cycles in named_cycles:
        while name in layer_cycles:
            name += "'"
        layer_cycles[name] = cycles
    return layer_cycles


def _state_batch(states: np.ndarray) -> np.ndarray:
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
    return x


@register_backend("systolic")
class SystolicBackend(ExecutionBackend):
    """Quantized fixed-point inference with per-step cycle budgets.

    Parameters
    ----------
    network:
        The trained float network (not modified); weights quantise once
        into the ``weight_format`` serving buffer at construction.
    config:
        Array geometry (defaults to the paper's 32x32 grid at 1 GHz).
    weight_format / activation_format:
        The 16-bit corners of the paper's datapath.
    """

    def __init__(
        self,
        network: Network,
        config: ArrayConfig | None = None,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
    ):
        self.network = network
        self.config = config or PAPER_ARRAY
        self.weight_format = weight_format
        self.activation_format = activation_format
        #: The serving buffer: quantised weight values by parameter name.
        self._value: dict[str, np.ndarray] = {}
        self.sync()

    def sync(self) -> None:
        """Re-quantise the live float weights into the serving buffer.

        Construction models the one-time model download; the agent
        calls this after each online training update so the array
        executes with the written-back weights, not a stale snapshot.
        Quantising makes fresh arrays, so the buffer never aliases the
        live parameters: in-place optimizer updates cannot leak into
        the datapath between syncs.
        """
        for p in self.network.parameters():
            self._value[p.name] = self.weight_format.quantize(p.value)

    # ------------------------------------------------------------------
    # Serving-buffer seam (fault injection / detection)
    # ------------------------------------------------------------------
    def weight_buffers(self) -> dict[str, np.ndarray]:
        """The serving buffer the GEMMs read: quantised weight values."""
        return self._value

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        """Flip one stored bit of parameter ``name`` (SRAM soft error).

        The buffer holds quantised *values*; the upset round-trips the
        element through its raw code, flips the bit there, and writes
        the decoded value back — the same code the hardware stores.
        """
        from repro.faults.recovery import flip_raw_bit

        fmt = self.weight_format
        flat = self._value[name].reshape(-1)
        raw = flip_raw_bit(int(fmt.to_raw(flat[index])), bit, fmt)
        flat[index] = float(fmt.from_raw(raw))

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def _weights(self, layer) -> tuple[np.ndarray, np.ndarray]:
        """(weight values, bias values) the datapath executes with."""
        return self._value[layer.weight.name], self._value[layer.bias.name]

    def _layer(self, layer: Conv2D | Dense, x: np.ndarray) -> np.ndarray:
        """One conv / FC layer on the served weights, bias added."""
        w, b = self._weights(layer)
        if isinstance(layer, Conv2D):
            out = conv2d_gemm(x, w, stride=layer.stride, pad=layer.pad)
            return out + b[None, :, None, None]
        return fc_forward_gemm(x, w) + b

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """The datapath's Q values for an (N, C, H, W) batch."""
        quantize = self.activation_format.quantize
        x = quantize(x)
        for layer in self.network.layers:
            if isinstance(layer, (Conv2D, Dense)):
                x = self._layer(layer, x)
            else:
                # ReLU runs on the PE comparators, pooling/flatten on the
                # vector units — no MAC cycles.
                x = layer.forward(x, training=False)
            x = quantize(x)
        return x

    # ------------------------------------------------------------------
    # Cycles
    # ------------------------------------------------------------------
    def _layer_cost(
        self, layer: Conv2D | Dense, in_shape: tuple[int, ...], rows: int
    ) -> tuple[int, int]:
        """(cycles, MACs) of one conv / FC layer over ``rows`` inputs."""
        if isinstance(layer, Conv2D):
            c, h, w = in_shape
            stats = conv_rowstationary_stats(
                c, h + 2 * layer.pad, w + 2 * layer.pad,
                layer.out_channels, layer.kernel_size, layer.kernel_size,
                stride=layer.stride, config=self.config, batch=rows,
            )
            return stats.total_cycles, stats.total_pe_cycles
        sched = fc_tile_stats(
            layer.in_features, layer.out_features, self.config, batch=rows
        )
        return sched.total_cycles, sched.mac_cycles

    def _forward_cost(self, shape: tuple[int, ...]) -> StepCost:
        """The cost of one forward over an (N, C, H, W) batch."""
        rows = shape[0]
        walk, _ = _layer_walk(self.network, shape[1:])
        costs = [
            (layer.name, *self._layer_cost(layer, in_shape, rows))
            for _, layer, in_shape, _ in walk
        ]
        # The per-batch weight loads serve no state on an empty batch.
        layer_cycles = _by_layer((name, c) for name, c, _ in costs) if rows else {}
        return _single_array_cost(
            self.name, rows, sum(macs for *_, macs in costs), layer_cycles
        )

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
        if not isinstance(layer, (Conv2D, Dense)):
            raise TypeError(
                f"forward_layer handles Conv2D/Dense, got {type(layer).__name__}"
            )
        cycles, macs = self._layer_cost(layer, x.shape[1:], x.shape[0])
        return self._layer(layer, x), cycles, macs

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
        step = network_training_step_cost(
            self.network, state_shape, batch_size,
            config=self.config, first_trainable=first_trainable,
        )
        layer_cycles = _by_layer((l.name, l.total_cycles) for l in step.layers)
        return _single_array_cost(
            self.name, batch_size, step.total_macs, layer_cycles
        )

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        x = _state_batch(states)
        return self._forward(x), self._forward_cost(x.shape)


@register_backend("quantized")
class QuantizedBackend(SystolicBackend):
    """The fixed-point datapath without a cycle model.

    Answers "what Q values does the 16-bit datapath produce": the
    :class:`SystolicBackend` serving buffer, fault seam and numerics,
    bitwise the same Q values, with a :class:`StepCost` that counts
    states and charges no cycles for forwards or training.

    Parameters
    ----------
    network:
        The trained float network (not modified).
    weight_format / activation_format:
        Q formats for weights and inter-layer activations; the defaults
        are the paper's 16-bit corners (Q2.13 weights, Q8.8 sums).
    """

    def __init__(
        self,
        network: Network,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
    ):
        super().__init__(
            network, weight_format=weight_format,
            activation_format=activation_format,
        )

    train_cost = ExecutionBackend.train_cost

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        x = _state_batch(states)
        return self._forward(x), StepCost(backend=self.name, states=x.shape[0])
