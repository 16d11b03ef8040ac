"""Whole-network training-step cost on the systolic array.

Fig. 3b defines one training iteration as batch-N forward passes plus
the backward passes of the trainable tail, all on the same datapath
that serves inference.  This module costs exactly that end to end:

* **forward** — the row-stationary conv schedule and Fig. 7 FC tile
  schedule already proven in :mod:`repro.systolic.functional` /
  :mod:`repro.systolic.fc_functional`;
* **dL/dX** — the Fig. 8 transposed pass.  For FC layers it runs on the
  layer's own resident weight tiles; for conv layers the paper's GEMM
  formulation (Section V.B) im2col-expands the input, after which "the
  backpropagation of CONV becomes same as the backpropagation of FC
  layers" — the ``(F x OC)`` filter matrix streams transposed against
  the expanded gradient rows and the result folds back with col2im on
  the vector units;
* **dL/dW** — the streamed outer product: activation columns (FC) or
  expansion columns (conv) stream through resident upstream-gradient
  tiles, a Fig. 7 pass whose stationary matrix is the gradient;
* **weight update** — the trainable scalars written back per step
  (the SRAM/NVM traffic the projection charges).

Every count is closed form: :func:`training_step_stats` walks a spec
and :func:`network_training_step_cost` a built ``Network``, with no
numerics executed — the cheap path the execution backends charge per
training update.  The executed step these counts stand for (fast GEMMs
or the loop-level PE oracle, chained gradients included) is a
test-only reference (``tests/pe_reference.py``); the counters are
*exactly* equal to it over a property-tested grid
(``tests/test_systolic_training_equivalence.py``).

ReLU (comparators), max-pool routing, local response norm, bias adds
and the col2im fold run outside the MAC datapath and charge no array
cycles; norm layers charge nothing, exactly as in
:func:`repro.systolic.bench.simulate_network_forward`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.systolic.array import ArrayConfig, PAPER_ARRAY
from repro.systolic.cycles import (
    conv_backward_gemm_stats,
    conv_rowstationary_stats,
    fc_backward_stats,
    fc_tile_stats,
    fc_weight_grad_stats,
)

__all__ = [
    "LayerTrainingCost",
    "TrainingStepCost",
    "training_step_stats",
    "network_training_step_cost",
]


@dataclass(frozen=True)
class LayerTrainingCost:
    """Forward + backward array cost of one layer in a training step.

    Frozen-prefix layers carry forward cycles only (``dw``/``dx`` zero,
    no weight update); trainable layers add both gradient GEMMs.  The
    first trainable layer still charges its dL/dX pass — the hardware
    computes it on the way to dL/dW, matching the analytic Fig. 12b
    model which charges both GEMMs for every trainable layer.
    """

    name: str
    kind: str  # "conv" | "fc"
    forward_cycles: int
    dw_cycles: int
    dx_cycles: int
    forward_macs: int
    dw_macs: int
    dx_macs: int
    weight_elements: int  # trainable scalars updated (0 when frozen)
    expansion_elements: int = 0  # im2col traffic (conv backward only)

    @property
    def trainable(self) -> bool:
        """Whether this layer trains online in the step."""
        return self.weight_elements > 0

    @property
    def backward_cycles(self) -> int:
        """dW + dX cycles."""
        return self.dw_cycles + self.dx_cycles

    @property
    def total_cycles(self) -> int:
        """Forward + backward cycles of the layer."""
        return self.forward_cycles + self.backward_cycles

    @property
    def total_macs(self) -> int:
        """Forward + backward multiply-accumulates."""
        return self.forward_macs + self.dw_macs + self.dx_macs

    @property
    def counters(self) -> tuple:
        """Integer counter signature for exact equivalence assertions."""
        return (
            self.name, self.kind, self.forward_cycles, self.dw_cycles,
            self.dx_cycles, self.forward_macs, self.dw_macs, self.dx_macs,
            self.weight_elements, self.expansion_elements,
        )


@dataclass(frozen=True)
class TrainingStepCost:
    """Array cost of one whole-network batch-N training step (Fig. 3b)."""

    network: str
    batch: int
    layers: tuple[LayerTrainingCost, ...]

    @property
    def total_forward_cycles(self) -> int:
        """Forward cycles of the batch across all layers."""
        return sum(l.forward_cycles for l in self.layers)

    @property
    def total_dw_cycles(self) -> int:
        """Weight-gradient cycles across trainable layers."""
        return sum(l.dw_cycles for l in self.layers)

    @property
    def total_dx_cycles(self) -> int:
        """Input-gradient (Fig. 8) cycles across trainable layers."""
        return sum(l.dx_cycles for l in self.layers)

    @property
    def total_backward_cycles(self) -> int:
        """dW + dX cycles across trainable layers."""
        return self.total_dw_cycles + self.total_dx_cycles

    @property
    def total_cycles(self) -> int:
        """Whole-step array cycles (forward + backward)."""
        return self.total_forward_cycles + self.total_backward_cycles

    @property
    def total_macs(self) -> int:
        """Whole-step multiply-accumulates."""
        return sum(l.total_macs for l in self.layers)

    @property
    def cycles_per_sample(self) -> float:
        """Step cycles amortised per batch sample (the Fig. 13 curve)."""
        return self.total_cycles / self.batch if self.batch else 0.0

    @property
    def weight_update_elements(self) -> int:
        """Trainable scalars the update step writes back."""
        return sum(l.weight_elements for l in self.layers)

    @property
    def expansion_elements(self) -> int:
        """im2col elements materialised for the conv backward GEMMs."""
        return sum(l.expansion_elements for l in self.layers)

    def weight_update_bits(self, word_bits: int = 16) -> int:
        """Weight-update write traffic of one step, in bits."""
        return self.weight_update_elements * word_bits

    def array_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Time the modelled array needs for the whole step."""
        return config.seconds(self.total_cycles)

    def iterations_per_second(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Training iterations/sec the array sustains at this cost."""
        seconds = self.array_seconds(config)
        return 1.0 / seconds if seconds > 0.0 else float("inf")

    @property
    def counters(self) -> tuple:
        """Per-layer counter signatures (exact equality across paths)."""
        return tuple(l.counters for l in self.layers)


# ----------------------------------------------------------------------
# Closed-form accounting (no numerics)
# ----------------------------------------------------------------------
def _conv_layer_cost(
    name: str,
    channels: int,
    height: int,
    width: int,
    out_channels: int,
    kernel: int,
    stride: int,
    pad: int,
    batch: int,
    config: ArrayConfig,
    trainable: bool,
) -> tuple[LayerTrainingCost, tuple[int, int]]:
    """One conv layer's training cost and its (oh, ow) output extents."""
    fwd = conv_rowstationary_stats(
        channels, height + 2 * pad, width + 2 * pad, out_channels,
        kernel, kernel, stride=stride, config=config, batch=batch,
    )
    oh = (height + 2 * pad - kernel) // stride + 1
    ow = (width + 2 * pad - kernel) // stride + 1
    dw_cycles = dx_cycles = dw_macs = dx_macs = 0
    weight_elements = expansion = 0
    if trainable:
        bwd = conv_backward_gemm_stats(
            channels, height, width, out_channels, kernel, kernel,
            stride=stride, pad=pad, config=config, batch=batch,
        )
        dw_cycles, dx_cycles = bwd.dw.total_cycles, bwd.dx.total_cycles
        dw_macs, dx_macs = bwd.dw.mac_cycles, bwd.dx.mac_cycles
        expansion = bwd.expansion_elements
        weight_elements = out_channels * channels * kernel * kernel + out_channels
    return (
        LayerTrainingCost(
            name=name, kind="conv",
            forward_cycles=fwd.total_cycles,
            dw_cycles=dw_cycles, dx_cycles=dx_cycles,
            forward_macs=fwd.total_pe_cycles,
            dw_macs=dw_macs, dx_macs=dx_macs,
            weight_elements=weight_elements,
            expansion_elements=expansion,
        ),
        (oh, ow),
    )


def _fc_layer_cost(
    name: str,
    in_features: int,
    out_features: int,
    batch: int,
    config: ArrayConfig,
    trainable: bool,
) -> LayerTrainingCost:
    """One FC layer's training cost."""
    fwd = fc_tile_stats(in_features, out_features, config, batch=batch)
    dw_cycles = dx_cycles = dw_macs = dx_macs = weight_elements = 0
    if trainable:
        dw = fc_weight_grad_stats(in_features, out_features, config, batch=batch)
        dx = fc_backward_stats(in_features, out_features, config, batch=batch)
        dw_cycles, dx_cycles = dw.total_cycles, dx.total_cycles
        dw_macs, dx_macs = dw.mac_cycles, dx.mac_cycles
        weight_elements = in_features * out_features + out_features
    return LayerTrainingCost(
        name=name, kind="fc",
        forward_cycles=fwd.total_cycles,
        dw_cycles=dw_cycles, dx_cycles=dx_cycles,
        forward_macs=fwd.mac_cycles,
        dw_macs=dw_macs, dx_macs=dx_macs,
        weight_elements=weight_elements,
    )


def _first_trainable_spec_index(n_layers: int, train_last_k: int | None) -> int:
    """Spec-layer index where backpropagation stops (0 = end to end)."""
    if train_last_k is None or train_last_k >= n_layers:
        return 0
    if train_last_k <= 0:
        raise ValueError("train_last_k must be positive or None")
    return n_layers - train_last_k


def training_step_stats(
    spec=None,
    batch: int = 4,
    config: ArrayConfig = PAPER_ARRAY,
    train_last_k: int | None = None,
) -> TrainingStepCost:
    """Closed-form whole-network training-step cost from a spec.

    ``spec`` defaults to the paper-scale modified AlexNet; every layer
    of a spec is parametric, so ``train_last_k`` counts spec layers from
    the output — the FC layers are last, matching the L2/L3/L4
    ``last_k_fc`` convention (``None`` = end to end).  No numerics run:
    this is pure shape arithmetic, cheap enough to charge per training
    update from an execution backend.
    """
    # Lazy import: repro.nn imports repro.systolic.kernels.
    from repro.nn.alexnet import modified_alexnet_spec
    from repro.nn.specs import ConvSpec, FCSpec

    if spec is None:
        spec = modified_alexnet_spec()
    if batch <= 0:
        raise ValueError("batch must be positive")
    first_trainable = _first_trainable_spec_index(len(spec.layers), train_last_k)
    layers: list[LayerTrainingCost] = []
    for index, layer_spec in enumerate(spec.layers):
        trainable = index >= first_trainable
        if isinstance(layer_spec, ConvSpec):
            cost, _ = _conv_layer_cost(
                layer_spec.name, layer_spec.in_channels, layer_spec.in_height,
                layer_spec.in_width, layer_spec.out_channels, layer_spec.kernel,
                layer_spec.stride, layer_spec.pad, batch, config, trainable,
            )
        elif isinstance(layer_spec, FCSpec):
            cost = _fc_layer_cost(
                layer_spec.name, layer_spec.in_features,
                layer_spec.out_features, batch, config, trainable,
            )
        else:  # pragma: no cover - spec classes are closed
            raise TypeError(f"unknown spec type: {type(layer_spec)!r}")
        layers.append(cost)
    return TrainingStepCost(
        network=spec.name, batch=batch, layers=tuple(layers),
    )


def _network_cost_signature(network, first_trainable: int) -> tuple:
    """Hashable geometry signature of everything the cost walk reads.

    Per layer: the class kind plus exactly the attributes
    :func:`network_training_step_cost` consumes (names included — they
    appear in the returned per-layer records).  Two networks with equal
    signatures get byte-identical cost records, so the signature is a
    safe memo key where the ``Network`` object itself (mutable weights,
    unhashable) is not.
    """
    from repro.nn.layers import Conv2D, Dense, MaxPool2D

    rows: list[tuple] = [(network.name, int(first_trainable))]
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            rows.append(
                ("conv", layer.name, layer.out_channels, layer.kernel_size,
                 layer.stride, layer.pad)
            )
        elif isinstance(layer, MaxPool2D):
            rows.append(("pool", layer.pool_size, layer.stride))
        elif isinstance(layer, Dense):
            rows.append(
                ("fc", layer.name, layer.in_features, layer.out_features)
            )
        # Other layer kinds contribute no cost and no shape change.
    return tuple(rows)


def network_training_step_cost(
    network,
    state_shape: tuple[int, ...],
    batch: int,
    config: ArrayConfig = PAPER_ARRAY,
    first_trainable: int = 0,
) -> TrainingStepCost:
    """Closed-form training-step cost of a built ``Network``.

    Walks ``network.layers`` tracking the activation shape from
    ``state_shape`` (C, H, W); ``first_trainable`` is a layer index in
    the built stack, exactly as :class:`~repro.rl.agent.QLearningAgent`
    holds it.  This is the per-update charge of
    ``ExecutionBackend.train_cost``.

    Memoised on the network's geometry signature
    (:func:`_network_cost_signature`) plus the call arguments — the
    scheduler re-derives this cost every train step for an unchanging
    stack, so steady-state calls are a dict lookup.
    """
    from repro.parallel import memo as _memo

    key = (
        _network_cost_signature(network, first_trainable),
        tuple(int(v) for v in state_shape), int(batch), config,
    )
    table = _memo.cache("network_training_step_cost")
    cost = table.get(key)
    if cost is not _memo._MISS:
        return cost
    return table.put(
        key,
        _network_training_step_cost(
            network, state_shape, batch, config, first_trainable
        ),
    )


def _network_training_step_cost(
    network,
    state_shape: tuple[int, ...],
    batch: int,
    config: ArrayConfig,
    first_trainable: int,
) -> TrainingStepCost:
    if batch <= 0:
        raise ValueError("batch must be positive")
    if len(state_shape) != 3:
        raise ValueError(f"state_shape must be (C, H, W), got {state_shape!r}")
    walk, _out = _layer_walk(network, state_shape)
    layers = [
        _layer_cost(
            layer, in_shape, out_shape[0], batch, config,
            index >= first_trainable,
        )
        for index, layer, in_shape, out_shape in walk
    ]
    return TrainingStepCost(
        network=network.name, batch=batch, layers=tuple(layers),
    )


def _layer_walk(network, state_shape: tuple[int, ...]) -> tuple[list, int]:
    """The activation shapes a built ``Network`` moves, in one walk.

    Tracks the activation from ``state_shape`` (C, H, W) through
    ``network.layers`` and returns ``(walk, out_elements)``: ``walk``
    holds ``(index, layer, in_shape, out_shape)`` for every conv / FC
    layer, both as (C, H, W) (an FC row is ``(features, 1, 1)``), and
    ``out_elements`` is the element count of the network's output row.
    ReLU / norm / flatten change no shape that matters here
    (flatten keeps C*H*W, which is what ``Dense.in_features`` reads).
    """
    from repro.nn.layers import Conv2D, Dense, MaxPool2D

    c, h, w = (int(v) for v in state_shape)
    walk = []
    for index, layer in enumerate(network.layers):
        if isinstance(layer, Conv2D):
            out_shape = layer.output_shape(h, w)
            walk.append((index, layer, (c, h, w), out_shape))
            c, h, w = out_shape
        elif isinstance(layer, MaxPool2D):
            h, w = layer.output_shape(h, w)
        elif isinstance(layer, Dense):
            out_shape = (layer.out_features, 1, 1)
            walk.append((index, layer, (layer.in_features, 1, 1), out_shape))
            c, h, w = out_shape
    return walk, c * h * w


def _layer_cost(
    layer,
    in_shape: tuple[int, int, int],
    out_width: int,
    batch: int,
    config: ArrayConfig,
    trainable: bool,
) -> LayerTrainingCost:
    """Training cost of ``out_width`` of a conv / FC layer's outputs
    (filters / neurons) from its full ``in_shape`` input."""
    from repro.nn.layers import Conv2D

    if isinstance(layer, Conv2D):
        c, h, w = in_shape
        cost, _extents = _conv_layer_cost(
            layer.name, c, h, w, out_width, layer.kernel_size,
            layer.stride, layer.pad, batch, config, trainable,
        )
        return cost
    return _fc_layer_cost(
        layer.name, layer.in_features, out_width, batch, config, trainable,
    )
