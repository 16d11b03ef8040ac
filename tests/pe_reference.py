"""Loop-level PE oracle: the executing reference for the systolic datapath.

``src/`` charges the row-stationary array through one datapath: batched
im2col/GEMM numerics (:mod:`repro.systolic.kernels`) with closed-form
cycle counters (:mod:`repro.systolic.cycles`).  This module keeps the
execution those counters stand for as code that *runs* it:

* :class:`ProcessingElement` — one PE's register file and 1-D row
  convolution, charging a cycle per MAC as it executes;
* :func:`conv2d_pe` — a segment of ``kh`` PEs per filter, one drain
  wavefront per column pass, filter rows resident across the batch;
* :func:`fc_pe` — the Fig. 7 / Fig. 8 tile schedules executed tile by
  tile (per-tile loads, per-lane dot products, wavefront drains);
* :func:`conv_backward_gemm` — the Section V.B expansion pipeline,
  checked against the float autograd;
* :func:`simulate_network_training_step` — a whole batch-N training
  step chained through either path;
* :func:`oracle_forward` — a :class:`~repro.backend.SystolicBackend`
  forward with every parametric layer run through the oracle;
* :func:`weight_swap_forward` — the 16-bit forward through the float
  layers themselves, quantised weights swapped in layer by layer.

``fidelity="fast" | "pe"`` selects the datapath or the oracle in the
helpers here, so one test body can run both and compare.  The datapath
equals the oracle by test, not by construction: the cycle counters
must match as integers and the outputs to float round-off.
``bench_conv_fast_vs_pe`` / ``bench_training_fast_vs_pe`` time the two
paths for the speedup gates in ``benchmarks/`` and re-verify the
equality on every run.  The role is the one
``tests/sharded_reference.py`` plays for the priced shard schedules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.qformat import Q2_13, Q8_8, QFormat
from repro.nn.layers import Conv2D, Dense
from repro.systolic.array import PAPER_ARRAY, ArrayConfig, PEConfig
from repro.systolic.cycles import SimulationStats
from repro.systolic.fc_functional import (
    FCSimResult,
    simulate_fc_backward_transposed,
    simulate_fc_forward,
)
from repro.systolic.functional import simulate_conv_rowstationary
from repro.systolic.kernels import col2im, conv_out_size, im2col
from repro.systolic.training import (
    LayerTrainingCost,
    TrainingStepCost,
    _first_trainable_spec_index,
    training_step_stats,
)

_F64 = np.float64

#: The datapath (``"fast"``) or the loop-level oracle (``"pe"``).
FIDELITIES = ("fast", "pe")


def check_fidelity(fidelity: str) -> None:
    """Raise ``ValueError`` unless ``fidelity`` is a recognised mode."""
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")


# ----------------------------------------------------------------------
# The processing element
# ----------------------------------------------------------------------
class ProcessingElement:
    """Functional PE used as the cycle-level oracle.

    Holds a register file (filter row + input row + partial sums) and
    performs one row of 1-D convolution — the row-stationary primitive.
    The cycle accounting assumes one MAC issue per cycle sustained
    (the 8 MAC units hide RF banking and the 16-bit multiply pipeline;
    the sustained rate through one PE's row-conv loop is one result MAC
    per cycle, which is what the Fig. 12 calibration reflects).

    The closed-form counters of :mod:`repro.systolic.cycles` must
    reproduce what this loop charges exactly.  Callers on a hot path
    should hand ``load_*`` float64 arrays so the dtype-conversion guard
    short-circuits.
    """

    def __init__(self, config: PEConfig | None = None):
        self.config = config or PEConfig()
        self.filter_row: np.ndarray | None = None
        self.input_row: np.ndarray | None = None
        self.psum: np.ndarray | None = None
        self.cycles = 0
        self.load_cycles = 0

    def load_filter_row(self, filter_row: np.ndarray) -> None:
        """Store one row of filter taps in the RF.

        Charges one *load* cycle — the taps arrive broadside from the
        global buffer, one row per cycle, exactly like one row of an FC
        weight tile.  Loads are tracked separately from MAC cycles
        (:attr:`load_cycles`) because they amortise differently: a
        resident filter row serves every image of a batch, so the
        schedule charges loads once per batch while MAC/drain charges
        repeat per image (the conv side of the Fig. 13 weight-reuse
        effect).
        """
        if type(filter_row) is not np.ndarray or filter_row.dtype != _F64:
            filter_row = np.asarray(filter_row, dtype=_F64)
        self._check_rf(filter_row.size + (0 if self.input_row is None else self.input_row.size))
        self.filter_row = filter_row
        self.load_cycles += 1

    def load_input_row(self, input_row: np.ndarray) -> None:
        """Store one row of input activations in the RF."""
        if type(input_row) is not np.ndarray or input_row.dtype != _F64:
            input_row = np.asarray(input_row, dtype=_F64)
        self._check_rf(input_row.size + (0 if self.filter_row is None else self.filter_row.size))
        self.input_row = input_row

    def _check_rf(self, words: int) -> None:
        if words > self.config.rf_words:
            raise ValueError(
                f"RF overflow: {words} words > capacity {self.config.rf_words}"
            )

    def row_conv(self, stride: int = 1) -> np.ndarray:
        """1-D valid convolution of the stored input row with the filter
        row, producing one row of partial sums.  Charges one cycle per
        MAC performed (``out_len * taps``, the sustained per-PE rate);
        the windows-by-taps product itself is one strided BLAS call
        over a zero-copy sliding-window view."""
        if self.filter_row is None or self.input_row is None:
            raise RuntimeError("load filter and input rows first")
        flt = self.filter_row
        inp = self.input_row
        taps = flt.size
        width = inp.size
        out_len = (width - taps) // stride + 1
        if out_len <= 0:
            raise ValueError("input row shorter than filter row")
        windows = np.lib.stride_tricks.as_strided(
            inp,
            shape=(out_len, taps),
            strides=(inp.strides[0] * stride, inp.strides[0]),
        )
        out = windows @ flt
        self.cycles += out_len * taps
        self.psum = out if self.psum is None else self.psum + out
        return out

    def accumulate(self, incoming: np.ndarray) -> np.ndarray:
        """Add a neighbour PE's partial sums into the local psum."""
        if self.psum is None:
            self.psum = np.asarray(incoming, dtype=_F64).copy()
        else:
            if incoming.shape != self.psum.shape:
                raise ValueError("psum shape mismatch")
            self.psum = self.psum + incoming
        beats = -(-self.psum.size // self.config.words_per_link_beat)
        self.cycles += beats
        return self.psum

    def relu(self, values: np.ndarray) -> np.ndarray:
        """Comparator-unit ReLU; charges cycles at 8 comparisons/cycle."""
        self.cycles += -(-values.size // self.config.n_comparators)
        return np.maximum(values, 0.0)

    def clear_psum(self) -> None:
        """Drop accumulated partial sums, keeping the resident filter
        row (row-stationary reuse between output rows)."""
        self.psum = None

    def clear(self) -> None:
        """Reset state between passes (keeps the cycle counter)."""
        self.filter_row = None
        self.input_row = None
        self.psum = None


# ----------------------------------------------------------------------
# Layer oracles and the fast/pe switch
# ----------------------------------------------------------------------
def conv2d_pe(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    config: ArrayConfig | None = None,
) -> tuple[np.ndarray, SimulationStats]:
    """The loop-level conv oracle: one segment of kh PEs, one pass per
    column batch, with filter rows resident across the batch.

    Same operands and result layout as
    :func:`~repro.systolic.functional.simulate_conv_rowstationary`:
    ``x`` is (C, H, W) or (N, C, H, W), padding is applied before the
    array sees the input.
    """
    config = config or PAPER_ARRAY
    x = np.asarray(x, dtype=_F64)
    weights = np.asarray(weights, dtype=_F64)
    single = x.ndim == 3
    if single:
        x = x[None]
    n, c, h, w = x.shape
    oc, _, kh, kw = weights.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    segment = [ProcessingElement(config.pe) for _ in range(kh)]
    cols = config.cols
    out = np.zeros((n, oc, oh, ow))
    wavefront_cycles = 0
    for out_ch in range(oc):
        for row_base in range(0, oh, cols):
            rows_this_pass = min(cols, oh - row_base)
            # Row-stationary residency, extended across the batch: each
            # PE loads its filter row once (one broadside load cycle)
            # and keeps it in the RF while *every* image's input rows
            # stream past it — the conv analogue of the FC tile reuse,
            # so load cycles do not scale with n.
            for ch in range(c):
                for fr, pe in enumerate(segment):
                    pe.clear()
                    pe.load_filter_row(weights[out_ch, ch, fr])
                    for img in range(n):
                        image = x[img]
                        for col_pe in range(rows_this_pass):
                            out_row = row_base + col_pe
                            pe.clear_psum()
                            pe.load_input_row(image[ch, out_row * stride + fr])
                            out[img, out_ch, out_row] += pe.row_conv(stride=stride)
            # Vertical psum accumulation through the segment: one drain
            # wavefront per pass *per image*, staggered one cycle per
            # occupied column.
            wavefront_cycles += n * (kh + ow + rows_this_pass - 1)
    stats = SimulationStats(
        total_pe_cycles=sum(pe.cycles for pe in segment),
        wavefront_cycles=wavefront_cycles,
        pes_used=kh * min(cols, oh),
        load_cycles=sum(pe.load_cycles for pe in segment),
    )
    return (out[0] if single else out), stats


def simulate_conv(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    config: ArrayConfig | None = None,
    pad: int = 0,
    fidelity: str = "fast",
) -> tuple[np.ndarray, SimulationStats]:
    """:func:`simulate_conv_rowstationary` or its oracle."""
    check_fidelity(fidelity)
    if fidelity == "fast":
        return simulate_conv_rowstationary(
            x, weights, stride=stride, config=config, pad=pad
        )
    return conv2d_pe(x, weights, stride=stride, pad=pad, config=config)


def _tile_ranges(size: int, tile: int):
    for start in range(0, size, tile):
        yield start, min(start + tile, size)


def fc_pe(
    vector: np.ndarray,
    matrix: np.ndarray,
    array: ArrayConfig = PAPER_ARRAY,
    forward: bool = True,
) -> FCSimResult:
    """Execute the Fig. 7 (``forward``) or Fig. 8 tile schedule.

    Forward (Fig. 7): row-wise vector propagation — each PE row
    multiplies its vector element into its matrix row (one MAC per PE)
    and products accumulate down each column into the first row.
    Backward (Fig. 8): column-wise propagation — each PE column
    multiplies its vector element and sums accumulate along each row.
    Only the contraction axis differs; tiles, MACs and drains are
    charged identically in both directions.

    Tiles iterate *outermost* so each weight tile is loaded once
    (``tile_rows`` broadside load cycles) and stays resident while the
    whole batch streams through it — weight reuse across the batch.
    """
    vector = np.asarray(vector, dtype=_F64)
    matrix = np.asarray(matrix, dtype=_F64)
    single = vector.ndim == 1
    batch = vector[None] if single else vector
    in_f, out_f = matrix.shape
    n = batch.shape[0]
    output = np.zeros((n, out_f if forward else in_f))
    tiles = mac_cycles = drain_cycles = load_cycles = 0
    for r0, r1 in _tile_ranges(in_f, array.rows):
        for c0, c1 in _tile_ranges(out_f, array.cols):
            tiles += 1
            tile = matrix[r0:r1, c0:c1]
            load_cycles += r1 - r0
            for b in range(n):
                if forward:
                    output[b, c0:c1] += (batch[b, r0:r1, None] * tile).sum(axis=0)
                else:
                    output[b, r0:r1] += (tile * batch[b, None, c0:c1]).sum(axis=1)
                mac_cycles += tile.size
                drain_cycles += (r1 - r0) + (c1 - c0)
    return FCSimResult(
        output[0] if single else output,
        tiles, mac_cycles, drain_cycles, load_cycles,
    )


def fc_forward(
    vector: np.ndarray,
    matrix: np.ndarray,
    array: ArrayConfig = PAPER_ARRAY,
    fidelity: str = "fast",
) -> FCSimResult:
    """:func:`simulate_fc_forward` or its tile-schedule oracle."""
    check_fidelity(fidelity)
    if fidelity == "fast":
        return simulate_fc_forward(vector, matrix, array=array)
    return fc_pe(vector, matrix, array, forward=True)


def fc_backward_transposed(
    vector: np.ndarray,
    matrix: np.ndarray,
    array: ArrayConfig = PAPER_ARRAY,
    fidelity: str = "fast",
) -> FCSimResult:
    """:func:`simulate_fc_backward_transposed` or its oracle."""
    check_fidelity(fidelity)
    if fidelity == "fast":
        return simulate_fc_backward_transposed(vector, matrix, array=array)
    return fc_pe(vector, matrix, array, forward=False)


def oracle_forward(backend, states: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """``backend.forward_batch`` with every parametric layer on the oracle.

    Runs each Conv2D / Dense of ``backend.network`` through
    :func:`conv2d_pe` / :func:`fc_pe` on the backend's served weight
    values (``backend.weight_buffers()``), adds the bias and
    re-quantises with the backend's own activation format after every
    layer.  The datapath's fixed-point products are exact, so the Q
    values must match it bitwise.  Returns ``(q_values, layer_cycles)``.
    """
    requantize = backend.activation_format.quantize
    x = requantize(np.asarray(states, dtype=_F64))
    layer_cycles: dict[str, int] = {}
    for layer in backend.network.layers:
        if isinstance(layer, Conv2D):
            w, b = backend._weights(layer)
            out, stats = conv2d_pe(
                x, w, stride=layer.stride, pad=layer.pad, config=backend.config
            )
            x = out + b[None, :, None, None]
            layer_cycles[layer.name] = stats.total_cycles
        elif isinstance(layer, Dense):
            w, b = backend._weights(layer)
            result = fc_pe(x, w, backend.config)
            x = result.output + b
            layer_cycles[layer.name] = result.total_cycles
        else:
            x = layer.forward(x, training=False)
        x = requantize(x)
    return x, layer_cycles


def weight_swap_forward(
    network,
    states: np.ndarray,
    weight_format: QFormat = Q2_13,
    activation_format: QFormat = Q8_8,
) -> np.ndarray:
    """The 16-bit forward through ``network``'s own float layers.

    Each parametric layer runs :meth:`~repro.nn.layers.Layer.forward`
    with its weights swapped for their ``weight_format`` quantisation
    (and swapped back after), and the activations re-quantise into
    ``activation_format`` after every layer — the fixed-point datapath
    written with none of its kernels, for its Q values to be checked
    against bitwise.
    """
    x = activation_format.quantize(np.asarray(states, dtype=_F64))
    for layer in network.layers:
        params = layer.parameters()
        saved = [p.value for p in params]
        for p in params:
            p.value = weight_format.quantize(p.value)
        try:
            x = layer.forward(x, training=False)
        finally:
            for p, value in zip(params, saved):
                p.value = value
        x = activation_format.quantize(x)
    return x


# ----------------------------------------------------------------------
# Section V.B: GEMM conv backward
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GemmBackwardResult:
    """Gradients plus the data-movement accounting of the GEMM path."""

    weight_grad: np.ndarray
    bias_grad: np.ndarray
    input_grad: np.ndarray
    expansion_elements: int   # size of the im2col matrix
    dw_macs: int
    dx_macs: int

    def expansion_bits(self, word_bits: int = 16) -> int:
        """Bits moved to materialise + read back the expansion."""
        return 2 * self.expansion_elements * word_bits


def conv_backward_gemm(
    x: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> GemmBackwardResult:
    """Backpropagate one convolution via the paper's GEMM formulation.

    "For CONV layers, we use GEMM, where the system first reads the
    data from the STT-MRAM array to the logic die, and expands the
    inputs to each CONV layers in a 2D matrix.  Once the expansion is
    complete, the backpropagation of CONV becomes same as the
    backpropagation of FC layers."  Executed functionally:

    1. im2col-expand the layer input ``x`` (N, C, H, W) into the 2-D
       matrix ``cols`` (KH*KW*C x OH*OW per image);
    2. weight gradient as the FC-style product ``dout_2d @ cols.T``;
    3. input gradient as the transposed product ``W_2d.T @ dout_2d``
       followed by col2im folding.

    The expansion and MAC counts are what
    :func:`~repro.systolic.cycles.conv_backward_gemm_stats` charges.
    """
    if x.ndim != 4 or weights.ndim != 4 or grad_out.ndim != 4:
        raise ValueError("x, weights and grad_out must be 4-D")
    n, c, h, w = x.shape
    oc, wc, kh, kw = weights.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input {c}, weights {wc}")
    if grad_out.shape[1] != oc:
        raise ValueError("grad_out channels do not match filters")
    if kh != kw:
        raise ValueError("square kernels only (as in the paper's network)")

    cols = im2col(x, kh, kw, stride, pad)  # (N, C*KH*KW, OH*OW)
    positions = cols.shape[2]
    if grad_out.shape[2] * grad_out.shape[3] != positions:
        raise ValueError("grad_out spatial size inconsistent with geometry")
    dout_2d = grad_out.reshape(n, oc, positions)
    weight_grad = np.tensordot(dout_2d, cols, axes=([0, 2], [0, 2])).reshape(
        weights.shape
    )
    bias_grad = dout_2d.sum(axis=(0, 2))
    dcols = np.matmul(weights.reshape(oc, -1).T, dout_2d)
    input_grad = col2im(dcols, x.shape, kh, kw, stride, pad)

    kkic = c * kh * kw
    return GemmBackwardResult(
        weight_grad=weight_grad,
        bias_grad=bias_grad,
        input_grad=input_grad,
        expansion_elements=n * kkic * positions,
        dw_macs=n * oc * positions * kkic,
        dx_macs=n * oc * positions * kkic,
    )


# ----------------------------------------------------------------------
# Executed whole-network training step
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainingStepResult:
    """A *simulated* training step: cost plus the gradients it computed.

    ``upstream_grads[name]`` is the gradient each trainable layer
    received at its pre-activation output (after the ReLU mask and any
    max-pool routing) — the operand its dW and dX were computed from.
    """

    cost: TrainingStepCost
    input_batch: np.ndarray
    output: np.ndarray
    loss_grad: np.ndarray
    weight_grads: dict[str, np.ndarray]
    bias_grads: dict[str, np.ndarray]
    input_grad: np.ndarray | None
    upstream_grads: dict[str, np.ndarray]


def simulate_network_training_step(
    spec=None,
    batch: int = 4,
    fidelity: str = "fast",
    seed: int = 0,
    config: ArrayConfig | None = None,
    train_last_k: int | None = None,
    network=None,
) -> TrainingStepResult:
    """Execute one batch-N training step through the layer simulators.

    Runs the forward pass layer by layer (caching activations and ReLU
    masks, executing pools functionally), applies a random loss gradient
    at the output, then chains the backward GEMMs down to the first
    trainable layer — dL/dX via the Fig. 8 transposed pass, dL/dW via
    the streamed outer product, conv layers through the Section V.B
    im2col expansion.  Counter totals must equal the closed-form
    :func:`~repro.systolic.training.training_step_stats` at either
    fidelity.

    ``network`` optionally supplies the weights (a
    :func:`~repro.nn.alexnet.build_network` instance of the same spec),
    so the chained gradients can be cross-validated against the float
    autograd; without it, weights draw from ``seed`` and biases are
    zero (bias adds ride the drain path and never change the cycle
    accounting).  Norm layers are skipped numerically — pass specs
    with ``norm=False`` when cross-checking against an autograd network.
    """
    from repro.nn.alexnet import modified_alexnet_spec
    from repro.nn.layers import MaxPool2D
    from repro.nn.specs import ConvSpec, FCSpec

    check_fidelity(fidelity)
    if spec is None:
        spec = modified_alexnet_spec()
    if batch <= 0:
        raise ValueError("batch must be positive")
    rng = np.random.default_rng(seed)
    array = config or PAPER_ARRAY
    first_trainable = _first_trainable_spec_index(len(spec.layers), train_last_k)

    by_name = {}
    if network is not None:
        by_name = {layer.name: layer for _i, layer in network.parametric_layers()}

    def layer_weights(layer_spec, shape):
        if layer_spec.name in by_name:
            layer = by_name[layer_spec.name]
            return layer.weight.value, layer.bias.value
        weights = rng.normal(size=shape, scale=0.05)
        return weights, np.zeros(shape[0] if len(shape) == 4 else shape[1])

    x = rng.normal(
        size=(batch, spec.input_channels, spec.input_side, spec.input_side)
    )
    input_batch = x.copy()

    # Forward walk, caching what the backward chain needs.
    caches: list[dict] = []
    flattened = False
    for layer_spec in spec.layers:
        cache: dict = {"spec": layer_spec}
        if isinstance(layer_spec, ConvSpec):
            w, b = layer_weights(
                layer_spec,
                (
                    layer_spec.out_channels, layer_spec.in_channels,
                    layer_spec.kernel, layer_spec.kernel,
                ),
            )
            cache["x"] = x
            cache["w"] = w
            out, fwd_stats = simulate_conv(
                x, w, stride=layer_spec.stride, config=array,
                pad=layer_spec.pad, fidelity=fidelity,
            )
            out = out + b[None, :, None, None]
            cache["fwd_stats"] = fwd_stats
            cache["mask"] = out > 0
            x = out * cache["mask"]
            if layer_spec.pool is not None:
                pool = MaxPool2D(layer_spec.pool, layer_spec.pool_stride)
                x = pool.forward(x, training=True)
                cache["pool"] = pool
        elif isinstance(layer_spec, FCSpec):
            if not flattened:
                x = x.reshape(batch, -1)
                flattened = True
            w, b = layer_weights(
                layer_spec, (layer_spec.in_features, layer_spec.out_features)
            )
            cache["x"] = x
            cache["w"] = w
            result = fc_forward(x, w, array=array, fidelity=fidelity)
            out = result.output + b
            cache["fwd_result"] = result
            if layer_spec is not spec.layers[-1]:
                cache["mask"] = out > 0
                x = out * cache["mask"]
            else:
                x = out
        else:  # pragma: no cover - spec classes are closed
            raise TypeError(f"unknown spec type: {type(layer_spec)!r}")
        caches.append(cache)
    output = x

    # The training loss gradient at the Q outputs (eq. 1's regression
    # residual in shape; random values — cycles depend only on shapes).
    grad = rng.normal(size=output.shape)
    loss_grad = grad.copy()

    # Backward chain down to the first trainable layer.
    layers: list[LayerTrainingCost] = []
    weight_grads: dict[str, np.ndarray] = {}
    bias_grads: dict[str, np.ndarray] = {}
    upstream_grads: dict[str, np.ndarray] = {}
    input_grad: np.ndarray | None = None
    for index in range(len(spec.layers) - 1, -1, -1):
        cache = caches[index]
        layer_spec = cache["spec"]
        trainable = index >= first_trainable
        if isinstance(layer_spec, FCSpec):
            if "mask" in cache:
                grad = grad * cache["mask"]
            dw_cycles = dx_cycles = dw_macs = dx_macs = weight_elements = 0
            if trainable:
                upstream_grads[layer_spec.name] = grad
                x_in, w = cache["x"], cache["w"]
                # dW = x^T @ grad: activation columns stream through the
                # resident gradient tiles (a Fig. 7 pass, batch = in_f).
                dw_res = fc_forward(
                    np.ascontiguousarray(x_in.T), grad, array=array,
                    fidelity=fidelity,
                )
                weight_grads[layer_spec.name] = dw_res.output
                bias_grads[layer_spec.name] = grad.sum(axis=0)
                # dX = grad @ W^T: the Fig. 8 transposed pass over the
                # layer's own resident tiles.
                dx_res = fc_backward_transposed(
                    grad, w, array=array, fidelity=fidelity
                )
                dw_cycles, dw_macs = dw_res.total_cycles, dw_res.mac_cycles
                dx_cycles, dx_macs = dx_res.total_cycles, dx_res.mac_cycles
                weight_elements = (
                    layer_spec.in_features * layer_spec.out_features
                    + layer_spec.out_features
                )
                grad = input_grad = dx_res.output
            fwd = cache["fwd_result"]
            layers.append(
                LayerTrainingCost(
                    name=layer_spec.name, kind="fc",
                    forward_cycles=fwd.total_cycles,
                    dw_cycles=dw_cycles, dx_cycles=dx_cycles,
                    forward_macs=fwd.mac_cycles,
                    dw_macs=dw_macs, dx_macs=dx_macs,
                    weight_elements=weight_elements,
                )
            )
        else:  # ConvSpec
            if index == len(spec.conv_layers) - 1 and grad.ndim == 2:
                # Un-flatten the gradient entering the conv prefix.
                n = grad.shape[0]
                ref = caches[index]
                pooled = (
                    ref["pool"].output_shape(*ref["mask"].shape[2:])
                    if "pool" in ref
                    else ref["mask"].shape[2:]
                )
                grad = grad.reshape(n, layer_spec.out_channels, *pooled)
            if "pool" in cache:
                grad = cache["pool"].backward(grad)
            grad = grad * cache["mask"]
            dw_cycles = dx_cycles = dw_macs = dx_macs = 0
            weight_elements = expansion = 0
            if trainable:
                upstream_grads[layer_spec.name] = grad
                x_in, w = cache["x"], cache["w"]
                k, s, p = layer_spec.kernel, layer_spec.stride, layer_spec.pad
                oc = layer_spec.out_channels
                n = x_in.shape[0]
                # Section V.B: expand the input, then backprop like FC.
                cols = im2col(x_in, k, k, s, p)  # (N, F, P)
                f_dim, positions = cols.shape[1], cols.shape[2]
                cols_rows = cols.transpose(0, 2, 1).reshape(n * positions, f_dim)
                grad_rows = grad.transpose(0, 2, 3, 1).reshape(n * positions, oc)
                m = w.reshape(oc, -1).T  # (F, OC), the forward layout
                # dW: expansion columns stream through gradient tiles.
                dw_res = fc_forward(
                    np.ascontiguousarray(cols_rows.T), grad_rows,
                    array=array, fidelity=fidelity,
                )
                weight_grads[layer_spec.name] = dw_res.output.T.reshape(w.shape)
                bias_grads[layer_spec.name] = grad_rows.sum(axis=0)
                # dX: Fig. 8 transposed pass of the filter matrix, then
                # the col2im fold (vector units, no MAC cycles).
                dx_res = fc_backward_transposed(
                    grad_rows, m, array=array, fidelity=fidelity
                )
                dcols = dx_res.output.reshape(n, positions, f_dim).transpose(0, 2, 1)
                grad = input_grad = col2im(dcols, x_in.shape, k, k, s, p)
                dw_cycles, dw_macs = dw_res.total_cycles, dw_res.mac_cycles
                dx_cycles, dx_macs = dx_res.total_cycles, dx_res.mac_cycles
                expansion = n * f_dim * positions
                weight_elements = oc * layer_spec.in_channels * k * k + oc
            fwd = cache["fwd_stats"]
            layers.append(
                LayerTrainingCost(
                    name=layer_spec.name, kind="conv",
                    forward_cycles=fwd.total_cycles,
                    dw_cycles=dw_cycles, dx_cycles=dx_cycles,
                    forward_macs=fwd.total_pe_cycles,
                    dw_macs=dw_macs, dx_macs=dx_macs,
                    weight_elements=weight_elements,
                    expansion_elements=expansion,
                )
            )
        if not trainable:
            break
    # Layers were visited output-to-input; report input-to-output, with
    # forward-only records for any frozen prefix the loop never reached.
    visited = {l.name for l in layers}
    prefix: list[LayerTrainingCost] = []
    for cache in caches:
        layer_spec = cache["spec"]
        if layer_spec.name in visited:
            break
        if isinstance(layer_spec, FCSpec):
            fwd = cache["fwd_result"]
            forward_cycles, forward_macs = fwd.total_cycles, fwd.mac_cycles
            kind = "fc"
        else:
            fwd = cache["fwd_stats"]
            forward_cycles, forward_macs = fwd.total_cycles, fwd.total_pe_cycles
            kind = "conv"
        prefix.append(
            LayerTrainingCost(
                name=layer_spec.name, kind=kind,
                forward_cycles=forward_cycles, dw_cycles=0, dx_cycles=0,
                forward_macs=forward_macs, dw_macs=0, dx_macs=0,
                weight_elements=0,
            )
        )
    cost = TrainingStepCost(
        network=spec.name, batch=batch,
        layers=tuple(prefix) + tuple(reversed(layers)),
    )
    return TrainingStepResult(
        cost=cost,
        input_batch=input_batch,
        output=output,
        loss_grad=loss_grad,
        weight_grads=weight_grads,
        bias_grads=bias_grads,
        input_grad=input_grad,
        upstream_grads=upstream_grads,
    )


# ----------------------------------------------------------------------
# Fast-vs-oracle timers (the benchmarks' speedup gates)
# ----------------------------------------------------------------------
def _best_seconds(run, repeats: int):
    """``(min wall seconds over repeats, last result)`` of ``run()``."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


@dataclass(frozen=True)
class ConvBenchResult:
    """Fast-vs-oracle timing of one convolution layer."""

    channels: int
    side: int
    filters: int
    kernel: int
    stride: int
    macs: int
    pe_seconds: float
    fast_seconds: float

    @property
    def shape(self) -> str:
        """Human-readable layer geometry."""
        return (
            f"{self.channels}x{self.side}x{self.side} -> {self.filters} "
            f"filters {self.kernel}x{self.kernel}/s{self.stride}"
        )

    @property
    def speedup(self) -> float:
        """Fast-path speedup over the PE-loop oracle."""
        return self.pe_seconds / self.fast_seconds

    @property
    def fast_macs_per_second(self) -> float:
        """Simulated MAC throughput of the fast path."""
        return self.macs / self.fast_seconds

    @property
    def pe_macs_per_second(self) -> float:
        """Simulated MAC throughput of the oracle."""
        return self.macs / self.pe_seconds

    def payload(self) -> dict:
        """The ``bench_layer`` block of ``BENCH_systolic.json``."""
        return {
            "shape": self.shape,
            "speedup": self.speedup,
            "pe_seconds": self.pe_seconds,
            "fast_seconds": self.fast_seconds,
            "fast_macs_per_second": self.fast_macs_per_second,
            "pe_macs_per_second": self.pe_macs_per_second,
        }


def bench_conv_fast_vs_pe(
    channels: int = 3,
    side: int = 32,
    filters: int = 16,
    kernel: int = 3,
    stride: int = 1,
    pe_repeats: int = 2,
    fast_repeats: int = 10,
    seed: int = 0,
    config: ArrayConfig | None = None,
) -> ConvBenchResult:
    """Time one conv layer on both paths (min over repeats).

    Also cross-checks the two paths against each other — outputs must
    agree and cycle statistics must be *identical* — so every benchmark
    run re-proves the equivalence it is measuring.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(channels, side, side))
    w = rng.normal(size=(filters, channels, kernel, kernel))
    pe_seconds, (pe_out, pe_stats) = _best_seconds(
        lambda: conv2d_pe(x, w, stride=stride, config=config), pe_repeats
    )
    fast_seconds, (fast_out, fast_stats) = _best_seconds(
        lambda: simulate_conv_rowstationary(x, w, stride=stride, config=config),
        fast_repeats,
    )
    if fast_stats != pe_stats:
        raise RuntimeError(
            f"cycle statistics diverged: fast {fast_stats} vs oracle {pe_stats}"
        )
    if not np.allclose(fast_out, pe_out, rtol=1e-10, atol=1e-10):
        raise RuntimeError("fast-path output diverged from the PE oracle")
    return ConvBenchResult(
        channels=channels,
        side=side,
        filters=filters,
        kernel=kernel,
        stride=stride,
        macs=pe_stats.total_pe_cycles,
        pe_seconds=pe_seconds,
        fast_seconds=fast_seconds,
    )


@dataclass(frozen=True)
class TrainingBenchResult:
    """Fast-vs-oracle timing of one whole-network training step."""

    network: str
    batch: int
    macs: int
    pe_seconds: float
    fast_seconds: float

    @property
    def speedup(self) -> float:
        """Fast-path speedup over the PE/tile-schedule oracle."""
        return self.pe_seconds / self.fast_seconds


def bench_training_fast_vs_pe(
    spec=None,
    batch: int = 2,
    seed: int = 0,
    config: ArrayConfig | None = None,
    pe_repeats: int = 1,
    fast_repeats: int = 5,
) -> TrainingBenchResult:
    """Time one training step on both paths (min over repeats).

    Re-proves on the way that the two paths produce identical integer
    counters and matching gradients, and that both equal the closed
    form — every benchmark run re-verifies the equivalence it measures.
    ``spec`` defaults to a reduced drone net the oracle can finish.
    """
    from repro.nn.alexnet import scaled_drone_net_spec

    if spec is None:
        spec = scaled_drone_net_spec(input_side=16)

    def step(fidelity):
        return lambda: simulate_network_training_step(
            spec, batch=batch, fidelity=fidelity, seed=seed, config=config
        )

    pe_seconds, pe = _best_seconds(step("pe"), pe_repeats)
    fast_seconds, fast = _best_seconds(step("fast"), fast_repeats)
    if fast.cost.counters != pe.cost.counters:
        raise RuntimeError(
            f"training counters diverged: fast {fast.cost.counters} "
            f"vs oracle {pe.cost.counters}"
        )
    closed = training_step_stats(spec, batch=batch, config=config or PAPER_ARRAY)
    if closed.counters != pe.cost.counters:
        raise RuntimeError("closed-form counters diverged from the oracle")
    for name, grad in fast.weight_grads.items():
        if not np.allclose(grad, pe.weight_grads[name], rtol=1e-9, atol=1e-9):
            raise RuntimeError(f"{name}: fast dW diverged from the oracle")
    return TrainingBenchResult(
        network=spec.name, batch=batch, macs=fast.cost.total_macs,
        pe_seconds=pe_seconds, fast_seconds=fast_seconds,
    )
