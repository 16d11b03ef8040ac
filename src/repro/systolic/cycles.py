"""Closed-form cycle accounting for the functional systolic simulators.

The loop-level oracle (a test-only segment of per-PE models per
filter, ``tests/pe_reference.py``) charges cycles as it executes:
``out_len * taps`` MACs per row convolution, one drain wavefront per
column pass, link-beat psum moves and comparator ReLUs.  Every one of
those charges is a pure function of the layer geometry, so the
datapath does not need to execute the loop to know what it would have
charged — the formulas here reproduce the
oracle's counters *exactly* (integer equality, asserted over a
property-tested shape grid in ``tests/test_systolic_fast_equivalence.py``).

Derivation, matching the oracle loop structure:

* MAC cycles — the oracle iterates ``oc x oh x c x kh`` row
  convolutions, each charging ``ow * kw``:
  ``total = oc * oh * c * kh * ow * kw`` (= MACs of the layer).
* Wavefront cycles — one drain per column pass of each output channel.
  A pass occupying ``q`` columns charges ``kh + ow + q - 1``: ``kh``
  cycles for the wavefront to flow down the segment, ``ow`` to stream
  the row out, and one extra cycle of stagger per additional occupied
  column (partially-filled final passes occupy ``oh mod cols`` columns
  and charge less — see the occupancy note in
  :mod:`repro.systolic.functional`).
* FC tiles — the tile schedule of Figs. 7/8 charges ``tile.size`` MACs
  and ``tile_rows + tile_cols`` drain per tile; summed in closed form
  over the ragged tile grid.
* FC tile *loads* — streaming an ``r x c`` weight tile into the array
  costs ``r`` cycles (one broadside row per cycle).  A batch of vectors
  reuses the resident tile: loads are charged once per tile-batch, not
  per sample, which is the Fig. 13 fps-vs-batch effect — cycles per
  sample strictly decrease as the batch grows.
* Conv filter-row *loads* — each ``load_filter_row`` into a PE is one
  broadside cycle, so a pass over ``c`` channels with a ``kh``-row
  segment charges ``c * kh`` loads, once per column pass of each output
  channel.  Filter rows stay resident while the whole batch streams
  through the pass (the conv side of the same weight-reuse effect), so
  conv loads, like FC tile loads, are charged once per batch.
* Training backward passes — Section V.B maps both backward GEMMs of a
  conv layer onto the FC tile schedule after the im2col expansion, and
  an FC layer's backward is the Fig. 8 transposed pass (dX) plus a
  streamed outer product (dW); :func:`fc_backward_stats`,
  :func:`fc_weight_grad_stats` and :func:`conv_backward_gemm_stats`
  express all of them as :func:`fc_tile_stats` geometries.

A batch of ``n`` images/vectors repeats the MAC/drain schedule ``n``
times (those counters scale linearly with the batch); FC tile loads and
conv filter-row loads are amortised across the batch as above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.memo import memoised
from repro.systolic.array import ArrayConfig, PAPER_ARRAY

__all__ = [
    "SimulationStats",
    "FCScheduleStats",
    "ConvBackwardStats",
    "conv_rowstationary_stats",
    "fc_tile_stats",
    "fc_backward_stats",
    "fc_weight_grad_stats",
    "conv_backward_gemm_stats",
]


@dataclass(frozen=True)
class SimulationStats:
    """Cycle and occupancy statistics of one simulated conv layer.

    ``load_cycles`` counts filter-row loads into the segment — charged
    once per batch (rows stay resident while every image streams
    through); ``total_pe_cycles`` and ``wavefront_cycles`` repeat per
    image.
    """

    total_pe_cycles: int
    wavefront_cycles: int
    pes_used: int
    load_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """Load + MAC + drain cycles of the simulated schedule."""
        return self.total_pe_cycles + self.wavefront_cycles + self.load_cycles


@dataclass(frozen=True)
class FCScheduleStats:
    """Tile-schedule statistics of one FC pass (either direction).

    ``tiles`` and ``load_cycles`` count distinct weight tiles streamed
    into the array — charged once per batch (weight reuse); ``mac_cycles``
    and ``drain_cycles`` repeat per sample.
    """

    tiles: int
    mac_cycles: int
    drain_cycles: int
    load_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """Load + MAC + drain cycles of the schedule."""
        return self.load_cycles + self.mac_cycles + self.drain_cycles


@memoised("conv_rowstationary_stats")
def conv_rowstationary_stats(
    channels: int,
    height: int,
    width: int,
    out_channels: int,
    kh: int,
    kw: int,
    stride: int = 1,
    config: ArrayConfig = PAPER_ARRAY,
    batch: int = 1,
) -> SimulationStats:
    """Closed-form counters for a row-stationary convolution.

    ``height``/``width`` are the *padded* input extents (pad before
    calling, exactly as the oracle does).  Equal, field for field, to
    the counters the PE-loop oracle accumulates for the same geometry.

    Memoised on the full geometry signature (every argument is
    hashable, the result is frozen): hot loops ask for the same layer
    at the same batch size every update.
    """
    oh = (height - kh) // stride + 1
    ow = (width - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("filter larger than input")
    cols = config.cols
    mac_cycles = out_channels * oh * channels * kh * ow * kw
    full_passes, remainder = divmod(oh, cols)
    wavefront = full_passes * (kh + ow + cols - 1)
    if remainder:
        wavefront += kh + ow + remainder - 1
    wavefront *= out_channels
    # Filter-row loads: each column pass re-loads the segment once per
    # channel (kh broadside rows), and the rows then stay resident while
    # the whole batch streams through — loads do not scale with `batch`.
    passes = full_passes + (1 if remainder else 0)
    loads = out_channels * passes * channels * kh
    return SimulationStats(
        total_pe_cycles=batch * mac_cycles,
        wavefront_cycles=batch * wavefront,
        pes_used=kh * min(cols, oh),
        load_cycles=loads,
    )


@memoised("fc_tile_stats")
def fc_tile_stats(
    in_features: int,
    out_features: int,
    array: ArrayConfig = PAPER_ARRAY,
    batch: int = 1,
) -> FCScheduleStats:
    """Closed-form counters for the Fig. 7/8 FC tile schedule.

    Memoised on the geometry signature (the backward variants delegate
    here, so they share the table).

    Both directions stream the same (in_features x out_features) tile
    grid, so forward and transposed-backward share these numbers.  Each
    weight tile is loaded into the array once and stays resident while
    the whole batch streams through it (one broadside row per cycle, so
    an ``r x c`` tile costs ``r`` load cycles); MAC and drain cycles
    repeat per sample.
    """
    row_tiles = -(-in_features // array.rows)
    col_tiles = -(-out_features // array.cols)
    return FCScheduleStats(
        tiles=row_tiles * col_tiles,
        mac_cycles=batch * in_features * out_features,
        drain_cycles=batch * (in_features * col_tiles + out_features * row_tiles),
        load_cycles=in_features * col_tiles,
    )


def fc_backward_stats(
    in_features: int,
    out_features: int,
    array: ArrayConfig = PAPER_ARRAY,
    batch: int = 1,
) -> FCScheduleStats:
    """Counters of the Fig. 8 transposed pass ``dout @ W.T`` (dL/dX).

    The backward direction streams the *same* ``(in_features x
    out_features)`` tile grid as the forward pass — the Fig. 8 trick is
    precisely that one resident weight tile serves both directions — so
    the counters are :func:`fc_tile_stats` unchanged.  Provided as a
    named alias so training-step accounting reads as the paper's
    dataflow rather than a coincidence of formulas.
    """
    return fc_tile_stats(in_features, out_features, array, batch=batch)


def fc_weight_grad_stats(
    in_features: int,
    out_features: int,
    array: ArrayConfig = PAPER_ARRAY,
    batch: int = 1,
) -> FCScheduleStats:
    """Counters of the weight-gradient product ``dW = x.T @ dout``.

    Row ``i`` of ``dW`` is the length-``batch`` activation column
    ``x[:, i]`` streamed through the resident ``(batch x out_features)``
    upstream-gradient tiles — a Fig. 7 forward pass whose stationary
    matrix is the gradient and whose "batch" is the ``in_features``
    activation columns.  The gradient tiles change every training step,
    so their loads are charged per step (they still amortise across the
    ``in_features`` streamed vectors).
    """
    return fc_tile_stats(batch, out_features, array, batch=in_features)


@dataclass(frozen=True)
class ConvBackwardStats:
    """Closed-form counters of one conv layer's GEMM backpropagation.

    Section V.B: after the im2col expansion, "the backpropagation of
    CONV becomes same as the backpropagation of FC layers" — so both
    gradient products are FC tile schedules over the expanded operands:

    * ``dx`` — the Fig. 8 transposed pass of the ``(F x OC)`` filter
      matrix against the ``batch * positions`` upstream-gradient rows
      (``F = C*KH*KW``), folded back with col2im on the vector units;
    * ``dw`` — the streamed outer product of the expansion against the
      gradient: each of the ``F`` expansion columns (one length-``K``
      vector, ``K = batch * positions``) streams through the resident
      ``(K x OC)`` gradient tiles.

    ``expansion_elements`` counts the im2col matrix the logic die must
    materialise (the data-movement charge of the Section V.B expansion).
    """

    dw: FCScheduleStats
    dx: FCScheduleStats
    expansion_elements: int

    @property
    def total_cycles(self) -> int:
        """dW + dX cycles of the layer's backward schedules."""
        return self.dw.total_cycles + self.dx.total_cycles

    @property
    def mac_cycles(self) -> int:
        """dW + dX multiply-accumulates."""
        return self.dw.mac_cycles + self.dx.mac_cycles


def conv_backward_gemm_stats(
    channels: int,
    height: int,
    width: int,
    out_channels: int,
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
    config: ArrayConfig = PAPER_ARRAY,
    batch: int = 1,
) -> ConvBackwardStats:
    """Closed-form counters for a conv layer's backward GEMMs.

    ``height``/``width`` are the *unpadded* input extents with ``pad``
    given explicitly (the Section V.B expansion pads inside im2col —
    unlike the forward :func:`conv_rowstationary_stats`, which takes
    pre-padded extents because the forward array streams padded rows).
    """
    oh = (height + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("filter larger than input")
    positions = oh * ow
    k_dim = batch * positions
    f_dim = channels * kh * kw
    return ConvBackwardStats(
        dw=fc_weight_grad_stats(f_dim, out_channels, config, batch=k_dim),
        dx=fc_backward_stats(f_dim, out_channels, config, batch=k_dim),
        expansion_elements=batch * f_dim * positions,
    )
