"""Functional simulation of the FC dataflows (Figs. 7 and 8).

Fig. 7: forward vector-matrix product — matrix tiles are loaded into the
array, the input vector propagates row-wise, partial sums accumulate
vertically (column-wise) into the first row.

Fig. 8: backward vector-*transposed*-matrix product — the vector
propagates column-wise and partial sums accumulate row-wise, computing
``v @ W.T`` without materialising the transpose.  This is the trick that
lets the same weight tile serve both directions.

Both directions compute the product as one BLAS GEMM
(:mod:`repro.systolic.kernels`) with the tile/MAC/drain counters from
the closed-form schedule model (:mod:`repro.systolic.cycles`) —
paper-scale FC layers (37.75M weights) cost milliseconds.  The explicit
tile schedule (per-tile loads, per-lane dot products, wavefront drains)
is the test-only oracle these counters are proven against
(``tests/pe_reference.py``).  A batch of vectors (B, I) streams through
each *resident* weight tile: tile loads are charged once per batch (the
Fig. 13 weight-reuse effect), while MAC and drain counters repeat per
vector.

These simulators ground the FC pass-count model of
:mod:`repro.perf.layer_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.systolic.array import ArrayConfig, PAPER_ARRAY
from repro.systolic.cycles import fc_tile_stats
from repro.systolic.kernels import fc_backward_gemm, fc_forward_gemm

__all__ = ["FCSimResult", "simulate_fc_forward", "simulate_fc_backward_transposed"]


@dataclass(frozen=True)
class FCSimResult:
    """Output and schedule statistics of one simulated FC pass.

    ``tiles``/``load_cycles`` are charged once per batch (the weight
    tiles stay resident while every vector streams through);
    ``mac_cycles``/``drain_cycles`` repeat per vector.
    """

    output: np.ndarray
    tiles: int
    mac_cycles: int
    drain_cycles: int
    load_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """Load + MAC + drain cycles of the simulated schedule."""
        return self.load_cycles + self.mac_cycles + self.drain_cycles


def _fc_pass(vector, matrix, array, features_axis, product) -> FCSimResult:
    """Run ``product`` on a (B, F) batch and attach the tile counters."""
    vector = np.asarray(vector, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    single = vector.ndim == 1
    batch = vector[None] if single else vector
    if (
        batch.ndim != 2
        or matrix.ndim != 2
        or batch.shape[1] != matrix.shape[features_axis]
    ):
        want = "(I,)" if features_axis == 0 else "(O,)"
        raise ValueError(f"need vector {want} or a (B, F) batch and matrix (I, O)")
    output = product(batch, matrix)
    in_f, out_f = matrix.shape
    sched = fc_tile_stats(in_f, out_f, array, batch=batch.shape[0])
    return FCSimResult(
        output[0] if single else output,
        sched.tiles, sched.mac_cycles, sched.drain_cycles, sched.load_cycles,
    )


def simulate_fc_forward(
    vector: np.ndarray,
    matrix: np.ndarray,
    array: ArrayConfig = PAPER_ARRAY,
) -> FCSimResult:
    """Fig. 7: compute ``vector @ matrix`` tile by tile.

    ``vector`` is (in_features,) or a batch (B, in_features); ``matrix``
    is (in_features, out_features).  Rows of each tile hold matrix rows,
    the vector element enters its row and multiplies across, products
    accumulate down each column.
    """
    return _fc_pass(vector, matrix, array, 0, fc_forward_gemm)


def simulate_fc_backward_transposed(
    vector: np.ndarray,
    matrix: np.ndarray,
    array: ArrayConfig = PAPER_ARRAY,
) -> FCSimResult:
    """Fig. 8: compute ``vector @ matrix.T`` *without transposing*.

    ``vector`` is (out_features,) or a batch (B, out_features) — the
    upstream gradient — and ``matrix`` is (in_features, out_features)
    exactly as stored for the forward pass.  The vector propagates down
    the columns; partial sums accumulate row-wise and drain from the
    last column.
    """
    return _fc_pass(vector, matrix, array, 1, fc_backward_gemm)
