"""Functional (cycle-counting) row-stationary convolution.

Computes a convolution the way the row-stationary array schedules it —
one PE per filter row computing 1-D row convolutions, partial sums
accumulated vertically through the segment — and reports the cycles
the array charges.  Numerics come from the shared batched im2col + GEMM
kernels (:mod:`repro.systolic.kernels`) and cycle/occupancy statistics
from the closed-form accounting in :mod:`repro.systolic.cycles`, so
paper-scale layers run in one call — a full modified-AlexNet forward
pass costs seconds, and whole fleet observation batches are costed in
one ``simulate_conv_rowstationary(x: (N, C, H, W))`` call.  The
loop-level per-PE execution these counters stand for is a test-only
oracle (``tests/pe_reference.py``); outputs and counters are proven
equal to it over a property-tested shape grid
(``tests/test_systolic_fast_equivalence.py``).

Wavefront accounting: each column pass drains one psum wavefront.  A
pass occupying ``q`` array columns charges ``kh + ow + q - 1`` cycles —
``kh`` to flow down the segment, ``ow`` to stream the output row, plus
one cycle of stagger per additional occupied column.  (Earlier versions
charged a flat ``kh + ow`` per pass, over- or under-counting whenever a
final pass filled only part of the array.)

Load accounting: each column pass loads the segment's filter rows once
per channel (one broadside cycle per row), and the rows stay resident
while the whole batch streams through — so conv load cycles amortise
across a batch exactly like FC tile loads, making conv cycles per
sample strictly decreasing in batch size (the Fig. 13 effect).
"""

from __future__ import annotations

import numpy as np

from repro.systolic.array import ArrayConfig, PAPER_ARRAY
from repro.systolic.cycles import SimulationStats, conv_rowstationary_stats
from repro.systolic.kernels import conv2d_gemm

__all__ = ["SimulationStats", "simulate_conv_rowstationary"]


def simulate_conv_rowstationary(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    config: ArrayConfig | None = None,
    pad: int = 0,
) -> tuple[np.ndarray, SimulationStats]:
    """Row-stationary convolution of one image or a batch.

    Parameters
    ----------
    x:
        Input activations, (C, H, W) for one image or (N, C, H, W)
        for a batch; a batch repeats the schedule per image, so the
        MAC and wavefront counters scale linearly with N.
    weights:
        Filters (OC, C, KH, KW).
    stride:
        Convolution stride.
    config:
        Array geometry (defaults to the paper's 32x32 grid).
    pad:
        Symmetric zero padding applied before the array sees the
        input (the global buffer pads on the fly; the array charges
        for the padded extents).

    Returns
    -------
    output, stats
        (OC, OH, OW) or (N, OC, OH, OW) result matching the input
        rank, and cycle statistics.
    """
    config = config or PAPER_ARRAY
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or weights.ndim != 4:
        raise ValueError("x must be (C,H,W) or (N,C,H,W) and weights (OC,C,KH,KW)")
    n, c, h, w = x.shape
    oc, wc, kh, kw = weights.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input {c}, weights {wc}")
    if kh > config.rows:
        raise ValueError("filter taller than the array")
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if (h + 2 * pad - kh) // stride + 1 <= 0 or (w + 2 * pad - kw) // stride + 1 <= 0:
        raise ValueError("filter larger than input")

    out = conv2d_gemm(x, weights, stride=stride, pad=pad)
    stats = conv_rowstationary_stats(
        c, h + 2 * pad, w + 2 * pad, oc, kh, kw,
        stride=stride, config=config, batch=n,
    )
    return (out[0] if single else out), stats
