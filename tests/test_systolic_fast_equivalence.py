"""Fast path vs PE-loop oracle: outputs agree, cycle counters identical.

The vectorised systolic fast path (im2col + GEMM numerics, closed-form
cycle accounting) must be indistinguishable from the loop-level
ProcessingElement oracle (``tests/pe_reference.py``) over a randomized shape/stride/padding grid:

* conv outputs within float64 round-off (different BLAS summation
  orders), cycle statistics *exactly* equal as integers;
* FC forward/backward outputs within round-off, tile/MAC/drain counters
  exactly equal;
* the closed-form helpers in ``repro.systolic.cycles`` equal the
  counters the oracle accumulates, field for field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.systolic import ArrayConfig, conv_rowstationary_stats, fc_tile_stats

from pe_reference import fc_backward_transposed, fc_forward, simulate_conv

# A small array makes multi-pass/partial-pass schedules common even at
# test-sized shapes.
SMALL_ARRAY = ArrayConfig(rows=6, cols=5)


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(1, 3),
    oc=st.integers(1, 4),
    h=st.integers(4, 12),
    w=st.integers(4, 12),
    kh=st.integers(1, 4),
    kw=st.integers(1, 4),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    seed=st.integers(0, 10_000),
)
def test_conv_fast_equals_pe_oracle(c, oc, h, w, kh, kw, stride, pad, seed):
    if h + 2 * pad < kh or w + 2 * pad < kw or kh > SMALL_ARRAY.rows:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c, h, w))
    weights = rng.normal(size=(oc, c, kh, kw))
    fast_out, fast_stats = simulate_conv(
        x, weights, stride=stride, pad=pad, config=SMALL_ARRAY, fidelity="fast"
    )
    pe_out, pe_stats = simulate_conv(
        x, weights, stride=stride, pad=pad, config=SMALL_ARRAY, fidelity="pe"
    )
    assert np.allclose(fast_out, pe_out, rtol=1e-10, atol=1e-10)
    # Closed-form accounting is exactly the oracle's loop charging.
    assert fast_stats == pe_stats
    closed = conv_rowstationary_stats(
        c, h + 2 * pad, w + 2 * pad, oc, kh, kw,
        stride=stride, config=SMALL_ARRAY,
    )
    assert closed == pe_stats


@settings(max_examples=40, deadline=None)
@given(
    in_f=st.integers(1, 40),
    out_f=st.integers(1, 40),
    batch=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_fc_fast_equals_pe_oracle(in_f, out_f, batch, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(in_f, out_f))
    v_fwd = rng.normal(size=(batch, in_f))
    v_bwd = rng.normal(size=(batch, out_f))
    for simulate, vec in (
        (fc_forward, v_fwd),
        (fc_backward_transposed, v_bwd),
    ):
        fast = simulate(vec, m, array=SMALL_ARRAY, fidelity="fast")
        oracle = simulate(vec, m, array=SMALL_ARRAY, fidelity="pe")
        assert np.allclose(fast.output, oracle.output, rtol=1e-10, atol=1e-10)
        assert (fast.tiles, fast.mac_cycles, fast.drain_cycles, fast.load_cycles) == (
            oracle.tiles, oracle.mac_cycles, oracle.drain_cycles, oracle.load_cycles,
        )
    closed = fc_tile_stats(in_f, out_f, SMALL_ARRAY, batch=batch)
    assert (closed.tiles, closed.mac_cycles, closed.drain_cycles, closed.load_cycles) == (
        oracle.tiles, oracle.mac_cycles, oracle.drain_cycles, oracle.load_cycles,
    )


@pytest.mark.parametrize(
    "c,h,w,oc,kernel,stride,pad",
    [
        (3, 32, 32, 16, 3, 1, 0),   # the benchmark layer
        (1, 16, 16, 2, 5, 2, 2),    # strided + padded
        (2, 9, 9, 3, 3, 3, 1),      # stride > kernel overlap
    ],
)
def test_known_geometries_batch(c, h, w, oc, kernel, stride, pad):
    """Batched fast path == per-image oracle, cycles N x single image."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, c, h, w))
    weights = rng.normal(size=(oc, c, kernel, kernel))
    fast_out, fast_stats = simulate_conv(
        x, weights, stride=stride, pad=pad, fidelity="fast"
    )
    pe_out, pe_stats = simulate_conv(
        x, weights, stride=stride, pad=pad, fidelity="pe"
    )
    assert np.allclose(fast_out, pe_out, rtol=1e-10, atol=1e-10)
    assert fast_stats == pe_stats
