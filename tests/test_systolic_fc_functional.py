"""Tests for the functional FC dataflow simulations (Figs. 7 and 8)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.systolic import (
    fc_tile_stats,
    simulate_fc_backward_transposed,
    simulate_fc_forward,
)
from repro.systolic.array import ArrayConfig

from pe_reference import fc_backward_transposed, fc_forward


class TestForward:
    def test_matches_matmul(self, rng):
        v = rng.normal(size=40)
        m = rng.normal(size=(40, 70))
        result = simulate_fc_forward(v, m)
        assert np.allclose(result.output, v @ m)

    def test_single_tile(self, rng):
        v = rng.normal(size=8)
        m = rng.normal(size=(8, 8))
        result = simulate_fc_forward(v, m)
        assert result.tiles == 1
        assert np.allclose(result.output, v @ m)

    def test_tile_count(self, rng):
        v = rng.normal(size=64)
        m = rng.normal(size=(64, 96))
        result = simulate_fc_forward(v, m)
        assert result.tiles == 2 * 3  # 64/32 x 96/32

    def test_mac_cycles_equal_matrix_size(self, rng):
        v = rng.normal(size=50)
        m = rng.normal(size=(50, 20))
        result = simulate_fc_forward(v, m)
        assert result.mac_cycles == 50 * 20
        assert result.total_cycles > result.mac_cycles

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_fc_forward(rng.normal(size=5), rng.normal(size=(6, 4)))
        with pytest.raises(ValueError):  # 3-D input is not a vector batch
            simulate_fc_forward(rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            fc_forward(rng.normal(size=8), rng.normal(size=(8, 8)),
                       fidelity="warp")

    def test_batch_matches_stacked_singles(self, rng):
        vs = rng.normal(size=(4, 12))
        m = rng.normal(size=(12, 9))
        batched = simulate_fc_forward(vs, m)
        singles = [simulate_fc_forward(v, m) for v in vs]
        assert batched.output.shape == (4, 9)
        assert np.allclose(batched.output, np.stack([s.output for s in singles]))
        # MAC/drain counters scale linearly with the batch; weight tiles
        # stay resident, so tile loads are charged once, not per sample.
        assert batched.mac_cycles == sum(s.mac_cycles for s in singles)
        assert batched.drain_cycles == sum(s.drain_cycles for s in singles)
        assert batched.tiles == singles[0].tiles
        assert batched.load_cycles == singles[0].load_cycles

    def test_weight_reuse_cycles_per_sample_strictly_decreasing(self):
        """Fig. 13 fps-vs-batch trend: amortising the tile loads across
        a batch makes cycles/sample strictly decrease with batch size."""
        per_sample = [
            fc_tile_stats(96, 64, batch=b).total_cycles / b
            for b in (1, 2, 4, 8, 16)
        ]
        assert all(a > b for a, b in zip(per_sample, per_sample[1:]))
        # The amortised component is exactly the (constant) load cost.
        s1, s16 = fc_tile_stats(96, 64, batch=1), fc_tile_stats(96, 64, batch=16)
        assert s1.load_cycles == s16.load_cycles > 0
        assert s16.mac_cycles == 16 * s1.mac_cycles
        assert s16.drain_cycles == 16 * s1.drain_cycles

    def test_fast_matches_pe_oracle(self, rng):
        v = rng.normal(size=50)
        m = rng.normal(size=(50, 40))
        fast = fc_forward(v, m, fidelity="fast")
        oracle = fc_forward(v, m, fidelity="pe")
        assert np.allclose(fast.output, oracle.output)
        assert (fast.tiles, fast.mac_cycles, fast.drain_cycles, fast.load_cycles) == (
            oracle.tiles, oracle.mac_cycles, oracle.drain_cycles, oracle.load_cycles,
        )


class TestBackwardTransposed:
    def test_matches_transposed_matmul(self, rng):
        """Fig. 8's point: v @ W.T without transposing W."""
        v = rng.normal(size=70)
        m = rng.normal(size=(40, 70))
        result = simulate_fc_backward_transposed(v, m)
        assert np.allclose(result.output, v @ m.T)

    def test_roundtrip_forward_backward(self, rng):
        """Forward then transposed-backward with a one-hot gradient
        recovers the corresponding matrix column/row structure."""
        m = rng.normal(size=(6, 9))
        grad = np.zeros(9)
        grad[3] = 1.0
        back = simulate_fc_backward_transposed(grad, m)
        assert np.allclose(back.output, m[:, 3])

    def test_small_array_config(self, rng):
        array = ArrayConfig(rows=4, cols=4)
        v = rng.normal(size=10)
        m = rng.normal(size=(7, 10))
        result = simulate_fc_backward_transposed(v, m, array=array)
        assert np.allclose(result.output, v @ m.T)
        assert result.tiles == 2 * 3  # ceil(7/4) x ceil(10/4)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_fc_backward_transposed(
                rng.normal(size=5), rng.normal(size=(5, 4))
            )

    def test_batch_and_oracle_agree(self, rng):
        vs = rng.normal(size=(3, 10))
        m = rng.normal(size=(7, 10))
        fast = simulate_fc_backward_transposed(vs, m)
        oracle = fc_backward_transposed(vs, m, fidelity="pe")
        assert fast.output.shape == (3, 7)
        assert np.allclose(fast.output, vs @ m.T)
        assert np.allclose(fast.output, oracle.output)
        assert (fast.tiles, fast.mac_cycles, fast.drain_cycles, fast.load_cycles) == (
            oracle.tiles, oracle.mac_cycles, oracle.drain_cycles, oracle.load_cycles,
        )


@settings(max_examples=30)
@given(
    in_f=st.integers(1, 80),
    out_f=st.integers(1, 80),
    seed=st.integers(0, 999),
)
def test_forward_backward_agree_with_numpy(in_f, out_f, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(in_f, out_f))
    v_in = rng.normal(size=in_f)
    v_out = rng.normal(size=out_f)
    fwd = simulate_fc_forward(v_in, m)
    bwd = simulate_fc_backward_transposed(v_out, m)
    assert np.allclose(fwd.output, v_in @ m)
    assert np.allclose(bwd.output, v_out @ m.T)
    # Both directions stream exactly the matrix once.
    assert fwd.mac_cycles == bwd.mac_cycles == m.size
