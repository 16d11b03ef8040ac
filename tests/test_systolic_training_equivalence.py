"""Whole-network training step: fast path vs PE oracle vs closed form.

The training-step simulator chains the row-stationary conv forward, the
Section V.B GEMM conv backward and the Fig. 7/8 FC passes across a
network spec.  Its contracts, mirroring the forward fast path's
(``test_systolic_fast_equivalence.py``):

* integer cycle counters are *exactly* equal between the fast path,
  the loop-level PE/tile-schedule oracle and the closed-form
  ``training_step_stats`` over a randomized shape/stride/pad/batch
  grid (and the ``network_training_step_cost`` walk of a built
  ``Network`` produces the same numbers from the same geometry);
* the chained backward numerics match the float autograd and
  independent SciPy references;
* conv filter-row weight reuse makes training cycles per sample
  strictly decreasing in batch size (the Fig. 13 effect), matching the
  FC ``load_cycles`` regression.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn.alexnet import build_network, scaled_drone_net_spec
from repro.nn.specs import ConvSpec, FCSpec, NetworkSpec
from repro.rl import config_by_name
from repro.systolic import (
    ArrayConfig,
    conv_backward_gemm_stats,
    fc_backward_stats,
    fc_tile_stats,
    fc_weight_grad_stats,
    network_training_step_cost,
    training_step_stats,
)

from pe_reference import (
    conv_backward_gemm,
    simulate_conv,
    simulate_network_training_step,
)

scipy_signal = pytest.importorskip("scipy.signal")

# A small array makes multi-tile/partial-tile schedules common even at
# test-sized shapes.
SMALL_ARRAY = ArrayConfig(rows=6, cols=5)


def tiny_spec(c, h, w, oc, k, stride, pad, pool, fc1, fc2):
    """A conv + two-FC spec, or None when the geometry is degenerate."""
    try:
        conv = ConvSpec(
            "CONV1", in_height=h, in_width=w, in_channels=c,
            out_channels=oc, kernel=k, stride=stride, pad=pad,
            pool=pool, pool_stride=2,
        )
        flat = conv.pooled_height * conv.pooled_width * conv.out_channels
        if conv.out_height <= 0 or conv.out_width <= 0 or flat <= 0:
            return None
        return NetworkSpec(
            "tiny",
            (
                conv,
                FCSpec("FC1", in_features=flat, out_features=fc1),
                FCSpec("FC2", in_features=fc1, out_features=fc2),
            ),
            input_side=h,
            input_channels=c,
        )
    except ValueError:
        return None


class TestGridEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 2),
        oc=st.integers(1, 3),
        h=st.integers(5, 9),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        pool=st.sampled_from([None, 2]),
        fc1=st.integers(2, 9),
        batch=st.integers(1, 2),
        train_last_k=st.sampled_from([None, 1, 2]),
        seed=st.integers(0, 10_000),
    )
    def test_training_step_fast_equals_oracle_and_closed_form(
        self, c, oc, h, k, stride, pad, pool, fc1, batch, train_last_k, seed
    ):
        assume(h + 2 * pad >= k and k <= SMALL_ARRAY.rows)
        spec = tiny_spec(c, h, h, oc, k, stride, pad, pool, fc1, 3)
        assume(spec is not None)
        fast = simulate_network_training_step(
            spec, batch=batch, fidelity="fast", seed=seed,
            config=SMALL_ARRAY, train_last_k=train_last_k,
        )
        pe = simulate_network_training_step(
            spec, batch=batch, fidelity="pe", seed=seed,
            config=SMALL_ARRAY, train_last_k=train_last_k,
        )
        # Counters are exactly equal, layer for layer, field for field.
        assert fast.cost.counters == pe.cost.counters
        closed = training_step_stats(
            spec, batch=batch, config=SMALL_ARRAY, train_last_k=train_last_k
        )
        assert closed.counters == pe.cost.counters
        assert closed.total_cycles == fast.cost.total_cycles > 0
        # Outputs and every chained gradient agree to round-off.
        assert np.allclose(fast.output, pe.output, rtol=1e-10, atol=1e-10)
        assert fast.weight_grads.keys() == pe.weight_grads.keys()
        for name in fast.weight_grads:
            assert np.allclose(
                fast.weight_grads[name], pe.weight_grads[name],
                rtol=1e-9, atol=1e-9,
            ), name
            assert np.allclose(
                fast.bias_grads[name], pe.bias_grads[name],
                rtol=1e-9, atol=1e-9,
            ), name

    def test_network_walk_matches_spec_walk(self):
        """``network_training_step_cost`` (the backend's per-update
        charge) produces exactly the spec walk's counters for the same
        geometry and trainable boundary."""
        spec = scaled_drone_net_spec(input_side=16)
        network = build_network(spec, seed=0)
        for last_k in (None, 2, 4):
            boundary = network.trainable_boundary(last_k)
            from_network = network_training_step_cost(
                network, (1, 16, 16), batch=3, first_trainable=boundary
            )
            from_spec = training_step_stats(spec, batch=3, train_last_k=last_k)
            assert from_network.counters == from_spec.counters

    def test_frozen_prefix_charges_forward_only(self):
        spec = scaled_drone_net_spec(input_side=16)
        step = training_step_stats(spec, batch=2, train_last_k=2)
        frozen = [l for l in step.layers if not l.trainable]
        trainable = [l for l in step.layers if l.trainable]
        assert [l.name for l in trainable] == ["FC4", "FC5"]
        for layer in frozen:
            assert layer.forward_cycles > 0
            assert layer.dw_cycles == layer.dx_cycles == 0
            assert layer.weight_elements == 0
        for layer in trainable:
            assert layer.dw_cycles > 0 and layer.dx_cycles > 0
            assert layer.weight_elements > 0
        # E2E strictly dominates the partial step.
        e2e = training_step_stats(spec, batch=2)
        assert e2e.total_cycles > step.total_cycles
        assert e2e.total_forward_cycles == step.total_forward_cycles

    def test_closed_form_backward_helpers(self):
        """The per-layer helpers decompose as documented."""
        dx = fc_backward_stats(10, 7, SMALL_ARRAY, batch=3)
        assert dx == fc_tile_stats(10, 7, SMALL_ARRAY, batch=3)
        dw = fc_weight_grad_stats(10, 7, SMALL_ARRAY, batch=3)
        # dW streams the 10 activation columns through (3 x 7) tiles.
        assert dw == fc_tile_stats(3, 7, SMALL_ARRAY, batch=10)
        bwd = conv_backward_gemm_stats(
            2, 6, 6, 3, 3, 3, stride=1, pad=1, config=SMALL_ARRAY, batch=2
        )
        positions = 6 * 6
        f_dim = 2 * 3 * 3
        assert bwd.expansion_elements == 2 * f_dim * positions
        assert bwd.dx == fc_tile_stats(
            f_dim, 3, SMALL_ARRAY, batch=2 * positions
        )
        assert bwd.dw == fc_tile_stats(
            2 * positions, 3, SMALL_ARRAY, batch=f_dim
        )
        # MACs of each GEMM equal the analytic conv-backward count.
        ref = conv_backward_gemm(
            np.zeros((2, 2, 6, 6)), np.zeros((3, 2, 3, 3)),
            np.zeros((2, 3, 6, 6)), stride=1, pad=1,
        )
        assert bwd.dw.mac_cycles == ref.dw_macs
        assert bwd.dx.mac_cycles == ref.dx_macs
        assert bwd.expansion_elements == ref.expansion_elements


class TestChainedBackwardNumerics:
    def test_matches_float_autograd(self):
        """The simulated training step's gradients are the float
        autograd's, layer for layer, when run over the same weights."""
        spec = scaled_drone_net_spec(input_side=16)
        network = build_network(spec, seed=3)
        result = simulate_network_training_step(
            spec, batch=3, fidelity="fast", seed=7, network=network
        )
        out = network.forward(result.input_batch, training=True)
        assert np.allclose(out, result.output, rtol=1e-9, atol=1e-9)
        network.zero_grad()
        network.backward(result.loss_grad)
        for _index, layer in network.parametric_layers():
            assert np.allclose(
                layer.weight.grad, result.weight_grads[layer.name],
                rtol=1e-8, atol=1e-10,
            ), layer.name
            assert np.allclose(
                layer.bias.grad, result.bias_grads[layer.name],
                rtol=1e-8, atol=1e-10,
            ), layer.name

    def test_partial_backprop_matches_agent_boundary(self):
        """train_last_k freezes exactly the layers the agent's partial
        backpropagation freezes: frozen parameters see zero gradient."""
        spec = scaled_drone_net_spec(input_side=16)
        network = build_network(spec, seed=1)
        boundary = config_by_name("L3").first_trainable_layer(network)
        result = simulate_network_training_step(
            spec, batch=2, fidelity="fast", seed=5,
            train_last_k=3, network=network,
        )
        assert set(result.weight_grads) == {"FC3", "FC4", "FC5"}
        network.zero_grad()
        network.forward(result.input_batch, training=True)
        network.backward(result.loss_grad, first_trainable=boundary)
        for _index, layer in network.parametric_layers():
            if layer.name in result.weight_grads:
                assert np.allclose(
                    layer.weight.grad, result.weight_grads[layer.name],
                    rtol=1e-8, atol=1e-10,
                )
            else:
                assert not np.any(layer.weight.grad)

    def test_conv_weight_grad_matches_scipy(self):
        """The step's own conv dW equals the SciPy correlation identity
        dW[oc, c] = corr(x[c], dout[oc]) (stride 1) on the input the
        step ran and the upstream gradient that reached the conv."""
        c, oc, side, k = 2, 3, 7, 3
        spec = NetworkSpec(
            "conv-only-ish",
            (
                ConvSpec("CONV1", in_height=side, in_width=side,
                         in_channels=c, out_channels=oc, kernel=k),
                FCSpec("FC1", in_features=oc * (side - k + 1) ** 2,
                       out_features=4),
            ),
            input_side=side, input_channels=c,
        )
        result = simulate_network_training_step(
            spec, batch=1, fidelity="fast", seed=11
        )
        x = result.input_batch
        dout = result.upstream_grads["CONV1"]
        assert dout.shape == (1, oc, side - k + 1, side - k + 1)
        assert np.any(dout)
        dw = result.weight_grads["CONV1"]
        for o in range(oc):
            for ch in range(c):
                expected = scipy_signal.correlate2d(
                    x[0, ch], dout[0, o], mode="valid"
                )
                np.testing.assert_allclose(
                    dw[o, ch], expected, rtol=1e-12, atol=1e-14
                )

    def test_chained_conv_grads_match_gemm_backward(self):
        """The tile-scheduled conv backward inside the simulator equals
        the independently-validated conv_backward_gemm on the operands
        the chain produced (weights from the shared network)."""
        spec = NetworkSpec(
            "one-conv",
            (
                ConvSpec("CONV1", in_height=8, in_width=8, in_channels=2,
                         out_channels=3, kernel=3, stride=2, pad=1),
                FCSpec("FC1", in_features=3 * 4 * 4, out_features=5),
            ),
            input_side=8, input_channels=2,
        )
        network = build_network(spec, seed=2)
        result = simulate_network_training_step(
            spec, batch=2, fidelity="fast", seed=9, network=network
        )
        # Recompute the conv layer's upstream gradient with autograd,
        # then feed the same operands to conv_backward_gemm.
        network.zero_grad()
        network.forward(result.input_batch, training=True)
        network.backward(result.loss_grad)
        conv = network.layers[0]
        ref_dw = conv.weight.grad
        assert np.allclose(
            result.weight_grads["CONV1"], ref_dw, rtol=1e-8, atol=1e-10
        )
        assert result.input_grad is not None
        assert result.input_grad.shape == result.input_batch.shape


class TestConvWeightReuseRegression:
    def test_training_cycles_per_sample_strictly_decreasing_in_batch(self):
        """The Fig. 13 effect, now on the whole training step: conv
        filter rows and FC tiles stay resident across the batch, so
        cycles per sample strictly decrease as the batch grows."""
        spec = scaled_drone_net_spec(input_side=16)
        previous = None
        for batch in (1, 2, 4, 8, 16):
            step = training_step_stats(spec, batch=batch)
            per_sample = step.cycles_per_sample
            if previous is not None:
                assert per_sample < previous, batch
            previous = per_sample

    def test_conv_forward_loads_charged_once_per_batch(self):
        """Per-layer view: conv forward loads do not scale with batch,
        while MAC and wavefront cycles scale exactly linearly."""
        from repro.systolic import conv_rowstationary_stats

        one = conv_rowstationary_stats(2, 10, 10, 4, 3, 3, batch=1)
        eight = conv_rowstationary_stats(2, 10, 10, 4, 3, 3, batch=8)
        assert eight.load_cycles == one.load_cycles > 0
        assert eight.total_pe_cycles == 8 * one.total_pe_cycles
        assert eight.wavefront_cycles == 8 * one.wavefront_cycles
        assert eight.total_cycles < 8 * one.total_cycles

    @pytest.mark.parametrize("fidelity", ["fast", "pe"])
    def test_conv_load_cycles_match_oracle(self, fidelity):
        """The PE oracle's load counter equals the closed form: one
        broadside cycle per filter row per channel per column pass."""
        from repro.systolic import conv_rowstationary_stats

        rng = np.random.default_rng(0)
        config = ArrayConfig(rows=4, cols=4)
        x = rng.normal(size=(3, 2, 8, 8))
        w = rng.normal(size=(2, 2, 3, 3))
        _, stats = simulate_conv(x, w, config=config, fidelity=fidelity)
        # oh = 6 on a 4-column array -> 2 passes; 2 oc x 2 ch x 3 rows.
        assert stats.load_cycles == 2 * 2 * 2 * 3
        closed = conv_rowstationary_stats(
            2, 8, 8, 2, 3, 3, config=config, batch=3
        )
        assert closed == stats


class TestValidation:
    def test_bad_arguments_rejected(self):
        spec = scaled_drone_net_spec(input_side=16)
        with pytest.raises(ValueError, match="batch"):
            training_step_stats(spec, batch=0)
        with pytest.raises(ValueError, match="fidelity"):
            simulate_network_training_step(spec, batch=1, fidelity="warp")
        with pytest.raises(ValueError, match="train_last_k"):
            training_step_stats(spec, batch=1, train_last_k=0)
        network = build_network(spec, seed=0)
        with pytest.raises(ValueError, match="state_shape"):
            network_training_step_cost(network, (16, 16), batch=1)
        with pytest.raises(ValueError, match="batch"):
            network_training_step_cost(network, (1, 16, 16), batch=0)
