"""Property-based tests (hypothesis) on cross-cutting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env.fps import max_safe_velocity, min_fps_for_collision_avoidance
from repro.env.reward import RewardConfig, compute_reward
from repro.memory.devices import MemoryDevice
from repro.memory.technology import STT_MRAM
from repro.nn.layers import Dense, col2im, im2col
from repro.nn.specs import ConvSpec, FCSpec
from repro.rl.metrics import MovingAverage
from repro.systolic.conv_mapping import map_conv_layer
from repro.systolic.fc_mapping import map_fc_layer


@settings(max_examples=40)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(4, 10),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
    seed=st.integers(0, 100),
)
def test_im2col_col2im_adjoint(n, c, size, kernel, stride, pad, seed):
    """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.

    This is exactly the property convolution backprop relies on.
    """
    if size + 2 * pad < kernel:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, size, size))
    cols = im2col(x, kernel, kernel, stride, pad)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel, kernel, stride, pad)))
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=30)
@given(
    h=st.integers(2, 16),
    w=st.integers(2, 16),
    fill=st.floats(0.0, 1.0),
    frac=st.floats(0.1, 1.0),
)
def test_center_reward_bounded_by_image_extremes(h, w, fill, frac):
    rng = np.random.default_rng(int(fill * 1e6) % 7919)
    img = np.clip(rng.normal(fill, 0.2, size=(h, w)), 0.0, 1.0)
    r = compute_reward(img, RewardConfig(window_fraction=frac))
    assert img.min() - 1e-12 <= r <= img.max() + 1e-12


@settings(max_examples=50)
@given(
    v=st.floats(0.1, 50.0),
    d_min=st.floats(0.1, 10.0),
)
def test_fps_velocity_inverse_roundtrip(v, d_min):
    fps = min_fps_for_collision_avoidance(v, d_min)
    assert max_safe_velocity(fps, d_min) == pytest.approx(v, rel=1e-9)


@settings(max_examples=50)
@given(
    window=st.integers(1, 20),
    values=st.lists(st.floats(-100, 100), min_size=1, max_size=60),
)
def test_moving_average_bounded_by_window_extremes(window, values):
    avg = MovingAverage(window)
    for i, v in enumerate(values):
        got = avg.add(v)
        tail = values[max(0, i - window + 1) : i + 1]
        assert min(tail) - 1e-9 <= got <= max(tail) + 1e-9


@settings(max_examples=40)
@given(
    in_f=st.integers(1, 500),
    out_f=st.integers(1, 500),
)
def test_fc_mapping_invariants(in_f, out_f):
    spec = FCSpec("f", in_features=in_f, out_features=out_f)
    m = map_fc_layer(spec)
    assert m.total_tiles >= 1
    assert 0 < m.active_pes <= 1024
    # Streaming cycles must cover the weight matrix at 8 words/cycle.
    assert m.stream_cycles() >= spec.weight_count * 16 // 128


@settings(max_examples=40)
@given(
    size=st.integers(8, 64),
    in_ch=st.integers(1, 64),
    out_ch=st.integers(1, 128),
    kernel=st.sampled_from([1, 3, 5, 7, 11]),
    stride=st.integers(1, 4),
)
def test_conv_mapping_invariants(size, in_ch, out_ch, kernel, stride):
    if kernel > size or kernel > 32:
        return
    spec = ConvSpec(
        "c", in_height=size, in_width=size, in_channels=in_ch,
        out_channels=out_ch, kernel=kernel, stride=stride, pad=0,
    )
    if spec.out_height <= 0 or spec.out_width <= 0:
        return
    m = map_conv_layer(spec)
    assert 1 <= m.filters_per_segment <= out_ch
    assert 0 < m.active_pes <= 1024
    assert 0 < m.compute_pes
    assert m.total_passes >= 1
    # Work conservation: passes x per-pass channel coverage >= out_ch.
    assert m.channel_passes * m.output_channels_per_pass >= out_ch
    assert m.ideal_cycles() >= spec.macs // 1024


@settings(max_examples=40)
@given(bits=st.integers(0, 10**9))
def test_memory_device_latency_monotone_in_bits(bits):
    dev = MemoryDevice("d", STT_MRAM, 10**9, read_bandwidth_bps=1e9)
    smaller = dev.read(bits).latency_s
    larger = dev.read(bits + 1024).latency_s
    assert larger > smaller
    assert smaller >= STT_MRAM.read_latency_s


@settings(max_examples=30)
@given(
    in_f=st.integers(1, 64),
    out_f=st.integers(1, 64),
    batch=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_dense_backward_shapes_always_match(in_f, out_f, batch, seed):
    rng = np.random.default_rng(seed)
    layer = Dense(in_f, out_f, rng=rng)
    x = rng.normal(size=(batch, in_f))
    out = layer.forward(x, training=True)
    dx = layer.backward(np.ones_like(out))
    assert dx.shape == x.shape
    assert layer.weight.grad.shape == layer.weight.value.shape


@settings(max_examples=30)
@given(
    weights=st.integers(1, 10**7),
    st_bits=st.sampled_from([8, 16, 32]),
)
def test_spec_weight_bytes_consistent(weights, st_bits):
    # total_weight_bytes must equal weights * bits / 8 for any layer mix.
    spec_layer = FCSpec("f", in_features=weights, out_features=1)
    from repro.nn.specs import NetworkSpec

    net = NetworkSpec("n", (spec_layer,), weight_bits=st_bits)
    assert net.total_weight_bytes == net.total_weights * st_bits // 8
