"""Tests for the systolic array: PE, mappings, functional simulation."""

import numpy as np
import pytest

from repro.nn import modified_alexnet_spec
from repro.nn.layers import im2col
from repro.nn.specs import ConvSpec, FCSpec
from repro.systolic import (
    ArrayConfig,
    MappingType,
    PAPER_ARRAY,
    PEConfig,
    map_conv_layer,
    map_fc_layer,
    simulate_conv_rowstationary,
)

from pe_reference import ProcessingElement, simulate_conv


class TestPEConfig:
    def test_paper_values(self):
        pe = PEConfig()
        assert pe.rf_bytes == 4608  # 4.5 KB
        assert pe.n_macs == 8
        assert pe.n_comparators == 8
        assert pe.link_bits == 128
        assert pe.rf_words == 2304
        assert pe.words_per_link_beat == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            PEConfig(rf_bytes=0)
        with pytest.raises(ValueError):
            PEConfig(word_bits=12)


class TestProcessingElement:
    def test_row_conv_correct(self):
        pe = ProcessingElement()
        pe.load_filter_row(np.array([1.0, 2.0]))
        pe.load_input_row(np.array([1.0, 0.0, 1.0, 2.0]))
        out = pe.row_conv()
        assert np.allclose(out, [1.0, 2.0, 5.0])

    def test_row_conv_stride(self):
        pe = ProcessingElement()
        pe.load_filter_row(np.array([1.0, 1.0]))
        pe.load_input_row(np.arange(6, dtype=float))
        out = pe.row_conv(stride=2)
        assert np.allclose(out, [1.0, 5.0, 9.0])

    def test_cycle_accounting(self):
        pe = ProcessingElement()
        pe.load_filter_row(np.ones(3))
        pe.load_input_row(np.ones(10))
        pe.row_conv()
        assert pe.cycles == 8 * 3  # 8 outputs x 3 taps

    def test_rf_overflow(self):
        pe = ProcessingElement(PEConfig(rf_bytes=16))  # 8 words
        with pytest.raises(ValueError, match="RF overflow"):
            pe.load_input_row(np.ones(9))

    def test_psum_accumulation(self):
        pe = ProcessingElement()
        pe.accumulate(np.array([1.0, 2.0]))
        pe.accumulate(np.array([3.0, 4.0]))
        assert np.allclose(pe.psum, [4.0, 6.0])

    def test_psum_shape_mismatch(self):
        pe = ProcessingElement()
        pe.accumulate(np.ones(3))
        with pytest.raises(ValueError):
            pe.accumulate(np.ones(4))

    def test_relu_uses_comparators(self):
        pe = ProcessingElement()
        out = pe.relu(np.array([-1.0, 2.0, -3.0, 4.0]))
        assert np.allclose(out, [0.0, 2.0, 0.0, 4.0])
        assert pe.cycles == 1  # 4 values / 8 comparators rounds up to 1

    def test_row_conv_without_load_raises(self):
        with pytest.raises(RuntimeError):
            ProcessingElement().row_conv()


class TestArrayConfig:
    def test_paper_array(self):
        assert PAPER_ARRAY.total_pes == 1024
        assert PAPER_ARRAY.rows == PAPER_ARRAY.cols == 32
        assert PAPER_ARRAY.clock_hz == 1e9
        assert PAPER_ARRAY.words_per_stream_cycle == 8

    def test_seconds(self):
        assert PAPER_ARRAY.seconds(1e9) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            PAPER_ARRAY.seconds(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(rows=0)


class TestConvMappings:
    """Fig. 6 geometry for the paper's AlexNet."""

    @pytest.fixture(scope="class")
    def mappings(self):
        spec = modified_alexnet_spec()
        return {c.name: map_conv_layer(c) for c in spec.conv_layers}

    def test_conv1_type_i(self, mappings):
        m = mappings["CONV1"]
        assert m.mapping_type is MappingType.TYPE_I
        assert m.segments == 2          # 2 segments of 11 rows
        assert m.segment_rows == 11
        assert m.sets == 1
        assert m.filters_per_segment == 24  # "x24" in Fig. 6a
        assert m.active_pes == 704      # Fig. 12a

    def test_conv2_type_ii(self, mappings):
        m = mappings["CONV2"]
        assert m.mapping_type is MappingType.TYPE_II
        assert m.segments == 6          # 6 segments of 5x27
        assert m.segment_rows == 5
        assert m.cols_used == 27
        assert m.channel_split == 2     # input channels split in two
        assert m.active_pes == 960      # Fig. 12a

    @pytest.mark.parametrize("layer", ["CONV3", "CONV4", "CONV5"])
    def test_conv345_type_iii(self, mappings, layer):
        m = mappings[layer]
        assert m.mapping_type is MappingType.TYPE_III
        assert m.sets == 2              # 2 sets of segments
        assert m.segments == 10         # 10 segments of 3x13 per set
        assert m.segment_rows == 3
        assert m.cols_used == 13
        assert m.active_pes == 960      # Fig. 12a

    def test_conv1_row_passes(self, mappings):
        # 55 output rows over 32 columns -> 2 passes.
        assert mappings["CONV1"].row_passes == 2

    def test_total_passes_positive(self, mappings):
        for m in mappings.values():
            assert m.total_passes >= 1

    def test_ideal_cycles_scale_with_macs(self, mappings):
        assert mappings["CONV2"].ideal_cycles() > mappings["CONV1"].ideal_cycles()

    def test_filter_taller_than_array_rejected(self):
        spec = ConvSpec(
            "huge", in_height=64, in_width=64, in_channels=1, out_channels=1,
            kernel=33,
        )
        with pytest.raises(ValueError):
            map_conv_layer(spec)

    def test_non_paper_shape_uses_fallback(self):
        spec = ConvSpec(
            "custom", in_height=16, in_width=16, in_channels=1, out_channels=4,
            kernel=5, stride=1, pad=0,
        )
        m = map_conv_layer(spec)
        assert m.filters_per_segment >= 1
        assert m.active_pes <= 1024


class TestFCMappings:
    def test_fc1_active_pes(self, alexnet_spec):
        m = map_fc_layer(alexnet_spec.layer("FC1"))
        assert m.active_pes == 1024  # Fig. 12a

    def test_fc5_active_pes(self, alexnet_spec):
        m = map_fc_layer(alexnet_spec.layer("FC5"))
        assert m.active_pes == 160  # 32 rows x 5 outputs

    def test_stream_cycles_are_weight_bound(self, alexnet_spec):
        m = map_fc_layer(alexnet_spec.layer("FC1"))
        # 37.75M weights x 16 bit / 128 bit per cycle.
        assert m.stream_cycles() == pytest.approx(
            alexnet_spec.layer("FC1").weight_count * 16 / 128, rel=1e-6
        )

    def test_tiles(self):
        m = map_fc_layer(FCSpec("f", in_features=64, out_features=64))
        assert m.row_tiles == 2 and m.col_tiles == 2
        assert m.total_tiles == 4

    def test_fill_drain_positive(self):
        m = map_fc_layer(FCSpec("f", in_features=10, out_features=10))
        assert m.fill_drain_cycles() > 0


class TestFunctionalSimulation:
    def test_matches_im2col_reference(self, rng):
        x = rng.normal(size=(2, 10, 10))
        w = rng.normal(size=(3, 2, 3, 3))
        out, stats = simulate_conv_rowstationary(x, w)
        cols = im2col(x[None], 3, 3, 1, 0)
        ref = (w.reshape(3, -1) @ cols[0]).reshape(3, 8, 8)
        assert np.allclose(out, ref)
        assert stats.total_pe_cycles > 0

    def test_matches_reference_with_stride(self, rng):
        x = rng.normal(size=(1, 11, 11))
        w = rng.normal(size=(2, 1, 5, 5))
        out, _ = simulate_conv_rowstationary(x, w, stride=2)
        cols = im2col(x[None], 5, 5, 2, 0)
        ref = (w.reshape(2, -1) @ cols[0]).reshape(2, 4, 4)
        assert np.allclose(out, ref)

    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5)])
    def test_kernel_sizes(self, rng, kh, kw):
        x = rng.normal(size=(1, 9, 9))
        w = rng.normal(size=(1, 1, kh, kw))
        out, _ = simulate_conv_rowstationary(x, w)
        cols = im2col(x[None], kh, kw, 1, 0)
        ref = (w.reshape(1, -1) @ cols[0]).reshape(1, 9 - kh + 1, 9 - kw + 1)
        assert np.allclose(out, ref)

    def test_cycle_count_matches_mac_count(self, rng):
        x = rng.normal(size=(1, 6, 6))
        w = rng.normal(size=(1, 1, 3, 3))
        _, stats = simulate_conv_rowstationary(x, w)
        # Each output (4x4) takes kh rows x (ow x kw) MACs.
        assert stats.total_pe_cycles == 4 * 4 * 3 * 3

    def test_input_validation(self, rng):
        conv = simulate_conv_rowstationary
        with pytest.raises(ValueError):
            conv(rng.normal(size=(2, 4, 4)), rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv(rng.normal(size=(4, 4)), rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError):
            conv(rng.normal(size=(1, 2, 2)), rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError):
            simulate_conv(rng.normal(size=(1, 4, 4)),
                          rng.normal(size=(1, 1, 3, 3)), fidelity="warp")
        with pytest.raises(ValueError):
            conv(rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 1, 3, 3)),
                 pad=-1)

    @pytest.mark.parametrize("fidelity", ["fast", "pe"])
    def test_padded_conv_matches_reference(self, rng, fidelity):
        x = rng.normal(size=(2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = simulate_conv(x, w, pad=1, fidelity=fidelity)
        cols = im2col(x[None], 3, 3, 1, 1)
        ref = (w.reshape(3, -1) @ cols[0]).reshape(3, 7, 7)
        assert np.allclose(out, ref)

    def test_batch_matches_stacked_singles(self, rng):
        x = rng.normal(size=(3, 2, 8, 8))
        w = rng.normal(size=(4, 2, 3, 3))
        out, stats = simulate_conv_rowstationary(x, w)
        assert out.shape == (3, 4, 6, 6)
        singles = [simulate_conv_rowstationary(img, w) for img in x]
        assert np.allclose(out, np.stack([o for o, _ in singles]))
        # Counters scale linearly with the batch; occupancy does not.
        one = singles[0][1]
        assert stats.total_pe_cycles == 3 * one.total_pe_cycles
        assert stats.wavefront_cycles == 3 * one.wavefront_cycles
        assert stats.pes_used == one.pes_used


class TestWavefrontOccupancy:
    """Regression: partial passes charge per occupied wavefront.

    The drain charge used to be a flat ``kh + ow`` per column pass even
    when the final pass filled only part of the array; it is now
    ``kh + ow + occupied - 1`` (one cycle of stagger per additional
    occupied column).
    """

    @pytest.mark.parametrize("fidelity", ["fast", "pe"])
    def test_partial_final_pass_charges_less(self, rng, fidelity):
        # 4-column array, 6 output rows -> one full pass (4 columns
        # occupied) and one partial pass (2 columns occupied).
        config = ArrayConfig(rows=4, cols=4)
        x = rng.normal(size=(1, 8, 8))
        w = rng.normal(size=(2, 1, 3, 3))
        _, stats = simulate_conv(x, w, config=config, fidelity=fidelity)
        kh, ow = 3, 6
        expected_per_oc = (kh + ow + 4 - 1) + (kh + ow + 2 - 1)
        assert stats.wavefront_cycles == 2 * expected_per_oc

    @pytest.mark.parametrize("fidelity", ["fast", "pe"])
    def test_full_passes_only(self, rng, fidelity):
        config = ArrayConfig(rows=4, cols=4)
        x = rng.normal(size=(1, 6, 6))  # oh = 4 -> exactly one full pass
        w = rng.normal(size=(1, 1, 3, 3))
        _, stats = simulate_conv(x, w, config=config, fidelity=fidelity)
        assert stats.wavefront_cycles == 3 + 4 + 4 - 1
