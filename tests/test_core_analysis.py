"""Tests for the CoDesign API, presets and the analysis helpers."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_bars,
    ascii_curve,
    format_fig12_table,
    format_mapping_table,
    format_table,
)
from repro.core import CoDesign, paper_platform, paper_system_parameters
from repro.nn import modified_alexnet_spec
from repro.perf import PAPER_FIG12_FORWARD
from repro.rl import config_by_name
from repro.systolic import map_conv_layer


class TestPresets:
    def test_paper_platform_memories(self):
        platform = paper_platform()
        summary = platform.memory_summary()
        assert summary["buffer_mb"] == pytest.approx(30.0)
        assert summary["scratchpad_mb"] == pytest.approx(4.2)
        assert summary["nvm_mb"] == pytest.approx(128.0)

    def test_paper_platform_validation(self):
        with pytest.raises(ValueError):
            paper_platform(buffer_mb=2.0)
        with pytest.raises(ValueError):
            paper_platform(nvm_mb=0.0)

    def test_fig4b_parameters(self):
        params = paper_system_parameters()
        assert params.num_pes == 1024
        assert params.pe_grid == (32, 32)
        assert params.global_buffer_mb == 30.0
        assert params.scratchpad_mb == 4.2
        assert params.register_file_per_pe_kb == 4.5
        assert params.operating_voltage_v == 0.8
        assert params.clock_hz == 1e9
        assert params.arithmetic_precision_bits == 16
        assert params.pe_link_bits == 128
        assert params.nvm_ios == 1024
        assert params.nvm_io_gbps == 2.0
        assert params.peak_throughput_tops_per_w == 1.5
        assert params.technology == "NanGate 15nm FreePDK"

    def test_reset_counters(self):
        platform = paper_platform()
        platform.nvm.read(1000)
        platform.reset_counters()
        assert platform.nvm.counters.total_bits == 0


class TestCoDesign:
    def test_accepts_config_name(self, platform):
        cd = CoDesign("L3", platform=platform)
        assert cd.config.name == "L3"

    def test_l3_fits_paper_platform(self, platform):
        cd = CoDesign("L3", platform=platform)
        assert cd.mapping.sram_total_mb < 30.0

    def test_l4_rejected_on_paper_buffer(self, platform):
        with pytest.raises(ValueError, match="SRAM demand"):
            CoDesign("L4", platform=platform)

    def test_l4_fits_bigger_buffer(self):
        cd = CoDesign("L4", platform=paper_platform(buffer_mb=65.0))
        assert cd.mapping.sram_total_mb < 65.0

    def test_strict_false_skips_validation(self, platform):
        cd = CoDesign("L4", platform=platform, strict=False)
        assert cd.mapping.sram_total_mb > 30.0

    def test_evaluate_hardware_fields(self, platform):
        hw = CoDesign("L3", platform=platform).evaluate_hardware(batch_size=4)
        assert hw.config_name == "L3"
        assert hw.batch_size == 4
        assert hw.fps > 0
        assert hw.energy_per_frame_mj > 0
        assert set(hw.max_velocities) == {
            "Indoor 1", "Indoor 2", "Indoor 3",
            "Outdoor 1", "Outdoor 2", "Outdoor 3",
        }

    def test_velocity_scales_with_dmin(self, platform):
        hw = CoDesign("L3", platform=platform).evaluate_hardware(4)
        assert hw.max_velocities["Outdoor 3"] > hw.max_velocities["Indoor 1"]

    def test_layer_costs_directions(self, platform):
        costs = CoDesign("L2", platform=platform).layer_costs()
        assert len(costs["forward"]) == 10
        assert len(costs["backward"]) == 2

    def test_l3_faster_than_e2e(self, platform):
        l3 = CoDesign("L3", platform=platform).evaluate_hardware(4)
        e2e = CoDesign("E2E", platform=platform).evaluate_hardware(4)
        assert l3.fps > 4 * e2e.fps
        assert l3.energy_per_frame_mj < e2e.energy_per_frame_mj


class TestAnalysis:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_fig12_with_paper(self, platform):
        costs = CoDesign("E2E", platform=platform).cost_model.forward_costs()
        out = format_fig12_table(costs, PAPER_FIG12_FORWARD)
        assert "CONV1" in out and "total" in out and "paper" in out

    def test_format_fig12_without_paper(self, platform):
        costs = CoDesign("E2E", platform=platform).cost_model.forward_costs()
        out = format_fig12_table(costs)
        assert "Energy (mJ)" in out

    def test_format_mapping_table(self):
        spec = modified_alexnet_spec()
        out = format_mapping_table([map_conv_layer(c) for c in spec.conv_layers])
        assert "CONV1" in out and "Type" in out

    def test_ascii_curve(self):
        out = ascii_curve(np.linspace(0, 1, 100).tolist(), title="ramp")
        assert "ramp" in out
        assert "*" in out

    def test_ascii_curve_handles_nans(self):
        values = [float("nan")] * 5 + [1.0, 2.0, 3.0]
        assert "*" in ascii_curve(values)

    def test_ascii_curve_too_small(self):
        with pytest.raises(ValueError):
            ascii_curve([1.0, 2.0, 3.0], width=2)

    def test_ascii_bars(self):
        out = ascii_bars(["L2", "E2E"], [10.0, 2.0], unit=" fps")
        assert "L2" in out and "fps" in out

    def test_ascii_bars_validation(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bars(["a"], [0.0])
