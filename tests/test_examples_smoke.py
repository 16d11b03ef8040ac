"""Smoke tests: the fast examples must run end to end.

The slower RL examples (indoor/outdoor navigation, robustness) are
exercised indirectly by the integration tests and benchmarks; here we
execute the quick ones exactly as a user would.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestFastExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Memory mapping" in out
        assert "L3" in out and "E2E" in out
        assert "lower energy per frame" in out

    def test_hardware_design_space(self, capsys):
        out = run_example("hardware_design_space.py", capsys)
        assert "Batch-size sweep" in out
        assert "feasible topologies" in out
        assert "STT-MRAM" in out

    def test_realtime_feasibility(self, capsys):
        out = run_example("realtime_feasibility.py", capsys)
        assert "Real-time?" in out
        assert "NO" in out      # E2E fails
        assert "yes" in out     # TL topologies pass

    def test_quantization_study(self, capsys):
        out = run_example("quantization_study.py", capsys)
        rows = [line.split("|") for line in out.splitlines() if line.count("|") == 4]
        rows = rows[1:]  # drop the header row
        assert len(rows) == 4
        bits = [int(row[1]) for row in rows]
        agreement = [float(row[4]) for row in rows]
        assert bits == sorted(bits)
        assert agreement == sorted(agreement)
        assert bits[-1] == 16 and agreement[-1] >= 99.0

    @pytest.mark.parametrize(
        "name",
        [
            "indoor_navigation.py",
            "outdoor_navigation.py",
            "robustness_study.py",
        ],
    )
    def test_slow_examples_importable(self, name):
        """The RL-heavy examples must at least parse and expose main()."""
        path = EXAMPLES_DIR / name
        spec = importlib.util.spec_from_file_location("probe_" + name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
