"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
asserts its shape properties, and writes the regenerated artifact to
the ``results_dir`` fixture's directory.  A plain test run writes to a
session temp directory and leaves the committed artifacts under
``benchmarks/results/`` untouched; recording them is an explicit step:

    BENCH_RESULTS_DIR=benchmarks/results PYTHONPATH=src \
        python -m pytest benchmarks/test_<one>.py -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# The fast-vs-oracle timers live with the test-only PE oracle in
# ``tests/pe_reference.py``; make it importable when ``benchmarks/``
# runs on its own.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.core import paper_platform
from repro.nn import modified_alexnet_spec
from repro.perf import LayerCostModel
from repro.rl import config_by_name


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Directory collecting regenerated figures/tables.

    The path named by ``BENCH_RESULTS_DIR`` when it is set (created if
    missing), otherwise a fresh session temp directory.
    """
    path = os.environ.get("BENCH_RESULTS_DIR")
    if not path:
        return tmp_path_factory.mktemp("results")
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def spec():
    """Paper-scale modified AlexNet."""
    return modified_alexnet_spec()


@pytest.fixture(scope="session")
def platform():
    """The paper's platform (30 MB SRAM design point)."""
    return paper_platform()


@pytest.fixture(scope="session")
def cost_models(spec):
    """Layer cost models for all four topologies."""
    return {
        name: LayerCostModel(spec, config_by_name(name))
        for name in ("L2", "L3", "L4", "E2E")
    }


def save_artifact(results_dir: Path, name: str, content: str) -> None:
    """Persist one regenerated table/figure as text."""
    (results_dir / name).write_text(content + "\n")
