"""Reporting helpers: ASCII tables and plots.

Shared by the examples and the benchmark harness so every figure/table
of the paper can be regenerated as readable terminal output.
"""

from repro.analysis.tables import format_table, format_fig12_table, format_mapping_table
from repro.analysis.ascii_plot import ascii_curve, ascii_bars
from repro.analysis.report import build_report, write_report, ARTIFACT_ORDER
from repro.analysis.compare import CellError, table_errors, fidelity_summary

__all__ = [
    "format_table",
    "format_fig12_table",
    "format_mapping_table",
    "ascii_curve",
    "ascii_bars",
    "build_report",
    "write_report",
    "ARTIFACT_ORDER",
    "CellError",
    "table_errors",
    "fidelity_summary",
]
