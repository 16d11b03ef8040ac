"""Systolic fast path throughput: vectorized GEMM path vs PE-loop oracle.

Two measurements:

* **fast vs oracle** — the benchmark layer (3x32x32 input, 16 filters
  3x3) through ``simulate_conv_rowstationary`` and through the
  loop-level PE oracle (``tests/pe_reference.py``).  The harness
  re-verifies on every run that outputs agree and cycle
  counters are *identical*, then pins the speedup floor (>=50x on
  dedicated hardware; contended CI runners can relax it via
  ``SYSTOLIC_SPEEDUP_FLOOR``).
* **paper-scale AlexNet forward** — the full modified AlexNet through
  the functional simulators, something the per-PE loop could never
  finish.  Asserts it completes with the exact analytic MAC count.

Artifacts: ``systolic_throughput.txt`` (human-readable table) and
``BENCH_systolic.json`` (machine-readable steps/s, speedup, shape) for
trajectory tracking.
"""

import os

from _artifacts import write_artifacts
from pe_reference import bench_conv_fast_vs_pe
from repro.analysis import format_table
from repro.systolic import simulate_network_forward
from repro.systolic.bench import bench_payload

SPEEDUP_FLOOR = float(os.environ.get("SYSTOLIC_SPEEDUP_FLOOR", "50.0"))


def test_systolic_throughput(benchmark, results_dir, spec):
    result, forward = benchmark.pedantic(
        lambda: (
            bench_conv_fast_vs_pe(pe_repeats=2, fast_repeats=20),
            simulate_network_forward(spec=spec, batch=1),
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        [
            "bench layer / pe oracle", result.shape,
            round(result.pe_seconds, 4),
            round(result.pe_macs_per_second / 1e6, 1), 1.0,
        ],
        [
            "bench layer / fast", result.shape,
            round(result.fast_seconds, 6),
            round(result.fast_macs_per_second / 1e6, 1),
            round(result.speedup, 1),
        ],
        [
            "alexnet forward / fast",
            f"{forward.network} batch {forward.batch}",
            round(forward.wall_seconds, 3),
            round(forward.macs_per_second / 1e6, 1),
            "",
        ],
    ]
    table = format_table(
        ["Workload", "Shape", "Seconds", "MMAC/s", "Speedup"], rows
    )
    footer = (
        f"\nmodelled array time for one AlexNet forward: "
        f"{forward.array_seconds() * 1e3:.2f} ms "
        f"({forward.total_array_cycles} cycles)"
    )
    write_artifacts(
        results_dir,
        "systolic_throughput.txt",
        table + footer,
        "BENCH_systolic.json",
        {"bench_layer": result.payload()}
        | bench_payload(forward)
        | {"speedup_floor": SPEEDUP_FLOOR},
    )

    # bench_conv_fast_vs_pe already verified output + cycle equality.
    assert result.speedup >= SPEEDUP_FLOOR, (
        f"fast path speedup {result.speedup:.1f}x < {SPEEDUP_FLOOR}x "
        f"(pe {result.pe_seconds:.3f}s, fast {result.fast_seconds * 1e3:.2f}ms)"
    )
    # The paper-scale forward completed with the exact analytic MAC count.
    assert forward.total_macs == sum(l.macs for l in spec.layers)
    assert len(forward.layers) == 10
    assert forward.total_array_cycles > forward.total_macs  # drains charged
