"""Whole-network training-step throughput: fast path vs PE oracle.

Three measurements:

* **fast vs oracle** — one whole-network training step (forward +
  chained backward GEMMs) on a reduced drone net, executed through the
  datapath and through the loop-level PE oracle
  (``tests/pe_reference.py``).
  The harness re-verifies on every run that integer counters and
  gradients are identical (``bench_training_fast_vs_pe`` raises
  otherwise), then pins the speedup floor (relaxable on contended CI
  via ``TRAINING_SPEEDUP_FLOOR``).
* **paper-scale iterations/s vs batch** — the closed-form training-step
  model over the modified AlexNet for L4 and E2E at the Fig. 13 batch
  sizes: cycles per step, modelled iterations/s on the paper array, and
  the weight-reuse effect (cycles per sample strictly decreasing in
  batch — conv filter rows and FC tiles resident across the batch).
* **combined budget** — the closed-form training cost per update next
  to the measured inference cost per step on the reduced net, the two
  budgets ``fleet --train-on-array`` threads into the projection.

Artifacts: ``training_throughput.txt`` (human-readable tables) and
``BENCH_training.json`` (machine-readable its/s, speedup, cycle
ledgers) for trajectory tracking.
"""

import os

from _artifacts import write_artifacts
from pe_reference import bench_training_fast_vs_pe
from repro.analysis import format_table
from repro.nn.alexnet import build_network, scaled_drone_net_spec
from repro.systolic import network_training_step_cost, training_step_stats

SPEEDUP_FLOOR = float(os.environ.get("TRAINING_SPEEDUP_FLOOR", "10.0"))
BATCH_SIZES = (4, 8, 16)
SIDE = 16


def test_training_throughput(benchmark, results_dir, spec):
    def run():
        bench = bench_training_fast_vs_pe(batch=2, fast_repeats=10)
        paper = {
            config: {
                batch: training_step_stats(
                    spec, batch=batch,
                    train_last_k=4 if config == "L4" else None,
                )
                for batch in BATCH_SIZES
            }
            for config in ("L4", "E2E")
        }
        network = build_network(scaled_drone_net_spec(input_side=SIDE), seed=0)
        train_budget = network_training_step_cost(network, (1, SIDE, SIDE), 16)
        return bench, paper, train_budget

    bench, paper, train_budget = benchmark.pedantic(run, rounds=1, iterations=1)

    paper_rows = [
        [
            config, batch,
            round(step.total_cycles / 1e9, 2),
            round(step.cycles_per_sample / 1e6, 1),
            round(step.iterations_per_second(), 3),
        ]
        for config, by_batch in paper.items()
        for batch, step in by_batch.items()
    ]
    table = format_table(
        ["Config", "Batch", "Gcycles/step", "Mcyc/sample", "Iterations/s"],
        paper_rows,
    )
    body = (
        f"training step fast vs oracle ({bench.network} batch "
        f"{bench.batch}): pe {bench.pe_seconds:.4f}s, fast "
        f"{bench.fast_seconds * 1e3:.2f}ms -> {bench.speedup:.1f}x "
        "(counters and gradients verified identical)\n\n"
        + table
        + "\n\nreduced-net training budget (batch 16): "
        f"{train_budget.total_cycles / 1e3:.1f} kcycles/update "
        f"({train_budget.total_backward_cycles / 1e3:.1f} backward), "
        f"weight update {train_budget.weight_update_bits() / 8e3:.1f} KB"
    )
    write_artifacts(
        results_dir,
        "training_throughput.txt",
        body,
        "BENCH_training.json",
        {
            "bench_training": {
                "network": bench.network,
                "batch": bench.batch,
                "speedup": bench.speedup,
                "pe_seconds": bench.pe_seconds,
                "fast_seconds": bench.fast_seconds,
                "macs": bench.macs,
            },
            "paper_scale": {
                config: {
                    str(batch): {
                        "total_cycles": step.total_cycles,
                        "cycles_per_sample": step.cycles_per_sample,
                        "iterations_per_second": (
                            step.iterations_per_second()
                        ),
                    }
                    for batch, step in by_batch.items()
                }
                for config, by_batch in paper.items()
            },
            "speedup_floor": SPEEDUP_FLOOR,
        },
    )

    # bench_training_fast_vs_pe already re-proved counter + gradient
    # equality; pin the speedup floor on top.
    assert bench.speedup >= SPEEDUP_FLOOR, (
        f"training fast path speedup {bench.speedup:.1f}x < "
        f"{SPEEDUP_FLOOR}x (pe {bench.pe_seconds:.3f}s, fast "
        f"{bench.fast_seconds * 1e3:.2f}ms)"
    )
    for config, by_batch in paper.items():
        # Weight reuse: cycles/sample strictly decreasing in batch.
        per_sample = [by_batch[b].cycles_per_sample for b in BATCH_SIZES]
        assert all(b < a for a, b in zip(per_sample, per_sample[1:])), config
        # Iteration rate falls as the batch grows (more work per step).
        rates = [by_batch[b].iterations_per_second() for b in BATCH_SIZES]
        assert rates == sorted(rates, reverse=True), config
    # Partial backprop is strictly cheaper than end to end, forward
    # cost identical.
    for batch in BATCH_SIZES:
        assert (
            paper["L4"][batch].total_cycles < paper["E2E"][batch].total_cycles
        )
        assert (
            paper["L4"][batch].total_forward_cycles
            == paper["E2E"][batch].total_forward_cycles
        )
    assert train_budget.total_cycles > 0


def test_training_spec_fixture_consistency(spec):
    """The benchmark's paper spec is the Fig. 3a network: the E2E
    training step updates every one of its 56 190 341 weights."""
    step = training_step_stats(spec, batch=1)
    assert step.weight_update_elements == spec.total_weights
    assert spec.total_weights == 56_190_341
