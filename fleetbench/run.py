"""Fleet benchmark: host throughput and latency of the fleet stack.

Run from the root of a checkout::

    python3 fleetbench/run.py --workload rollout-numpy --seed 1 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
spans recorded; with ``--trace 1`` they are the per-layer ones, from
spans recorded on every other mission cycle.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread (at most nproc): the load is one single-threaded
# process, and a second thread would contend with it on a small host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
#: Tail percentiles of fleet-step and update latency.  A run whose
#: samples leave fewer than ten beyond its percentile is not correct.
STEP_TAIL = 90
UPDATE_TAIL = 75
#: Share of the traced wall time that may lie outside every span: the
#: work ``run_mission`` times around ``FleetScheduler.run``.
UNATTRIBUTED_SHARE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, p: int):
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(-(-len(ordered) * p // 100), 1) - 1]


def min_samples(p: int) -> int:
    """Fewest samples that leave ten beyond the ``p``-th percentile."""
    return -(-1000 // (100 - p))


def latency(groups: list[list[list[int]]], p: int) -> tuple[float, float, str]:
    """``(p50 ms, tail ms, description)`` of per-mission samples (ns).

    The p50 is each group's median, taken at the slow quartile over
    groups (see :func:`rate`).  The ``p``-th percentile tail is over
    all samples pooled.  Raises ``ValueError`` when the samples leave
    fewer than ten beyond it.
    """
    pooled = [x for group in groups for samples in group for x in samples]
    if len(pooled) < min_samples(p):
        raise ValueError(
            f"{len(pooled)} samples, fewer than the {min_samples(p)} "
            f"a p{p} tail needs"
        )
    medians = [
        percentile([x for samples in group for x in samples], 50)
        for group in groups
        if any(group)
    ]
    return percentile(medians, 75) / 1e6, percentile(pooled, p) / 1e6, (
        f"{len(pooled)} samples in {len(groups)} groups; "
        f"p50 at the slow quartile of {len(medians)} group medians, tail p{p}"
    )


def rate(groups, attr: str) -> float:
    """``attr`` per host second of each group, at the slow quartile.

    The host alternates between a steady slow speed and a faster,
    noisier one for stretches of a minute or so; a run's median over
    groups lands between the two by the mix it happened to see, while
    its slowest quarter sits in the steady mode.
    """
    return percentile(
        [
            sum(getattr(m, attr) for m in group)
            / (sum(m.run_ns for m in group) / 1e9)
            for group in groups
        ],
        25,
    )


def mission_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


class Tally:
    """Attempted and failed operations, and the problems behind them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.missions = 0
        self.problems: list[str] = []

    def add(self, spec, outcome, reference, times) -> None:
        problems = list(outcome.problems)
        if outcome.fingerprint != reference.fingerprint:
            problems.append(
                f"mission {outcome.seed}: fingerprint differs from its first run"
            )
        report = outcome.report
        if report is not None and (times.env_steps, times.updates) != (
            report.total_env_steps, report.total_train_updates
        ):
            problems.append(
                f"mission {outcome.seed}: clock saw {times.env_steps} env "
                f"steps and {times.updates} updates, report has "
                f"{report.total_env_steps} and {report.total_train_updates}"
            )
        ops = 1 if self.workload.op == "mission" else spec.fleet_steps
        self.missions += 1
        self.attempted += ops
        if problems or not outcome.ok:
            self.failed += ops
        self.problems.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted


def deterministic_metrics(references) -> dict[str, float]:
    """Task quality, modelled cycles and faults of the first cycle.

    Every repeat reproduces these exactly (its fingerprint is checked),
    so they come from the warm-up cycle, not from the timed missions.
    Per-mission figures average over the cycle's missions.
    """
    reports = [o.report for o in references if o.report is not None]

    def ratio(num: str, den: str) -> float:
        total = sum(getattr(r, den) for r in reports)
        return sum(getattr(r, num) for r in reports) / total if total else 0.0

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    events = [e for o in references for e in o.events]
    injected = len(events)
    return {
        "sfd_m": mean(statistics.fmean(r.sfd_by_class.values()) for r in reports),
        "cycles_per_env_step": ratio("total_inference_cycles", "total_env_steps"),
        "critical_path_cycles_per_env_step": ratio(
            "total_critical_path_cycles", "total_env_steps"
        ),
        "training_cycles_per_update": ratio(
            "total_training_cycles", "total_train_updates"
        ),
        "availability": mean(r.availability for r in reports),
        "weightbus.staleness_mean": mean(r.mean_sync_staleness for r in reports),
        "faults.injected": injected / len(references),
        "faults.detected_ratio": (
            sum(e["detected"] for e in events) / injected if injected else 0.0
        ),
        "faults.recovered_ratio": (
            sum(e["recovered"] for e in events) / injected if injected else 0.0
        ),
        "faults.recovery_cycles": sum(
            r.total_fault_recovery_cycles for r in reports
        ) / len(references),
        "faults.degraded_states": sum(
            r.total_degraded_states for r in reports
        ) / len(references),
    }


def build_cold(spec, seed: int):
    """``(mission, seconds)``: a set-up from an empty cost-oracle memo.

    Set-up is the envs, network, agent, backend and first forward.
    """
    from bench_workloads import build_mission
    from repro.parallel import clear_memo_caches

    clear_memo_caches()
    gc.collect()
    start = time.perf_counter()
    mission = build_mission(spec, seed)
    return mission, time.perf_counter() - start


def memo_counts() -> tuple[int, int]:
    """``(hits, misses)`` of every cost-oracle memo since it was cleared."""
    from repro.parallel import memo_stats

    rows = memo_stats().values()
    return sum(r["hits"] for r in rows), sum(r["misses"] for r in rows)


def per_layer_metrics(trace, clock, traced_groups, untraced_rate, memo, fixed, tally):
    """The traced run's per-layer metrics, per traced mission.

    Also checks that the spans account for the measured wall time of the
    traced missions: every top-level span is the scheduler's run, and
    the self times sum to ``clock.run_ns`` within
    :data:`UNATTRIBUTED_SHARE`.
    """
    from bench_tracing import ROOT as ROOT_SPAN

    self_ns, calls, roots = trace.self_times()
    n = trace.missions
    wall_ns = clock.run_ns
    unattributed = wall_ns - sum(self_ns.values())
    traced_rate = rate(traced_groups, "env_steps")
    hits, misses = memo
    lookups = hits + misses

    def ms(name):
        return self_ns.get(name, 0) / n / 1e6, "ms"

    def count(name):
        return calls.get(name, 0) / n, "count"

    metrics = {
        "fleet.env_step.calls": count("fleet.env_step"),
        "fleet.env_step.self_ms": ms("fleet.env_step"),
        "fleet.render.self_ms": ms("fleet.render"),
        "fleet.collide.self_ms": ms("fleet.collide"),
        "rl.act.self_ms": ms("rl.act"),
        "rl.observe.self_ms": ms("rl.observe"),
        "rl.train_step.calls": count("rl.train_step"),
        "rl.train_step.self_ms": ms("rl.train_step"),
        "backend.sync.calls": count("backend.sync"),
        "backend.sync.self_ms": ms("backend.sync"),
        "weightbus.publish.calls": count("weightbus.publish"),
        "weightbus.publish.self_ms": ms("weightbus.publish"),
        "weightbus.flip.self_ms": ms("weightbus.flip"),
        "weightbus.staleness_mean": (fixed["weightbus.staleness_mean"], "updates"),
        "backend.forward.calls": count("backend.forward"),
        "backend.forward.states": (trace.forward_states / n, "count"),
        "backend.forward.self_ms": ms("backend.forward"),
        "backend.forward.ns_per_state": (
            self_ns.get("backend.forward", 0) / max(trace.forward_states, 1), "ns"
        ),
        "backend.forward.cycles": (trace.forward_cycles / n, "cycles"),
        "backend.merge_cycles": (trace.merge_cycles / n, "cycles"),
        "backend.fill_drain_cycles": (trace.fill_drain_cycles / n, "cycles"),
        "backend.train_cost.self_ms": ms("backend.train_cost"),
        "memo.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "memo.lookups": (lookups / tally.missions, "count"),
        "memo.misses": (misses / tally.missions, "count"),
        "faults.injected": (fixed["faults.injected"], "count"),
        "faults.detected_ratio": (fixed["faults.detected_ratio"], "ratio"),
        "faults.recovered_ratio": (fixed["faults.recovered_ratio"], "ratio"),
        "faults.recovery_cycles": (fixed["faults.recovery_cycles"], "cycles"),
        "faults.degraded_states": (fixed["faults.degraded_states"], "count"),
        "scheduler.other_self_ms": ms(ROOT_SPAN),
        "trace.wall_ms": (wall_ns / n / 1e6, "ms"),
        "trace.env_steps_per_s": (traced_rate, "1/s"),
        "trace.untraced_env_steps_per_s": (untraced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0), "%"),
        "sfd_m": (fixed["sfd_m"], "m"),
        "cycles_per_env_step": (fixed["cycles_per_env_step"], "cycles"),
        "critical_path_cycles_per_env_step": (
            fixed["critical_path_cycles_per_env_step"], "cycles"
        ),
        "training_cycles_per_update": (
            fixed["training_cycles_per_update"], "cycles"
        ),
        "ops.failed_ratio": (tally.failed_ratio, "ratio"),
    }
    problems = []
    if roots != [ROOT_SPAN] * n:
        problems.append(
            f"top-level spans {sorted(set(roots))} x{len(roots)}, expected "
            f"one {ROOT_SPAN} per traced mission ({n})"
        )
    if not 0 <= unattributed <= UNATTRIBUTED_SHARE * wall_ns:
        problems.append(
            f"span self times sum to {wall_ns - unattributed} ns, the traced "
            f"wall time is {wall_ns} ns"
        )
    note = (
        f"span self times cover {1 - unattributed / wall_ns:.6f} of the "
        f"traced wall time ({unattributed / n / 1e6:.4f} ms per mission "
        f"outside every span)"
    )
    return metrics, problems, note


def run(args) -> tuple[bool, int, int, dict, list[str]]:
    from bench_tracing import HostClock, LayerTrace
    from bench_workloads import CYCLE, WORKLOADS, run_mission

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]

    # Warm-up: one pass over the cycle; its outcomes are the references
    # every timed repeat must reproduce.
    references = [
        run_mission(build_cold(spec, mission_seed(args.seed, j))[0])
        for j, spec in enumerate(workload.cycle)
    ]
    problems = [p for o in references for p in o.problems]

    clocks = {False: HostClock(), True: HostClock()}
    trace = LayerTrace() if args.trace else None
    tally = Tally(workload)
    setups = []
    # Each mission clears the memo, and so its counters, before set-up.
    memo_rows = []
    start = time.perf_counter()
    done = 0
    while done < (2 if trace else 1) or time.perf_counter() - start < args.seconds:
        traced = trace is not None and done % 2 == 0
        for j, spec in enumerate(workload.cycle):
            mission, setup_s = build_cold(spec, mission_seed(args.seed, j))
            setups.append(setup_s)
            if traced:
                trace.attach(mission)
            times = clocks[traced].attach(mission)
            gc.collect()
            outcome = run_mission(mission)
            memo_rows.append(memo_counts())
            times.run_ns = outcome.wall_ns
            tally.add(spec, outcome, references[j], times)
        done += 1
    memo = tuple(map(sum, zip(*memo_rows)))
    problems += tally.problems

    # A group is what one host-time figure is taken over: one mission,
    # or on a chaos workload one whole cycle of policies.
    size = CYCLE if workload.op == "mission" else 1

    def groups(clock):
        return [
            clock.missions[i:i + size] for i in range(0, len(clock.missions), size)
        ]

    untraced = groups(clocks[False])
    fixed = deterministic_metrics(references)
    notes = [
        f"workload {workload.name}, seed {args.seed}: {done} cycles, "
        f"{len(clocks[False].missions)} untraced missions, "
        f"{clocks[False].run_ns / 1e9:.2f} host s",
        f"failed_ops_ratio {tally.failed_ratio:.6f} "
        f"({tally.failed} of {tally.attempted} {workload.op}s)",
    ]
    notes += [f"mission {o.seed}: {o.error}" for o in references if o.error]
    notes += [f"{name} {value:.6g}" for name, value in fixed.items()]
    env_rate = rate(untraced, "env_steps")
    if trace is not None:
        metrics, trace_problems, trace_note = per_layer_metrics(
            trace, clocks[True], groups(clocks[True]), env_rate, memo, fixed,
            tally,
        )
        problems += trace_problems
        notes.append(trace_note)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json"
        trace.tracer.export_chrome(str(path))
        notes.append(
            f"wrote {len(trace.tracer.spans)} spans to {path.relative_to(ROOT)}"
        )
    else:
        latencies = {}
        for kind, p in (("step", STEP_TAIL), ("update", UPDATE_TAIL)):
            samples = [[getattr(m, f"{kind}_ns") for m in g] for g in untraced]
            try:
                p50, tail, note = latency(samples, p)
            except ValueError as exc:  # reported as not correct
                problems.append(f"{kind} latency: {exc}")
                p50 = tail = 0.0
            else:
                notes.append(f"{kind} latency: {note}")
            latencies[kind] = (p50, tail)
        metrics = {
            "env_steps_per_s": (env_rate, "1/s"),
            "train_updates_per_s": (rate(untraced, "updates"), "1/s"),
            "step_ms_p50": (latencies["step"][0], "ms"),
            "step_ms_tail": (latencies["step"][1], "ms"),
            "update_ms_p50": (latencies["update"][0], "ms"),
            "update_ms_tail": (latencies["update"][1], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "ok_ops_ratio": (1.0 - tally.failed_ratio, "ratio"),
            "availability": (fixed["availability"], "ratio"),
        }
    return not problems, tally.attempted, tally.failed, metrics, notes + problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    correct, attempted, failed, metrics, notes = run(args)
    for line in notes:
        print(line)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
