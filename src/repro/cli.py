"""Command-line interface: regenerate any paper artifact from the shell.

    python -m repro fig1          # min-fps table (Fig. 1c)
    python -m repro fig3          # network/weight table (Fig. 3a)
    python -m repro fig5          # memory mapping (Fig. 5)
    python -m repro fig6          # conv mapping schemes (Fig. 6)
    python -m repro fig12         # per-layer costs vs paper (Fig. 12)
    python -m repro fig13         # fps vs batch + savings (Fig. 13)
    python -m repro params        # Table 1 + Fig. 4b parameters
    python -m repro rl --env indoor-apartment --iters 800 --seed 0
    python -m repro map --env outdoor-forest  # ASCII world render
    python -m repro fleet --num-envs 16 --rounds 2 --steps 150 --seed 0
    python -m repro fleet --backend systolic  # hardware-in-the-loop rollouts
    python -m repro fleet --backend sharded --shards 4 --shard-policy sample \\
        --sync-every 4                        # K arrays + async weight bus
    python -m repro fleet --backend systolic --train-on-array \\
                                              # charge training to the array
    python -m repro fleet --backend sharded --shards 4 \\
        --trace trace.json --metrics metrics.prom \\
                                              # span trace + metrics export
    python -m repro fleet --backend sharded --shards 4 \\
        --faults "seed=7,crash=1@30"          # seeded chaos run + failover
    python -m repro systolic-bench            # paper-scale AlexNet forward
    python -m repro systolic-bench --training # whole-network training step

The ``systolic-bench`` command runs the paper-scale modified AlexNet
through the functional systolic datapath (:mod:`repro.systolic`) and
reports per-layer wall time, MACs and modelled array cycles.  Its
``--training`` mode prints the paper-scale per-layer forward / dL/dW /
dL/dX cycle table of a whole training step (Fig. 3b) from the
closed-form model.  The fast-vs-PE-oracle timers live with the oracle
in ``tests/pe_reference.py`` and run as
``benchmarks/test_systolic_throughput.py`` /
``benchmarks/test_training_throughput.py``.

The ``fleet`` command runs the vectorized multi-environment engine
(:mod:`repro.fleet`): one shared agent drives N environments through
rollout → train → evaluate rounds with batched inference/updates, then
reports per-round throughput (env steps/sec, episodes/sec), safe flight
distance per environment class, and the measured load projected onto
the paper platform's FPS / energy / NVM-endurance model.  Its
``--backend {numpy,quantized,systolic,sharded}`` flag selects the
execution backend action selection routes through (:mod:`repro.backend`):
``numpy`` is the float path, ``quantized`` the 16-bit fixed-point
datapath, ``systolic`` the accelerator-in-the-loop path whose
rollouts carry per-step array-cycle budgets into the report and the
platform projection, and ``sharded`` composes K systolic arrays
(``--shards K``, ``--shard-policy {sample,layer,pipeline}``) and additionally
reports critical-path cycles, scaling efficiency and pipeline overlap.
``--sync-every N`` sets the weight-bus flip cadence — the deployed
datapath refreshes its quantised snapshot every N training updates
instead of after every one, and the report carries the measured
snapshot staleness.  ``--train-on-array`` charges every training update
the closed-form whole-network training-step cost on the backend's
array(s) and projects whether rollout and training fit *concurrently*
(combined utilization, single- and K-array).  ``--pipeline-chunk N``
sets the rollout chunk size of the interleaved pipeline.  ``--faults
SPEC`` runs the whole fleet under seeded deterministic fault injection
(:mod:`repro.faults`: SRAM bit flips, shard crashes/stragglers,
weight-bus drops and corruption, sensor dropout) and appends a
fault-tolerance section — injected/detected/recovered counts,
availability, MTTR in rounds, degraded-mode fraction and recovery
overhead.  A fixed-point-vs-float action-agreement check over replayed
rollout states closes the report.
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    ascii_bars,
    format_fig12_table,
    format_mapping_table,
    format_table,
)
from repro.backend import BACKENDS
from repro.core import paper_system_parameters
from repro.env.fps import DMIN_TABLE, PAPER_SPEEDS, fps_requirement_table
from repro.env.generators import ENVIRONMENTS, make_environment
from repro.env.trace import render_world_ascii
from repro.memory import STT_MRAM, WeightMapper
from repro.nn import modified_alexnet_spec, parameter_table
from repro.perf import (
    LayerCostModel,
    PAPER_FIG12_BACKWARD,
    PAPER_FIG12_FORWARD,
    fps_vs_batch_table,
    savings_vs_e2e,
)
from repro.rl import config_by_name, run_transfer_experiment
from repro.systolic import NOC_TOPOLOGIES, map_conv_layer

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    """argparse type for flags that must be >= 1 (counts, cadences)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _cmd_fig1(_args) -> None:
    table = fps_requirement_table()
    rows = [
        [env, DMIN_TABLE[env]] + [round(float(v), 3) for v in table[env]]
        for env in sorted(table)
    ]
    print(format_table(["Environment", "d_min"] + [f"{v} m/s" for v in PAPER_SPEEDS], rows))


def _cmd_fig3(_args) -> None:
    spec = modified_alexnet_spec()
    rows = [
        [r["layer"], r["neurons"], r["weights"],
         round(r["pct_total"], 3), round(r["pct_cumulative"], 3)]
        for r in parameter_table(spec)
    ]
    rows.append(["total", "", spec.total_weights, 100.0, ""])
    print(format_table(["Layer", "# neurons", "# weights", "% total", "% cumul"], rows))


def _cmd_fig5(_args) -> None:
    spec = modified_alexnet_spec()
    rows = []
    for name in ("L2", "L3", "L4", "E2E"):
        r = WeightMapper(spec, config_by_name(name)).build()
        rows.append(
            [name, round(r.nvm_mb, 1), round(r.sram_weight_bytes / 1e6, 1),
             round(r.sram_gradient_bytes / 1e6, 1),
             round(r.sram_scratchpad_bytes / 1e6, 1), round(r.sram_total_mb, 1)]
        )
    print(format_table(
        ["Config", "NVM MB", "SRAM wts", "SRAM grads", "Scratch", "SRAM total"], rows
    ))


def _cmd_fig6(_args) -> None:
    spec = modified_alexnet_spec()
    print(format_mapping_table([map_conv_layer(c) for c in spec.conv_layers]))


def _cmd_fig12(_args) -> None:
    spec = modified_alexnet_spec()
    model = LayerCostModel(spec, config_by_name("E2E"))
    print("Forward (model vs paper):")
    print(format_fig12_table(model.forward_costs(), PAPER_FIG12_FORWARD))
    print()
    print("Backward, E2E baseline (model vs paper):")
    print(format_fig12_table(model.backward_costs(), PAPER_FIG12_BACKWARD))


def _cmd_fig13(_args) -> None:
    spec = modified_alexnet_spec()
    models = {
        name: LayerCostModel(spec, config_by_name(name))
        for name in ("L2", "L3", "L4", "E2E")
    }
    table = fps_vs_batch_table(models)
    rows = [
        [name] + [round(table[name][b], 2) for b in (4, 8, 16)]
        for name in table
    ]
    print(format_table(["Config", "batch 4", "batch 8", "batch 16"], rows))
    print()
    print(ascii_bars(list(table), [table[n][4] for n in table],
                     title="fps at batch 4", unit=" fps"))
    print()
    for name in ("L2", "L3", "L4"):
        s = savings_vs_e2e(models[name], models["E2E"])
        print(
            f"{name} vs E2E: latency -{s['latency_decrease_pct']:.1f}%, "
            f"energy -{s['energy_decrease_pct']:.1f}%"
        )


def _cmd_params(_args) -> None:
    print("Table 1 — STT-MRAM:")
    print(format_table(
        ["Parameter", "Value"],
        [
            ["Write latency", f"{STT_MRAM.write_latency_s * 1e9:.0f} ns"],
            ["Read latency", f"{STT_MRAM.read_latency_s * 1e9:.0f} ns"],
            ["Write energy", f"{STT_MRAM.write_energy_per_bit_j * 1e12:.1f} pJ/bit"],
            ["Read energy", f"{STT_MRAM.read_energy_per_bit_j * 1e12:.1f} pJ/bit"],
        ],
    ))
    print()
    p = paper_system_parameters()
    print("Fig. 4b — system parameters:")
    print(format_table(
        ["Parameter", "Value"],
        [
            ["Technology", p.technology],
            ["PEs", f"{p.num_pes} ({p.pe_grid[0]}x{p.pe_grid[1]})"],
            ["Buffer/scratch", f"{p.global_buffer_mb}/{p.scratchpad_mb} MB"],
            ["RF per PE", f"{p.register_file_per_pe_kb} KB"],
            ["Voltage", f"{p.operating_voltage_v} V"],
            ["Clock", f"{p.clock_hz / 1e9:.0f} GHz"],
            ["Precision", f"{p.arithmetic_precision_bits}-bit fixed"],
            ["PE link", f"{p.pe_link_bits} bit"],
        ],
    ))


def _cmd_timeline(args) -> None:
    from repro.perf import build_timeline

    spec = modified_alexnet_spec()
    model = LayerCostModel(spec, config_by_name(args.config))
    timeline = build_timeline(model)
    print(timeline.gantt_ascii())
    by_kind = timeline.by_kind()
    print()
    for kind, seconds in by_kind.items():
        print(f"  {kind}: {seconds * 1e3:.2f} ms")
    print(f"  hidden NVM stream time: {timeline.hidden_stream_s * 1e3:.3f} ms")


def _cmd_rl(args) -> None:
    results = run_transfer_experiment(
        args.env,
        meta_iterations=args.iters,
        adapt_iterations=args.iters,
        seed=args.seed,
        image_side=16,
    )
    rows = [
        [name, round(r.final_reward, 3), round(r.safe_flight_distance, 2),
         r.crash_count]
        for name, r in results.items()
    ]
    print(format_table(["Config", "Final reward", "SFD (m)", "Crashes"], rows))


def _timing_breakdown(tracer, array_config) -> str:
    """The fleet report's "Timing breakdown" section.

    One row per span name: host wall time next to the modelled array
    time of the cycles charged while the span was open, and their ratio
    — >1 means the host is slower than the hardware it simulates, the
    visibility half of the ROADMAP's wall-clock item.  Phase rows
    (``phase:*``) additionally render as a bar chart.
    """
    summary = tracer.summary()
    if not summary:
        return "Timing breakdown: no spans recorded"

    def order(item):
        name = item[0]
        if name == "fleet.round":
            return (0, name)
        if name.startswith("phase:"):
            return (1, name)
        return (2, name)

    rows = []
    for name, row in sorted(summary.items(), key=order):
        wall_ms = row["wall_s"] * 1e3
        modelled_ms = array_config.seconds(row["cycles"]) * 1e3
        ratio = (
            f"{wall_ms / modelled_ms:.0f}x" if modelled_ms > 0 else "-"
        )
        rows.append(
            [
                name,
                row["count"],
                round(wall_ms, 2),
                round(row["cycles"] / 1e6, 3),
                round(modelled_ms, 3),
                ratio,
            ]
        )
    table = format_table(
        ["Span", "Count", "Wall ms", "Mcycles", "Modelled ms", "Wall/modelled"],
        rows,
    )
    phases = [
        (name, row) for name, row in summary.items()
        if name.startswith("phase:")
    ]
    chart = ascii_bars(
        [name for name, _ in sorted(phases)],
        [row["wall_s"] * 1e3 for _, row in sorted(phases)],
        title="phase wall time",
        unit=" ms",
    )
    return "Timing breakdown:\n" + table + "\n\n" + chart


def _cmd_fleet(args) -> None:
    import numpy as np

    from repro.backend import SystolicBackend, make_backend
    from repro.fleet import FleetScheduler, VecNavigationEnv
    from repro.nn import build_network, scaled_drone_net_spec
    from repro.rl import EpsilonSchedule, QLearningAgent

    names = args.envs or sorted(ENVIRONMENTS)
    if args.envs and args.num_envs < len(args.envs):
        raise SystemExit(
            f"error: --num-envs {args.num_envs} is smaller than the "
            f"{len(args.envs)} requested --envs classes; some classes "
            "would be silently dropped"
        )
    vec_env = VecNavigationEnv.from_names(
        names,
        seeds=[args.seed + i for i in range(args.num_envs)],
        image_side=args.image_side,
        max_episode_steps=400,
    )
    network = build_network(
        scaled_drone_net_spec(input_side=args.image_side), seed=args.seed
    )
    # decay_steps counts per-state schedule steps: each fleet step
    # consumes num_envs of them (rollout and eval phases alike).
    total_agent_steps = (
        args.num_envs * (args.steps + args.eval_steps) * args.rounds
    )
    backend_kwargs = (
        {
            "shards": args.shards,
            "shard": args.shard_policy,
            "noc": args.noc,
        }
        if args.backend == "sharded"
        else {}
    )
    agent = QLearningAgent(
        network,
        config=config_by_name(args.config),
        epsilon=EpsilonSchedule(1.0, 0.1, max(total_agent_steps // 2, 1)),
        seed=args.seed,
        backend=make_backend(args.backend, network, **backend_kwargs),
        sync_every=args.sync_every,
        train_on_array=args.train_on_array,
    )
    scheduler = FleetScheduler(
        agent, vec_env, train_every=args.train_every,
        eval_steps=args.eval_steps, pipeline_chunk=args.pipeline_chunk,
    )
    plan = None
    if args.faults is not None:
        from repro.faults import FAULTS, parse_fault_spec

        try:
            plan = parse_fault_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(f"error: bad --faults spec: {exc}")
    # Any observability output switches the probe seam on for the run —
    # a fresh tracer and a private registry, so two invocations in one
    # process never mix telemetry.
    probing = bool(args.trace or args.metrics or args.json)
    tracer = registry = None
    if probing:
        from repro.obs import PROBE, MetricsRegistry

        registry = MetricsRegistry()
        tracer = PROBE.activate(registry=registry)
    try:
        if plan is not None:
            FAULTS.activate(plan)
        report = scheduler.run(rounds=args.rounds, steps_per_round=args.steps)
    finally:
        if plan is not None:
            FAULTS.deactivate()
        if probing:
            PROBE.deactivate()
    rows = [
        [
            r.round_index,
            r.env_steps,
            r.episodes,
            r.train_updates,
            round(r.steps_per_second, 1),
            round(r.episodes_per_second, 2),
            round(r.mean_loss, 4),
        ]
        for r in report.rounds
    ]
    print(format_table(
        ["Round", "Steps", "Episodes", "Updates", "Steps/s", "Episodes/s", "Loss"],
        rows,
    ))
    print()
    print(format_table(
        ["Environment class", "SFD (m)"],
        [[name, round(v, 2)] for name, v in report.sfd_by_class.items()],
    ))
    if plan is not None:
        _print_fleet_faults(report)
    projection = None
    try:
        projection = scheduler.project_load(report)
    except ValueError as exc:
        print()
        print(f"no platform projection: {exc}")
    if projection is not None:
        _print_fleet_projection(args, agent, scheduler, report, projection, np)
    if probing:
        _finish_fleet_observability(
            args, report, projection, scheduler, tracer, registry
        )


def _print_fleet_faults(report) -> None:
    """The fleet report's fault-tolerance section (chaos runs only)."""
    print()
    print(
        f"fault injection: {report.total_faults_injected} injected, "
        f"{report.total_faults_detected} detected, "
        f"{report.total_faults_recovered} recovered; "
        f"availability {report.availability:.3f}, "
        f"MTTR {report.mttr_rounds:.1f} rounds, "
        f"degraded-mode fraction {report.degraded_fraction:.3f}"
    )
    if report.total_fault_recovery_cycles > 0:
        print(
            f"recovery overhead: "
            f"{report.total_fault_recovery_cycles / 1e3:.1f} kcycles "
            "charged to retries, rollbacks and failover health checks"
        )
    by_kind: dict[str, list[dict]] = {}
    for event in report.fault_events:
        by_kind.setdefault(event["kind"], []).append(event)
    if by_kind:
        print(format_table(
            ["Fault kind", "Injected", "Detected", "Recovered"],
            [
                [
                    kind,
                    len(events),
                    sum(1 for e in events if e["detected"]),
                    sum(1 for e in events if e["recovered"]),
                ]
                for kind, events in sorted(by_kind.items())
            ],
        ))


def _print_fleet_projection(args, agent, scheduler, report, projection, np):
    from repro.backend import SystolicBackend

    network = agent.network
    print()
    print(
        f"fleet of {report.num_envs} envs @ {report.steps_per_second:.1f} "
        f"steps/s, {report.train_iterations_per_second:.2f} updates/s "
        f"(batch {projection.batch_size})"
    )
    print(
        f"platform ({report.config_name}): {projection.iteration.fps:.2f} "
        f"iterations/s sustainable, utilization {projection.utilization:.2f} "
        f"({'feasible' if projection.realtime_feasible else 'OVERLOADED'}), "
        f"{projection.energy_watts:.2f} W"
    )
    print(
        f"NVM write load {projection.nvm_write_bits_per_second / 1e6:.2f} Mbit/s"
        f" -> endurance {projection.endurance.lifetime_years:.1f} years"
    )
    if projection.inference_cycles_per_step > 0:
        print(
            f"backend '{report.backend}': "
            f"{projection.inference_cycles_per_step / 1e3:.1f} kcycles/env-step "
            f"measured -> array sustains "
            f"{projection.inference_sustainable_steps_per_second:.0f} steps/s, "
            f"inference utilization {projection.inference_utilization:.4f} "
            f"({'feasible' if projection.inference_realtime_feasible else 'OVERLOADED'})"
        )
    elif args.backend == "numpy":
        # Float rollouts carry no budget: cost the current observation
        # batch post hoc on the systolic backend (its cycles depend on
        # the batch shape alone).
        q_cost = SystolicBackend(network).forward_batch(
            scheduler.observations
        )[1]
        print(
            f"systolic fast path: one {q_cost.states}-env observation batch = "
            f"{q_cost.total_cycles / 1e6:.2f} Mcycles "
            f"({q_cost.array_seconds() * 1e6:.0f} us on the paper array)"
        )
    if projection.training_cycles_per_update > 0:
        print(
            f"training on array: "
            f"{projection.training_cycles_per_update / 1e3:.1f} kcycles/update "
            f"measured -> array sustains "
            f"{projection.training_sustainable_updates_per_second:.1f} updates/s; "
            f"combined rollout+train utilization "
            f"{projection.combined_array_utilization:.4f} "
            f"({'feasible' if projection.combined_realtime_feasible else 'OVERLOADED'})"
        )
    if report.shards > 1:
        print(
            f"sharded over {report.shards} arrays "
            f"({args.shard_policy} policy): critical path "
            f"{projection.critical_path_cycles_per_step / 1e3:.1f} "
            f"kcycles/env-step -> {report.shards}-array platform sustains "
            f"{projection.sharded_sustainable_steps_per_second:.0f} steps/s "
            f"(speedup {projection.sharding_speedup:.2f}x, scaling "
            f"efficiency {projection.scaling_efficiency:.2f})"
        )
        print(
            f"critical shard: array {report.critical_shard_index} carried "
            f"the most cycles in "
            f"{sum(1 for r in report.rounds if r.shards > 1 and r.inference.critical_shard_index == report.critical_shard_index)}"
            f"/{sum(1 for r in report.rounds if r.shards > 1)} rounds"
        )
        if projection.interconnect_cycles_per_step > 0:
            line = (
                f"interconnect ({args.noc} NoC): "
                f"{projection.interconnect_cycles_per_step / 1e3:.2f} "
                f"kcycles/env-step on inter-array links "
                f"({projection.interconnect_fraction:.1%} of the "
                f"critical path)"
            )
            if projection.fill_drain_cycles_per_step > 0:
                line += (
                    f"; pipeline fill/drain "
                    f"{projection.fill_drain_cycles_per_step / 1e3:.2f} "
                    f"kcycles/env-step"
                )
            print(line)
        if projection.training_cycles_per_update > 0:
            print(
                f"concurrent rollout+train on {report.shards} arrays: "
                f"training critical path "
                f"{projection.training_critical_path_cycles_per_update / 1e3:.1f} "
                f"kcycles/update ("
                f"{projection.training_merge_cycles_per_update / 1e3:.2f} on "
                f"inter-array links) -> combined utilization "
                f"{projection.sharded_combined_utilization:.4f} "
                f"({'feasible' if projection.sharded_combined_utilization <= 1.0 else 'OVERLOADED'})"
            )
    if projection.inference_cycles_per_step > 0 or (
        args.sync_every > 1 and agent.backend.has_snapshot
    ):
        print(
            f"weight bus: sync every {agent.weight_bus.sync_every} updates, "
            f"mean served staleness {report.mean_sync_staleness:.2f} updates; "
            f"pipeline overlap fraction {report.pipeline_overlap_fraction:.2f}"
        )
    if args.backend != "numpy" and len(agent.replay) > 0:
        sample = min(len(agent.replay), 256)
        states, _, _, _, _ = agent.replay.sample(
            sample, np.random.default_rng(args.seed)
        )
        agreement = agent.backend.agreement_rate(states)
        print(
            f"{args.backend} policy vs float: {agreement:.3f} action agreement "
            f"over {sample} rollout states"
        )


def _round_payload(r) -> dict:
    """One :class:`~repro.fleet.RoundStats` as a JSON-safe dict."""
    import math

    return {
        "round": r.round_index,
        "env_steps": r.env_steps,
        "episodes": r.episodes,
        "train_updates": r.train_updates,
        "wall_seconds": r.wall_seconds,
        "steps_per_second": r.steps_per_second,
        "mean_loss": None if math.isnan(r.mean_loss) else r.mean_loss,
        "inference_cycles": r.inference.total_cycles,
        "critical_path_cycles": r.inference.critical_path_cycles,
        "critical_shard_index": r.inference.critical_shard_index,
        "shards": r.shards,
        "sync_staleness": r.sync_staleness,
        "training_cycles": r.training.total_cycles,
        "eval_sfd_by_class": r.eval_sfd_by_class,
        "faults_injected": r.faults_injected,
        "faults_detected": r.faults_detected,
        "faults_recovered": r.faults_recovered,
        "fault_recovery_cycles": r.fault_recovery_cycles,
        "degraded_states": r.degraded_states,
        "active_shards": r.active_shards,
    }


def _finish_fleet_observability(args, report, projection, scheduler, tracer, registry):
    """Timing breakdown + trace/metrics/json exports of a probed run."""
    import json

    print()
    print(_timing_breakdown(tracer, scheduler.agent.backend.config))
    if args.trace:
        tracer.export_chrome(args.trace)
        print(f"wrote {args.trace}")
    if args.metrics:
        registry.export_prometheus(args.metrics)
        print(f"wrote {args.metrics}")
    if args.json:
        payload = {
            "fleet": {
                "num_envs": report.num_envs,
                "backend": report.backend,
                "config": report.config_name,
                "rounds": [_round_payload(r) for r in report.rounds],
                "totals": {
                    "env_steps": report.total_env_steps,
                    "episodes": report.total_episodes,
                    "train_updates": report.total_train_updates,
                    "wall_seconds": report.wall_seconds,
                    "steps_per_second": report.steps_per_second,
                    "train_iterations_per_second": (
                        report.train_iterations_per_second
                    ),
                    "inference_cycles": report.total_inference_cycles,
                    "critical_path_cycles": report.total_critical_path_cycles,
                    "training_cycles": report.total_training_cycles,
                    "shards": report.shards,
                    "critical_shard_index": report.critical_shard_index,
                    "mean_sync_staleness": report.mean_sync_staleness,
                    "pipeline_overlap_fraction": (
                        report.pipeline_overlap_fraction
                    ),
                },
                "sfd_by_class": report.sfd_by_class,
                "crash_counts": report.crash_counts,
                "faults": {
                    "injected": report.total_faults_injected,
                    "detected": report.total_faults_detected,
                    "recovered": report.total_faults_recovered,
                    "recovery_cycles": report.total_fault_recovery_cycles,
                    "degraded_states": report.total_degraded_states,
                    "availability": report.availability,
                    "mttr_rounds": report.mttr_rounds,
                    "degraded_fraction": report.degraded_fraction,
                    "events": report.fault_events,
                },
            },
            "projection": None
            if projection is None
            else {
                "config": report.config_name,
                "batch_size": projection.batch_size,
                "accelerator_fps": projection.iteration.fps,
                "utilization": projection.utilization,
                "realtime_feasible": projection.realtime_feasible,
                "energy_watts": projection.energy_watts,
                "nvm_write_bits_per_second": (
                    projection.nvm_write_bits_per_second
                ),
                "endurance_lifetime_years": (
                    projection.endurance.lifetime_years
                ),
                "inference_utilization": projection.inference_utilization,
                "sharding_speedup": projection.sharding_speedup,
                "scaling_efficiency": projection.scaling_efficiency,
            },
            "phases": tracer.summary(),
            "metrics": registry.snapshot(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")


def _cmd_systolic_bench(args) -> None:
    from repro.systolic import simulate_network_forward
    from repro.systolic.bench import bench_payload

    if args.training:
        _systolic_training_bench(args)
        return
    forward = simulate_network_forward(batch=args.batch, seed=args.seed)
    print(format_table(
        ["Layer", "Kind", "MMAC", "Mcycles", "Wall ms"],
        [
            [l.name, l.kind, round(l.macs / 1e6, 1),
             round(l.array_cycles / 1e6, 1),
             round(l.wall_seconds * 1e3, 2)]
            for l in forward.layers
        ],
    ))
    print(
        f"{forward.network} batch {forward.batch}: "
        f"{forward.total_macs / 1e9:.2f} GMAC in {forward.wall_seconds:.2f}s "
        f"wall ({forward.macs_per_second / 1e6:.0f} MMAC/s simulated); "
        f"modelled array time {forward.array_seconds() * 1e3:.2f} ms"
    )
    if args.json:
        _write_bench_json(
            args.json,
            bench_payload(forward),
            {
                "repro_bench_forward_wall_seconds": forward.wall_seconds,
                "repro_bench_forward_macs": forward.total_macs,
            },
        )


def _write_bench_json(path: str, payload: dict, gauges: dict) -> None:
    """Write a ``systolic-bench --json`` payload with its metrics block.

    The ``metrics`` block is a registry snapshot of the result gauges:
    the same ``{"counters", "gauges", "histograms"}`` shape the fleet
    payload carries, so the future ``repro.tune`` explorer reads one
    telemetry schema everywhere.
    """
    import json

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    for name, value in gauges.items():
        registry.gauge(name, help="systolic-bench result gauge.").set(value)
    payload["metrics"] = registry.snapshot()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


def _systolic_training_bench(args) -> None:
    """``systolic-bench --training``: whole-network training-step costs.

    Prints the paper-scale per-layer forward / dL/dW / dL/dX cycle
    table from the closed-form training-step model and the modelled
    iteration rate at the requested batch.
    """
    from repro.systolic import training_step_stats

    step = training_step_stats(batch=args.batch)
    print(format_table(
        ["Layer", "Kind", "Fwd Mcyc", "dW Mcyc", "dX Mcyc", "Upd kwts"],
        [
            [l.name, l.kind, round(l.forward_cycles / 1e6, 1),
             round(l.dw_cycles / 1e6, 1), round(l.dx_cycles / 1e6, 1),
             round(l.weight_elements / 1e3, 1)]
            for l in step.layers
        ],
    ))
    print(
        f"{step.network} batch {step.batch} training step: "
        f"{step.total_cycles / 1e9:.2f} Gcycles "
        f"({step.total_forward_cycles / 1e9:.2f} fwd + "
        f"{step.total_backward_cycles / 1e9:.2f} bwd) -> "
        f"{step.iterations_per_second():.3f} iterations/s on the paper array; "
        f"weight update {step.weight_update_bits() / 8e6:.1f} MB/step"
    )
    if args.json:
        _write_bench_json(
            args.json,
            {
                "training_step": {
                    "network": step.network,
                    "batch": step.batch,
                    "total_cycles": step.total_cycles,
                    "forward_cycles": step.total_forward_cycles,
                    "backward_cycles": step.total_backward_cycles,
                    "iterations_per_second": step.iterations_per_second(),
                    "weight_update_elements": step.weight_update_elements,
                },
            },
            {
                "repro_training_step_cycles": step.total_cycles,
                "repro_training_iterations_per_second": (
                    step.iterations_per_second()
                ),
            },
        )


def _cmd_map(args) -> None:
    world = make_environment(args.env, seed=args.seed)
    print(render_world_ascii(world))


def _cmd_report(args) -> None:
    from repro.analysis import write_report

    out = write_report(args.results, args.output)
    print(f"wrote {out}")


def _cmd_roofline(_args) -> None:
    from repro.perf import RooflineModel

    spec = modified_alexnet_spec()
    model = RooflineModel()
    print(
        f"peak {model.peak_gmacs:.0f} GMAC/s | stream {model.stream_gbytes:.0f} "
        f"GB/s | ridge {model.ridge_intensity:.0f} MAC/B"
    )
    rows = [
        [
            p.layer,
            round(p.operational_intensity, 2),
            round(p.attainable_gmacs, 1),
            "compute" if p.compute_bound else "bandwidth",
        ]
        for p in model.analyze_network(spec)
    ]
    print(format_table(["Layer", "MAC/B", "GMAC/s", "Bound"], rows))


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the DATE 2019 STT-MRAM drone paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("fig1", _cmd_fig1), ("fig3", _cmd_fig3), ("fig5", _cmd_fig5),
        ("fig6", _cmd_fig6), ("fig12", _cmd_fig12), ("fig13", _cmd_fig13),
        ("params", _cmd_params), ("roofline", _cmd_roofline),
    ]:
        p = sub.add_parser(name, help=fn.__doc__)
        p.set_defaults(func=fn)
    p_tl = sub.add_parser(
        "timeline", help="Gantt chart of one training pass on the platform"
    )
    p_tl.add_argument("--config", default="L3", choices=["L2", "L3", "L4", "E2E"])
    p_tl.set_defaults(func=_cmd_timeline)
    p_rl = sub.add_parser("rl", help="run the scaled TL + online-RL experiment")
    p_rl.add_argument("--env", default="indoor-apartment", choices=sorted(ENVIRONMENTS))
    p_rl.add_argument("--iters", type=int, default=800)
    p_rl.add_argument("--seed", type=int, default=0)
    p_rl.set_defaults(func=_cmd_rl)
    p_fleet = sub.add_parser(
        "fleet", help="vectorized multi-env rollout/train/evaluate rounds"
    )
    p_fleet.add_argument(
        "--envs", nargs="*", choices=sorted(ENVIRONMENTS), default=None,
        help="environment classes to cycle over (default: all)",
    )
    p_fleet.add_argument("--num-envs", type=int, default=16)
    p_fleet.add_argument("--rounds", type=int, default=2)
    p_fleet.add_argument("--steps", type=int, default=150,
                         help="fleet steps per round")
    p_fleet.add_argument("--train-every", type=int, default=2)
    p_fleet.add_argument("--eval-steps", type=int, default=50)
    p_fleet.add_argument("--image-side", type=int, default=16)
    p_fleet.add_argument("--config", default="L4",
                         choices=["L2", "L3", "L4", "E2E"])
    p_fleet.add_argument(
        "--backend", default="numpy",
        choices=sorted(BACKENDS),
        help="execution backend for action selection: float numpy "
             "(default), 16-bit fixed point, the quantized systolic "
             "datapath with per-step cycle budgets, or K sharded "
             "systolic arrays (see --shards/--shard-policy)",
    )
    p_fleet.add_argument(
        "--shards", type=_positive_int, default=4,
        help="number of systolic arrays composed by --backend sharded",
    )
    p_fleet.add_argument(
        "--shard-policy", default="sample",
        choices=["sample", "layer", "pipeline"],
        help="sharded backend policy: split the observation batch "
             "(sample), each layer's filters/neurons (layer), or "
             "stage the layers across arrays and stream the batch "
             "through in micro-batches (pipeline)",
    )
    p_fleet.add_argument(
        "--noc", default="flat", choices=list(NOC_TOPOLOGIES),
        help="inter-array interconnect model for --backend sharded: "
             "the legacy 1-cycle-per-element single-hop model (flat, "
             "default — reproduces all pinned sharding numbers), a "
             "bidirectional ring, or a 2D mesh, both over 128-bit "
             "links at the quantised word width",
    )
    p_fleet.add_argument(
        "--sync-every", type=_positive_int, default=1,
        help="weight-bus flip cadence: the deployed datapath refreshes "
             "its quantised snapshot every N training updates "
             "(1 = synchronous write-back)",
    )
    p_fleet.add_argument(
        "--pipeline-chunk", type=_positive_int, default=None,
        help="rollout chunk size (fleet steps) of the interleaved "
             "rollout/train pipeline (default: --train-every, the "
             "finest-grained pipeline the training cadence allows)",
    )
    p_fleet.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="run under deterministic fault injection: a bare seed "
             "(default chaos mix) or key=value tokens, e.g. "
             "'seed=7,crash=1@30,sram=auto,drop=0.1' "
             "(see repro.faults.parse_fault_spec)",
    )
    p_fleet.add_argument(
        "--train-on-array", action="store_true",
        help="charge every training update to the backend's array "
             "(whole-network forward + backward GEMM cycle model) and "
             "project concurrent rollout+training feasibility",
    )
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record spans and write a Chrome trace-event JSON file "
             "(load in chrome://tracing or ui.perfetto.dev)",
    )
    p_fleet.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text exposition "
             "format to this path",
    )
    p_fleet.add_argument(
        "--json", default=None, metavar="PATH",
        help="write a machine-readable payload (rounds, totals, "
             "projection, per-phase timings, metrics snapshot)",
    )
    p_fleet.set_defaults(func=_cmd_fleet)
    p_sys = sub.add_parser(
        "systolic-bench",
        help="paper-scale AlexNet forward through the systolic datapath "
             "(per-layer wall time, MACs, modelled array cycles)",
    )
    p_sys.add_argument("--batch", type=int, default=1,
                       help="AlexNet forward (or training step) batch size")
    p_sys.add_argument("--training", action="store_true",
                       help="whole-network training-step mode: paper-scale "
                            "closed-form fwd/dW/dX cycle table")
    p_sys.add_argument("--json", default=None,
                       help="also write machine-readable results to this path")
    p_sys.add_argument("--seed", type=int, default=0)
    p_sys.set_defaults(func=_cmd_systolic_bench)
    p_map = sub.add_parser("map", help="render an environment as ASCII art")
    p_map.add_argument("--env", default="indoor-apartment", choices=sorted(ENVIRONMENTS))
    p_map.add_argument("--seed", type=int, default=0)
    p_map.set_defaults(func=_cmd_map)
    p_report = sub.add_parser(
        "report", help="aggregate benchmark artifacts into one markdown report"
    )
    p_report.add_argument("--results", default="benchmarks/results")
    p_report.add_argument("--output", default="benchmarks/results/REPORT.md")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0
