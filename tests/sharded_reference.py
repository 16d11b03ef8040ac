"""Executing reference for the priced ``sample`` / ``pipeline`` schedules.

``ShardedBackend`` serves the ``sample`` and ``pipeline`` policies as one
datapath forward over the whole batch plus a closed-form price of the
chunked schedule.  This module keeps the schedule the price stands for
as code that *runs* it: the batch really splits into chunks (sample) or
micro-batches × stages (pipeline), every piece executes on the child
array, and the cost is read off the executed cycle counts.  It plays the
role ``fidelity="pe"`` plays for the kernels — slow, literal, and the
oracle the fast path is checked against in ``tests/``.

:func:`reference_train_cost` is the matching literal walk of the
training schedules (data-parallel gradient all-reduce, pipelined
forward + backward with boundary gradients and replicated-stage
reductions).
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend.base import ShardCost
from repro.backend.sharded import _argmax, _pipeline_schedule
from repro.faults.injector import FAULTS
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.obs.probes import PROBE
from repro.systolic.functional import FunctionalSystolicArray
from repro.systolic.training import network_training_step_cost


def _parametric_input_elements(network, state_shape) -> list[int]:
    """Per-row element count of each parametric layer's input tensor."""
    c, h, w = (int(v) for v in state_shape)
    elements: list[int] = []
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            elements.append(c * h * w)
            c, h, w = layer.output_shape(h, w)
        elif isinstance(layer, MaxPool2D):
            h, w = layer.output_shape(h, w)
        elif isinstance(layer, Dense):
            elements.append(layer.in_features)
    return elements


def _ship(backend, elements: int, src: int, dst: int) -> tuple[int, int]:
    """NoC (cycles, element-hops) of one inter-array transfer."""
    return (
        backend._noc.transfer_cycles(elements, src, dst),
        backend._noc.element_hops(elements, src, dst),
    )


def reference_forward(backend, states: np.ndarray) -> tuple[np.ndarray, ShardCost]:
    """Execute ``backend``'s sample or pipeline schedule piece by piece."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
    if FAULTS.enabled:
        backend._chaos_forward = FAULTS.injector.note_forward()
    if backend.shard == "sample":
        return _forward_sample(backend, x)
    if backend.shard == "pipeline":
        return _forward_pipeline(backend, x)
    raise ValueError(f"no executing reference for shard={backend.shard!r}")


def _forward_sample(backend, x):
    """Each array runs the whole network over its batch chunk."""
    n = x.shape[0]
    active = backend._active_shards()
    if not active:
        return backend._forward_degraded(x)
    chunks = np.array_split(x, len(active))
    outputs = []
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = 0
    merge = 0
    merge_hops = 0
    root = active[0]
    for k, chunk in zip(active, chunks):
        if chunk.shape[0] == 0:
            continue  # batch narrower than K: array k idles
        start = time.perf_counter_ns()
        q_k, cost_k = backend.children[0].forward_batch(chunk)
        PROBE.record_span(
            "shard.forward", time.perf_counter_ns() - start,
            cycles=cost_k.total_cycles, shard=k, states=chunk.shape[0],
        )
        outputs.append(q_k)
        cycles_k = cost_k.total_cycles
        if FAULTS.enabled:
            cycles_k += backend._chaos_extra(k, cycles_k)
        shard_cycles[k] = cycles_k
        macs += cost_k.macs
        for name, cycles in cost_k.layer_cycles.items():
            layer_cycles[name] = layer_cycles.get(name, 0) + cycles
        if k != root:
            cycles, hops = _ship(backend, q_k.size, k, root)
            merge += cycles
            merge_hops += hops
    q_values = np.concatenate(outputs, axis=0)
    critical = max(shard_cycles) + merge
    return q_values, ShardCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles),
        merge_hops=merge_hops, noc=backend.noc,
    )


def _forward_pipeline(backend, x):
    """Micro-batches stream through the stages, each piece executed."""
    n = x.shape[0]
    active = backend._active_shards()
    if not active:
        return backend._forward_degraded(x)
    chunk_rows = backend.pipeline_chunk or max(1, n // (8 * len(active)))
    num_chunks = max(1, -(-n // chunk_rows))
    plan, _sizes = backend._pipeline_plan(tuple(active), x.shape[1:], n)
    chunks = [
        chunk for chunk in np.array_split(x, num_chunks) if chunk.shape[0] > 0
    ]
    num_chunks = len(chunks)
    stages = plan.stages
    times = [[0] * num_chunks for _ in range(stages)]
    walls = [[0] * num_chunks for _ in range(stages)]
    boundary_sizes = [[0] * num_chunks for _ in range(stages)]
    layer_cycles: dict[str, int] = {}
    macs = 0
    outputs = []
    pe_sim = (
        FunctionalSystolicArray(backend.config, fidelity="pe")
        if backend.fidelity == "pe"
        else None
    )
    child = backend.children[0]
    requantize = child._requantize
    for m, chunk in enumerate(chunks):
        h = requantize(chunk)
        for s, (lo, hi) in enumerate(plan.layer_ranges):
            if s > 0:
                boundary_sizes[s][m] = h.size
            start = time.perf_counter_ns()
            stage_cycles = 0
            for index in range(lo, hi):
                layer = backend.network.layers[index]
                if isinstance(layer, (Conv2D, Dense)):
                    h, cycles, macs_m = child.forward_layer(layer, h, pe_sim)
                    stage_cycles += cycles
                    macs += macs_m
                    layer_cycles[layer.name] = (
                        layer_cycles.get(layer.name, 0) + cycles
                    )
                else:
                    h = layer.forward(h, training=False)
                h = requantize(h)
            times[s][m] = stage_cycles
            walls[s][m] = time.perf_counter_ns() - start
        outputs.append(h)
    q_values = np.concatenate(outputs, axis=0)
    critical_compute, busy, assign = _pipeline_schedule(times, plan.widths)
    shard_cycles = [0] * backend.shards
    for s, arrays in enumerate(plan.stage_arrays):
        for a, orig in enumerate(arrays):
            shard_cycles[orig] = busy[s][a]
    for s in range(stages):
        for m in range(num_chunks):
            PROBE.record_span(
                "shard.forward", walls[s][m], cycles=times[s][m],
                shard=plan.stage_arrays[s][assign[s][m]],
                stage=s, states=chunks[m].shape[0],
            )
    merge = 0
    merge_hops = 0
    for s in range(1, stages):
        for m in range(num_chunks):
            cycles, hops = _ship(
                backend,
                boundary_sizes[s][m],
                plan.stage_arrays[s - 1][assign[s - 1][m]],
                plan.stage_arrays[s][assign[s][m]],
            )
            merge += cycles
            merge_hops += hops
    q_hub = plan.stage_arrays[-1][0]
    for m, out in enumerate(outputs):
        src = plan.stage_arrays[-1][assign[-1][m]]
        if src != q_hub:
            cycles, hops = _ship(backend, out.size, src, q_hub)
            merge += cycles
            merge_hops += hops
    if FAULTS.enabled:
        for orig in active:
            if shard_cycles[orig] == 0:
                continue
            extra = backend._chaos_extra(orig, shard_cycles[orig])
            shard_cycles[orig] += extra
            critical_compute += extra
    fill_drain = critical_compute - max(shard_cycles)
    critical = critical_compute + merge
    return q_values, ShardCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles),
        merge_hops=merge_hops, fill_drain_cycles=fill_drain,
        noc=backend.noc,
    )


def reference_train_cost(
    backend, batch_size: int, state_shape, first_trainable: int = 0
) -> ShardCost:
    """The sample / pipeline training schedules, walked literally."""
    alive = (
        [k for k in range(backend.shards) if k not in FAULTS.injector.dead_shards]
        if FAULTS.enabled
        else list(range(backend.shards))
    )
    if not alive:
        return ShardCost(
            backend=backend.name, states=batch_size,
            shards=backend.shards, shard_cycles=(0,) * backend.shards,
            noc=backend.noc,
        )
    if backend.shard == "sample":
        return _train_cost_sample(
            backend, batch_size, state_shape, first_trainable, alive
        )
    if backend.shard == "pipeline":
        return _train_cost_pipeline(
            backend, batch_size, state_shape, first_trainable, alive
        )
    raise ValueError(f"no training reference for shard={backend.shard!r}")


def _train_cost_sample(backend, batch_size, state_shape, first_trainable, alive):
    """Data-parallel training: chunked batch, gradient all-reduce."""
    sizes = [
        len(chunk) for chunk in np.array_split(np.arange(batch_size), len(alive))
    ]
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = 0
    contributors = []
    for k, size in zip(alive, sizes):
        if size == 0:
            continue
        contributors.append(k)
        step = network_training_step_cost(
            backend.network, state_shape, size,
            config=backend.config, first_trainable=first_trainable,
        )
        shard_cycles[k] = step.total_cycles
        macs += step.total_macs
        for layer in step.layers:
            name = layer.name
            layer_cycles[name] = layer_cycles.get(name, 0) + layer.total_cycles
    grad_elements = sum(
        p.size for p in backend.network.parameters(first_trainable)
    )
    merge = 0
    merge_hops = 0
    root = contributors[0] if contributors else alive[0]
    for k in contributors[1:]:
        cycles, hops = _ship(backend, grad_elements, k, root)
        merge += cycles
        merge_hops += hops
    critical = max(shard_cycles) + merge
    return ShardCost(
        backend=backend.name, states=batch_size, macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles),
        merge_hops=merge_hops, noc=backend.noc,
    )


def _train_cost_pipeline(backend, batch_size, state_shape, first_trainable, alive):
    """Pipelined training: micro-batches stream through the stages."""
    network = backend.network
    state_shape = tuple(int(v) for v in state_shape)
    chunk_rows = backend.pipeline_chunk or max(1, batch_size // (8 * len(alive)))
    num_chunks = max(1, -(-batch_size // chunk_rows))
    plan, _sizes = backend._pipeline_plan(tuple(alive), state_shape, batch_size)
    sizes = [
        len(chunk)
        for chunk in np.array_split(np.arange(batch_size), num_chunks)
        if len(chunk) > 0
    ]
    num_chunks = len(sizes)
    steps = {
        size: network_training_step_cost(
            network, state_shape, size,
            config=backend.config, first_trainable=first_trainable,
        )
        for size in set(sizes)
    }
    stages = plan.stages
    times = [[0] * num_chunks for _ in range(stages)]
    layer_cycles: dict[str, int] = {}
    macs = 0
    for m, size in enumerate(sizes):
        step = steps[size]
        macs += step.total_macs
        for s in range(stages):
            lo, hi = plan.param_bounds[s], plan.param_bounds[s + 1]
            times[s][m] = sum(cost.total_cycles for cost in step.layers[lo:hi])
        for cost in step.layers:
            layer_cycles[cost.name] = (
                layer_cycles.get(cost.name, 0) + cost.total_cycles
            )
    critical_compute, busy, assign = _pipeline_schedule(times, plan.widths)
    shard_cycles = [0] * backend.shards
    for s, arrays in enumerate(plan.stage_arrays):
        for a, orig in enumerate(arrays):
            shard_cycles[orig] = busy[s][a]
    merge = 0
    merge_hops = 0
    boundary_rows = _parametric_input_elements(network, state_shape)
    param_indices = [i for i, _l in network.parametric_layers()]
    ref_layers = steps[sizes[0]].layers
    for s in range(1, stages):
        first_param = plan.param_bounds[s]
        rows = boundary_rows[first_param]
        grad_crosses = param_indices[first_param - 1] >= first_trainable
        for m in range(num_chunks):
            src = plan.stage_arrays[s - 1][assign[s - 1][m]]
            dst = plan.stage_arrays[s][assign[s][m]]
            elements = sizes[m] * rows * (2 if grad_crosses else 1)
            cycles, hops = _ship(backend, elements, src, dst)
            merge += cycles
            merge_hops += hops
    for s, arrays in enumerate(plan.stage_arrays):
        if len(arrays) <= 1:
            continue
        lo, hi = plan.param_bounds[s], plan.param_bounds[s + 1]
        stage_grad = sum(cost.weight_elements for cost in ref_layers[lo:hi])
        for orig in arrays[1:]:
            cycles, hops = _ship(backend, stage_grad, orig, arrays[0])
            merge += cycles
            merge_hops += hops
    fill_drain = critical_compute - max(shard_cycles)
    critical = critical_compute + merge
    return ShardCost(
        backend=backend.name, states=batch_size, macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles),
        merge_hops=merge_hops, fill_drain_cycles=fill_drain,
        noc=backend.noc,
    )
