"""Executing reference for the priced shard schedules.

``ShardedBackend`` serves every shard policy as one datapath forward
over the whole batch plus a closed-form price of the schedule.  This
module keeps the schedule the price stands for as code that *runs* it:
the batch really splits into chunks (sample) or micro-batches × stages
(pipeline), or every array really holds its own sliced copy of each
layer and computes its output slice from the broadcast activation
(layer); every piece executes, and the cost is read off the executed
cycle counts.  It plays the role ``tests/pe_reference.py`` plays for
the kernels — slow, literal, and the oracle the fast path is checked
against in ``tests/``.

:func:`reference_train_cost` is the matching literal walk of the
training schedules (data-parallel gradient all-reduce, pipelined
forward + backward with boundary gradients and replicated-stage
reductions, model-parallel slices with partial-dX reductions).
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend.base import StepCost
from repro.backend.sharded import _pipeline_schedule
from repro.backend.systolic_backend import SystolicBackend
from repro.faults.injector import FAULTS
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.network import Network
from repro.obs.probes import PROBE
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


def reference_forward(backend, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
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
    return _forward_layer(backend, x)


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
        q_k, cost_k = backend.datapath.forward_batch(chunk)
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
    return q_values, StepCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
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
    child = backend.datapath
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
                    h, cycles, macs_m = child.forward_layer(layer, h)
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
    return q_values, StepCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        merge_hops=merge_hops, fill_drain_cycles=fill_drain,
        noc=backend.noc,
    )


def reference_train_cost(
    backend, batch_size: int, state_shape, first_trainable: int = 0
) -> StepCost:
    """The sample / pipeline training schedules, walked literally."""
    alive = (
        [k for k in range(backend.shards) if k not in FAULTS.injector.dead_shards]
        if FAULTS.enabled
        else list(range(backend.shards))
    )
    if not alive:
        return StepCost(
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
    return _train_cost_layer(
        backend, batch_size, state_shape, first_trainable, alive
    )


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
    return StepCost(
        backend=backend.name, states=batch_size, macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
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
    return StepCost(
        backend=backend.name, states=batch_size, macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical, merge_cycles=merge,
        merge_hops=merge_hops, fill_drain_cycles=fill_drain,
        noc=backend.noc,
    )


# ----------------------------------------------------------------------
# Layer policy: per-array sliced copies of every parametric layer
# ----------------------------------------------------------------------
def _slice_layer(layer, lo: int, hi: int):
    """A copy of ``layer`` holding output slice ``[lo:hi)`` of its weights.

    Conv2D slices the filter axis, Dense the output-feature axis; the
    input dimension stays full because layer sharding broadcasts the
    whole activation to every array.  Weight *values* are placeholders
    until :func:`_copy_slice` copies the live slice in.
    """
    if isinstance(layer, Conv2D):
        return Conv2D(
            layer.in_channels, hi - lo, layer.kernel_size,
            stride=layer.stride, pad=layer.pad, name=layer.name,
        )
    return Dense(layer.in_features, hi - lo, name=layer.name)


def _copy_slice(src, dst, lo: int, hi: int) -> None:
    """Copy output slice ``[lo:hi)`` of ``src``'s weights into ``dst``."""
    if isinstance(src, Conv2D):
        dst.weight.value[...] = src.weight.value[lo:hi]
    else:
        dst.weight.value[...] = src.weight.value[:, lo:hi]
    dst.bias.value[...] = src.bias.value[lo:hi]


def _slice_arrays(backend, alive):
    """Slice every parametric layer over the ``alive`` arrays.

    Returns ``(plan, arrays)``: ``plan[index]`` lists
    ``(array, sliced layer)`` for parametric layer ``index`` (arrays
    left idle by a layer narrower than the survivors get no slice of
    it), and ``arrays[k]`` is array ``k``'s own systolic datapath over
    its sliced sub-network, downloaded from the live weights.
    """
    plan: dict[int, list] = {}
    per_array: dict[int, list] = {k: [] for k in alive}
    for index, layer in backend.network.parametric_layers():
        width = (
            layer.out_channels if isinstance(layer, Conv2D) else layer.out_features
        )
        bounds = np.linspace(0, width, len(alive) + 1).astype(int)
        plan[index] = []
        for k, lo, hi in zip(alive, bounds, bounds[1:]):
            if hi <= lo:
                continue  # layer narrower than the survivors: k idles
            sliced = _slice_layer(layer, int(lo), int(hi))
            _copy_slice(layer, sliced, int(lo), int(hi))
            plan[index].append((k, sliced))
            per_array[k].append(sliced)
    datapath = backend.datapath
    arrays = {
        k: SystolicBackend(
            Network(layers or [Dense(1, 1, name=f"idle{k}")], name=f"shard{k}"),
            config=datapath.config, quantized=datapath.quantized,
            weight_format=datapath.weight_format,
            activation_format=datapath.activation_format,
        )
        for k, layers in per_array.items()
    }
    return plan, arrays


def _forward_layer(backend, x):
    """Every array computes its output slice of each layer, executed.

    After each parametric layer the slices gather to the layer's hub
    (its first array) into the full activation; the activation the next
    parametric layer consumes is broadcast from there to every other
    array computing it.
    """
    n = x.shape[0]
    active = backend._active_shards()
    if not active:
        return backend._forward_degraded(x)
    plan, arrays = _slice_arrays(backend, active)
    requantize = backend.datapath._requantize
    h = requantize(x)
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = 0
    critical = 0
    transfers = []
    hub = None
    for index, layer in enumerate(backend.network.layers):
        if index not in plan:
            h = layer.forward(h, training=False)
        else:
            if hub is not None:
                transfers += [(h.size, hub, k) for k, _sliced in plan[index]]
            parts = []
            slice_cycles = []
            for k, sliced in plan[index]:
                start = time.perf_counter_ns()
                out_k, cycles_k, macs_k = arrays[k].forward_layer(sliced, h)
                PROBE.record_span(
                    "shard.forward", time.perf_counter_ns() - start,
                    cycles=cycles_k, shard=k, layer=layer.name,
                )
                parts.append(out_k)
                shard_cycles[k] += cycles_k
                slice_cycles.append(cycles_k)
                macs += macs_k
            h = np.concatenate(parts, axis=1)
            name = layer.name
            while name in layer_cycles:
                name += "'"
            layer_cycles[name] = sum(slice_cycles)
            hub = plan[index][0][0]
            transfers += [
                (part.size, k, hub) for (k, _sliced), part in zip(plan[index], parts)
            ]
            critical += max(slice_cycles)
        h = requantize(h)
    if FAULTS.enabled:
        # Retries and stragglers stretch each array's slices; every
        # layer barrier waits on them.
        for k in active:
            if shard_cycles[k]:
                extra = backend._chaos_extra(k, shard_cycles[k])
                shard_cycles[k] += extra
                critical += extra
    shipped = [_ship(backend, *transfer) for transfer in transfers]
    merge = sum(cycles for cycles, _hops in shipped)
    return h, StepCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical + merge, merge_cycles=merge,
        merge_hops=sum(hops for _cycles, hops in shipped), noc=backend.noc,
    )


def _train_cost_layer(backend, batch_size, state_shape, first_trainable, alive):
    """Model-parallel training: each array trains its own slices.

    Every slice is costed as a one-layer network on the closed-form
    oracle.  The forward pays the inference broadcasts and gathers; the
    backward then walks the parametric layers top down, and wherever a
    trainable layer has a trainable layer below it, every array of the
    upper layer ships its partial dX to the upper hub, which sends the
    sum to every array of the lower layer.
    """
    plan, _arrays = _slice_arrays(backend, alive)
    c, h, w = (int(v) for v in state_shape)
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = 0
    critical = 0
    transfers = []
    walked = []  # (arrays, input elements, trainable) per parametric layer
    for index, layer in enumerate(backend.network.layers):
        if index not in plan:
            if isinstance(layer, MaxPool2D):
                h, w = layer.output_shape(h, w)
            continue
        trainable = index >= first_trainable
        is_conv = isinstance(layer, Conv2D)
        in_shape = (c, h, w) if is_conv else (layer.in_features, 1, 1)
        if is_conv:
            c, h, w = layer.output_shape(h, w)
        arrays = [k for k, _sliced in plan[index]]
        in_elements = batch_size * int(np.prod(in_shape))
        if walked:
            prev_hub = walked[-1][0][0]
            transfers += [(in_elements, prev_hub, k) for k in arrays]
        slice_cycles = []
        for k, sliced in plan[index]:
            step = network_training_step_cost(
                Network([sliced], name=f"shard{k}"), in_shape, batch_size,
                config=backend.config, first_trainable=0 if trainable else 1,
            )
            shard_cycles[k] += step.total_cycles
            slice_cycles.append(step.total_cycles)
            macs += step.total_macs
            out_width = sliced.out_channels if is_conv else sliced.out_features
            transfers.append(
                (batch_size * out_width * (h * w if is_conv else 1), k, arrays[0])
            )
        name = layer.name
        while name in layer_cycles:
            name += "'"
        layer_cycles[name] = sum(slice_cycles)
        critical += max(slice_cycles)
        walked.append((arrays, in_elements, trainable))
    for (below, _elements, below_trainable), (arrays, in_elements, trainable) in (
        reversed(list(zip(walked, walked[1:])))
    ):
        if trainable and below_trainable:
            transfers += [(in_elements, k, arrays[0]) for k in arrays]
            transfers += [(in_elements, arrays[0], k) for k in below]
    shipped = [_ship(backend, *transfer) for transfer in transfers]
    merge = sum(cycles for cycles, _hops in shipped)
    return StepCost(
        backend=backend.name, states=batch_size, macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical + merge, merge_cycles=merge,
        merge_hops=sum(hops for _cycles, hops in shipped), noc=backend.noc,
    )
