"""Executing reference for the priced shard plans.

``ShardedBackend`` serves every :class:`~repro.backend.sharded.ShardPlan`
as one datapath forward over the whole batch plus a closed-form price
of the plan.  This module keeps the schedule the price stands for as
code that *runs* it, for any plan: the batch really splits into the
plan's micro-batches; a batch-split stage runs each of them through
its layers on one array's full weight copy; every array of an
output-split stage really holds its own sliced copy of each of the
stage's layers and computes its output slice from the broadcast
activation.  Every piece executes, and the cost is read off the
executed cycle counts and the sizes of the tensors that actually
moved.  It never calls the price.  It plays the role
``tests/pe_reference.py`` plays for the kernels — slow, literal, and
the oracle the fast path is checked against in ``tests/``.

:func:`reference_train_cost` is the matching literal walk of a training
step over the plan: every piece is costed as a one-layer network on the
closed-form training oracle.
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


def _slice_layer(layer, lo: int, hi: int):
    """A copy of ``layer`` holding output slice ``[lo:hi)`` of its weights.

    Conv2D slices the filter axis, Dense the output-feature axis; the
    input dimension stays full because an output split broadcasts the
    whole activation to every array.
    """
    if isinstance(layer, Conv2D):
        sliced = Conv2D(
            layer.in_channels, hi - lo, layer.kernel_size,
            stride=layer.stride, pad=layer.pad, name=layer.name,
        )
        sliced.weight.value[...] = layer.weight.value[lo:hi]
    else:
        sliced = Dense(layer.in_features, hi - lo, name=layer.name)
        sliced.weight.value[...] = layer.weight.value[:, lo:hi]
    sliced.bias.value[...] = layer.bias.value[lo:hi]
    return sliced


def _width(layer) -> int:
    return layer.out_channels if isinstance(layer, Conv2D) else layer.out_features


def _layout(backend, plan):
    """Where every parametric layer's pieces live under ``plan``.

    Returns ``(stage_of, pieces)``: ``stage_of[p]`` is the stage of
    parametric layer ``p`` and ``pieces[index]`` lists
    ``(array, layer, datapath)`` for the layer at ``index`` in the
    built stack.  A batch-split stage runs the whole layer on the
    serving datapath (array ``None``: the schedule decides which of the
    stage's arrays takes a micro-batch); an output-split stage gives
    each array its own sliced copy on its own datapath, downloaded from
    the live weights.
    """
    params = backend.network.parametric_layers()
    stage_of = [
        s for s, (lo, hi) in enumerate(zip(plan.bounds, plan.bounds[1:]))
        for _ in range(lo, hi)
    ]
    pieces: dict[int, list] = {}
    owned: dict[int, list] = {}
    for p, (index, layer) in enumerate(params):
        s = stage_of[p]
        if plan.splits[s] == "batch":
            pieces[index] = [(None, layer, backend.datapath)]
            continue
        cuts = np.linspace(0, _width(layer), len(plan.arrays[s]) + 1).astype(int)
        pieces[index] = []
        for k, lo, hi in zip(plan.arrays[s], cuts, cuts[1:]):
            if hi > lo:  # a layer narrower than the stage idles k
                sliced = _slice_layer(layer, int(lo), int(hi))
                pieces[index].append((k, sliced, None))
                owned.setdefault(k, []).append(sliced)
    datapath = backend.datapath
    arrays = {
        k: SystolicBackend(
            Network(layers, name=f"shard{k}"),
            config=datapath.config,
            weight_format=datapath.weight_format,
            activation_format=datapath.activation_format,
        )
        for k, layers in owned.items()
    }
    for index, entries in pieces.items():
        pieces[index] = [
            (k, layer, arrays[k] if dp is None else dp) for k, layer, dp in entries
        ]
    return stage_of, pieces


def reference_forward(backend, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
    """Execute ``backend``'s plan for ``states`` piece by piece."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
    if FAULTS.enabled:
        backend._chaos_forward = FAULTS.injector.note_forward()
    alive = backend._active_shards()
    if not alive:
        return backend._forward_degraded(x)
    plan = backend.plan(x.shape[0], x.shape[1:], tuple(alive))
    stage_of, pieces = _layout(backend, plan)
    requantize = backend.activation_format.quantize
    runs = []
    outputs = []
    for chunk in np.split(x, np.cumsum(plan.sizes)[:-1]):
        h = requantize(chunk)
        run = []
        for index, layer in enumerate(backend.network.layers):
            if index not in pieces:
                h = requantize(layer.forward(h, training=False))
                continue
            executed = []
            parts = []
            for k, piece, datapath in pieces[index]:
                start = time.perf_counter_ns()
                out, cycles, macs = datapath.forward_layer(piece, h)
                wall = time.perf_counter_ns() - start
                executed.append((k, cycles, macs, out.size, wall))
                parts.append(out)
            run.append((h.size, layer.name, executed))
            h = requantize(np.concatenate(parts, axis=1))
        runs.append(run)
        outputs.append(h)
    cost = _bill(
        backend, plan, stage_of, runs, None, [out.size for out in outputs]
    )
    return np.concatenate(outputs, axis=0), cost


def reference_train_cost(
    backend, batch_size: int, state_shape, first_trainable: int = 0
) -> StepCost:
    """A training step over ``backend``'s plan, walked piece by piece."""
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
    state_shape = tuple(int(v) for v in state_shape)
    plan = backend.plan(batch_size, state_shape, tuple(alive))
    stage_of, pieces = _layout(backend, plan)
    runs = []
    for rows in plan.sizes:
        c, h, w = state_shape
        run = []
        for index, layer in enumerate(backend.network.layers):
            if isinstance(layer, MaxPool2D):
                h, w = layer.output_shape(h, w)
            if index not in pieces:
                continue
            in_shape = (c, h, w) if isinstance(layer, Conv2D) else (
                layer.in_features, 1, 1
            )
            if isinstance(layer, Conv2D):
                _c, h, w = layer.output_shape(h, w)
            c, unit = _width(layer), h * w if isinstance(layer, Conv2D) else 1
            walked = []
            for k, piece, _datapath in pieces[index]:
                step = network_training_step_cost(
                    Network([piece], name="piece"), in_shape, rows,
                    config=backend.config,
                    first_trainable=0 if index >= first_trainable else 1,
                )
                walked.append((
                    k, step.total_cycles, step.total_macs,
                    rows * _width(piece) * unit, 0,
                ))
            run.append((rows * int(np.prod(in_shape)), layer.name, walked))
        runs.append(run)
    return _bill(backend, plan, stage_of, runs, first_trainable, None)


def _bill(backend, plan, stage_of, runs, first_trainable, q_sizes):
    """The cost of the executed pieces ``runs`` scheduled under ``plan``.

    ``runs[m][p]`` is ``(input elements, layer name, pieces)`` for
    parametric layer ``p`` on micro-batch ``m``, each piece
    ``(array, cycles, macs, output elements, wall ns)``.  Inference
    (``first_trainable=None``) gathers the ``q_sizes`` output elements
    of every micro-batch, emits the spans and absorbs this forward's
    chaos draws.
    """
    network = backend.network
    params = [index for index, _layer in network.parametric_layers()]
    stages = list(zip(plan.bounds, plan.bounds[1:]))
    training = first_trainable is not None
    times = [
        [
            sum(max(piece[1] for piece in run[p][2]) for p in range(lo, hi))
            for run in runs
        ]
        for lo, hi in stages
    ]
    widths = [
        len(arrays) if split == "batch" else 1
        for arrays, split in zip(plan.arrays, plan.splits)
    ]
    compute, busy, assign = _pipeline_schedule(times, widths)

    def where(p, m):
        """The executed pieces of layer ``p`` on micro-batch ``m``, each
        on the array that ran it."""
        s = stage_of[p]
        served = plan.arrays[s][assign[s][m]]
        return [(served if piece[0] is None else piece[0],) + piece[1:]
                for piece in runs[m][p][2]]

    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = 0
    transfers = []
    for m, run in enumerate(runs):
        names: list[str] = []
        for p, (in_elements, name, _executed) in enumerate(run):
            here = where(p, m)
            hub = here[0][0]
            if p > 0:
                below = where(p - 1, m)
                grad = training and params[p - 1] >= first_trainable
                whole = (
                    plan.splits[stage_of[p - 1]] == "batch"
                    and plan.splits[stage_of[p]] == "batch"
                )
                if whole:
                    # One array to one array: the activation goes up and
                    # its dX comes back in a single transfer.
                    transfers.append(
                        (in_elements * (2 if grad else 1), below[0][0], hub)
                    )
                else:
                    transfers += [(in_elements, below[0][0], k) for k, *_ in here]
                    if grad:
                        transfers += [(in_elements, k, hub) for k, *_ in here]
                        transfers += [(in_elements, hub, k) for k, *_ in below]
            while name in names:
                name += "'"
            names.append(name)
            for k, cycles, piece_macs, out_elements, _wall in here:
                shard_cycles[k] += cycles
                macs += piece_macs
                layer_cycles[name] = layer_cycles.get(name, 0) + cycles
                transfers.append((out_elements, k, hub))
        if not training:
            last = len(run) - 1
            transfers.append((q_sizes[m], where(last, m)[0][0], where(last, 0)[0][0]))
    if training:
        for s, (lo, hi) in enumerate(stages):
            if plan.splits[s] == "batch":
                replica = sum(
                    param.size
                    for index in params[lo:hi] if index >= first_trainable
                    for param in network.layers[index].parameters()
                )
                root, *others = plan.arrays[s]
                transfers += [(replica, k, root) for k in others]
    else:
        for s, (lo, hi) in enumerate(stages):
            for m, rows in enumerate(plan.sizes):
                if plan.splits[s] == "batch":
                    PROBE.record_span(
                        "shard.forward",
                        sum(where(p, m)[0][4] for p in range(lo, hi)),
                        cycles=times[s][m], shard=where(lo, m)[0][0],
                        stage=s, states=rows,
                    )
                    continue
                for p in range(lo, hi):
                    for k, cycles, _macs, _out, wall in where(p, m):
                        PROBE.record_span(
                            "shard.forward", wall, cycles=cycles, shard=k,
                            stage=s, states=rows, layer=runs[m][p][1],
                        )
    lanes = []
    for s, arrays in enumerate(plan.arrays):
        if plan.splits[s] == "batch":
            lanes += [[busy[s][a], [k]] for a, k in enumerate(arrays)]
        else:
            lanes.append([busy[s][0], list(arrays)])
    if FAULTS.enabled and not training:
        # Retries and stragglers stretch each busy array.  One
        # batch-split stage waits on its slowest array; any other plan
        # takes every stretch onto its critical path.
        extra = [0] * backend.shards
        for k in range(backend.shards):
            if shard_cycles[k]:
                extra[k] = backend._chaos_extra(k, shard_cycles[k])
                shard_cycles[k] += extra[k]
        if plan.splits == ("batch",):
            compute = max(shard_cycles)
        else:
            compute += sum(extra)
        for lane in lanes:
            lane[0] += sum(extra[k] for k in lane[1])
    shipped = [
        (backend._noc.transfer_cycles(n, src, dst),
         backend._noc.element_hops(n, src, dst))
        for n, src, dst in transfers if src != dst
    ]
    merge = sum(cycles for cycles, _hops in shipped)
    return StepCost(
        backend=backend.name, states=sum(plan.sizes), macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=compute + merge, merge_cycles=merge,
        merge_hops=sum(hops for _cycles, hops in shipped),
        fill_drain_cycles=compute - max((lane[0] for lane in lanes), default=0),
        noc=backend.noc,
    )
