"""Multi-array execution backend: K systolic arrays behind one seam.

The ROADMAP's "serves heavy traffic" direction needs more than one
32x32 array.  :class:`ShardedBackend` models K simulated arrays over
one :class:`~repro.backend.systolic_backend.SystolicBackend` datapath
behind the ordinary ``forward_batch(states) -> (q_values, cost)``
seam, under three shard policies:

* ``shard="sample"`` — data parallelism: the observation batch splits
  into K contiguous chunks (:func:`numpy.array_split` semantics, so
  uneven batches work) and each array runs the *whole* network over
  its chunk with a full weight copy.  Only the Q-value gather crosses
  arrays.
* ``shard="layer"`` — tensor parallelism: every array holds ``1/K`` of
  each layer's weights (conv filters / FC output neurons, contiguous
  slices) and computes that slice of the layer's output from the full
  input activation; after every parametric layer the slices gather
  into the full activation, which is re-broadcast to all arrays for
  the next layer.
* ``shard="pipeline"`` — pipeline parallelism: the network's layers
  partition into contiguous *stages*, each stage owned by one or more
  arrays (heterogeneous widths: the stage assignment is balanced on
  the closed-form cycle oracle, and a hot stage may be replicated
  across several arrays, which then take micro-batches round-robin).
  The batch streams through the stages in ``pipeline_chunk``-sized
  micro-batches; the schedule's fill/drain bubbles are charged
  explicitly (``StepCost.fill_drain_cycles``) and only the
  stage-boundary activations cross arrays — so it keeps scaling where
  the layer policy's per-layer all-gather collapses.

All policies are **bitwise-equal** to the single-array path when
``quantized=True`` (the default): every sample's and every output
channel's arithmetic is the exact same integer datapath — splitting a
batch or slicing an output dimension removes no term and reorders no
per-element sum — and the re-quantisation between layers is
elementwise, so it commutes with the concatenation that merges shard
outputs.

**Plan, then price.**  Because the numerics cannot tell the schedules
apart, no policy re-executes the batch chunk by chunk, stage by stage
or slice by slice.  ``forward_batch`` runs *one* forward over the
whole batch on that datapath — one serving buffer, the paper's single
quantised SRAM copy of the weights — and prices the schedule in
closed form: one pure function per policy maps
``(plan, chunk sizes, state shape, survivors, NoC)`` to a
:class:`~repro.backend.base.StepCost`, built on the closed-form
per-layer cycle oracles of :mod:`repro.systolic.training` (whose
cycles equal the executed ones exactly).  The plan itself is a pure
function of the surviving arrays: chunk sizes (sample), the stage
layout (pipeline), or each parametric layer's ``(array, lo, hi)``
output slices (layer), so a crash failover re-plans without touching
the weights.  The same function prices ``train_cost`` — forward +
backward plus the gradient traffic instead of the Q-row gather — and
its fault-free result is memoised beside the oracles it is built on,
so a steady-state forward costs one single-array forward plus one memo
lookup.  Chaos retries and stragglers then stretch the priced
per-array cycles.  The executing schedules live on as a test-only
reference (``tests/sharded_reference.py``) that the priced costs are
checked against field by field — the role the loop-level PE oracle
(``tests/pe_reference.py``) plays for the kernels.

Costs come back as a :class:`~repro.backend.base.StepCost` with its
schedule fields filled: ``layer_cycles`` stay *work* (summed over
arrays — note each array charges its own FC tile loads, so sharded
work slightly exceeds single-array work), ``shard_cycles`` are
per-array totals, ``critical_path_cycles`` is the wall-clock of the
parallel schedule (max over arrays per parallel region, plus merge
traffic), and ``merge_cycles`` charges every element that crosses an
inter-array link (gathers, layer-sharding's re-broadcasts, pipeline
stage hand-offs) on the backend's :class:`~repro.systolic.noc.NocModel`
— the default ``flat`` topology is exactly the legacy
one-cycle-per-element model, while ``ring`` and ``mesh`` pay real hop
counts over 128-bit links.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.backend.base import ExecutionBackend, StepCost, register_backend
from repro.backend.systolic_backend import SystolicBackend
from repro.faults.injector import FAULTS
from repro.obs.probes import PROBE
from repro.fixedpoint.qformat import QFormat, Q2_13, Q8_8
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.network import Network
from repro.parallel import memo as _memo
from repro.systolic.array import ArrayConfig
from repro.systolic.noc import NocModel
from repro.systolic.training import (
    _conv_layer_cost,
    _fc_layer_cost,
    _network_cost_signature,
    network_training_step_cost,
)

__all__ = ["ShardedBackend", "SHARD_POLICIES"]

#: Supported shard policies.
SHARD_POLICIES = ("sample", "layer", "pipeline")


# ----------------------------------------------------------------------
# Pipeline policy: stage partitioning and the chunked schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelinePlan:
    """Stage layout of the ``pipeline`` policy over the alive arrays.

    ``param_bounds`` cuts the network's *parametric* layers into
    contiguous stages (``param_bounds[s] : param_bounds[s + 1]``);
    ``layer_ranges`` are the matching index ranges into the full built
    layer list (non-parametric layers ride with the stage of the
    parametric layer they follow).  ``stage_arrays[s]`` lists the
    original array indices serving stage ``s`` — more than one when the
    oracle replicated a hot stage.
    """

    param_bounds: tuple[int, ...]
    layer_ranges: tuple[tuple[int, int], ...]
    stage_arrays: tuple[tuple[int, ...], ...]

    @property
    def stages(self) -> int:
        return len(self.layer_ranges)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(arrays) for arrays in self.stage_arrays)


def _pipeline_schedule(
    times: list[list[int]], widths: list[int] | tuple[int, ...]
) -> tuple[int, list[list[int]], list[list[int]]]:
    """Makespan of the chunked pipeline schedule.

    ``times[s][m]`` — cycles stage ``s`` spends on micro-batch ``m``;
    ``widths[s]`` — arrays serving stage ``s``.  Chunks enter each
    stage in order; a replicated stage hands each chunk to its
    earliest-free array (ties to the lowest index), so the schedule is
    deterministic.  A chunk starts in stage ``s`` when it has left
    stage ``s - 1`` *and* its array is free.

    Returns ``(critical_cycles, busy, assign)``: the departure cycle of
    the last chunk from the last stage, each stage-array's total busy
    cycles, and ``assign[s][m]`` — which of stage ``s``'s arrays served
    chunk ``m``.  With uniform chunk times and width-1 stages the
    makespan is the textbook ``(chunks + stages - 1) * chunk_cycles``,
    i.e. fill/drain bubbles of exactly ``(stages - 1) * chunk_cycles``
    on top of the bottleneck array's busy time.
    """
    stages = len(times)
    chunks = len(times[0]) if stages else 0
    depart = [0] * chunks  # departure of chunk m from the previous stage
    busy: list[list[int]] = []
    assign: list[list[int]] = []
    for s in range(stages):
        free = [0] * widths[s]
        stage_busy = [0] * widths[s]
        stage_assign = [0] * chunks
        for m in range(chunks):
            a = min(range(widths[s]), key=free.__getitem__)
            start = max(depart[m], free[a])
            depart[m] = start + times[s][m]
            free[a] = depart[m]
            stage_busy[a] += times[s][m]
            stage_assign[m] = a
        busy.append(stage_busy)
        assign.append(stage_assign)
    critical = max(depart) if chunks else 0
    return critical, busy, assign


def _pipeline_stage_search(
    layer_cycles: list[int], shards: int, num_chunks: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best contiguous stage partition of the parametric layers.

    Enumerates contiguous partitions of the per-layer cycle oracle
    (measured at one micro-batch) into ``S <= shards`` stages,
    allocates the K arrays to stages greedily (each extra array goes to
    the stage with the highest per-array load — heterogeneous widths),
    and scores each candidate with the actual chunked schedule.  A
    pipeline partitions the *model*: with ``shards >= 2`` and at least
    two parametric layers, single-stage layouts (full weight
    replication, i.e. plain data parallelism) are excluded.

    Returns ``(param_bounds, widths)``.
    """
    count = len(layer_cycles)
    if count == 0 or shards <= 0:
        raise ValueError("need at least one parametric layer and one array")
    min_stages = min(2, shards, count)
    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    if count - 1 <= 12:
        masks = range(1 << (count - 1))
    else:
        # Wide networks: fall back to cycle-balanced cuts, one
        # candidate per stage count.
        masks = []
        total = sum(layer_cycles)
        for stage_count in range(min_stages, min(shards, count) + 1):
            mask, acc, cut = 0, 0, 1
            for i in range(count - 1):
                acc += layer_cycles[i]
                if acc >= total * cut / stage_count:
                    mask |= 1 << i
                    cut += 1
            masks.append(mask)
    for mask in masks:
        bounds = [0]
        bounds.extend(i + 1 for i in range(count - 1) if mask >> i & 1)
        bounds.append(count)
        stage_count = len(bounds) - 1
        if not min_stages <= stage_count <= shards:
            continue
        stage_cycles = [
            sum(layer_cycles[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        widths = [1] * stage_count
        for _ in range(shards - stage_count):
            hottest = max(
                range(stage_count),
                key=lambda s: stage_cycles[s] / widths[s],
            )
            widths[hottest] += 1
        critical, _busy, _assign = _pipeline_schedule(
            [[stage_cycles[s]] * num_chunks for s in range(stage_count)],
            widths,
        )
        key = (critical, tuple(bounds), tuple(widths))
        if best is None or key < best:
            best = key
    if best is None:  # pragma: no cover - guarded by min_stages <= count
        raise ValueError("no feasible stage partition")
    return best[1], best[2]


def _split_sizes(rows: int, parts: int) -> list[int]:
    """Chunk row counts of :func:`numpy.array_split` of ``rows`` rows."""
    base, extra = divmod(rows, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _row_elements(network: Network, state_shape: tuple[int, ...]) -> list[int]:
    """Per-row element counts of the tensors that cross array links.

    Walks the built layer stack tracking the activation shape from
    ``state_shape`` (C, H, W).  Entry ``p`` is the input of parametric
    layer ``p`` — what moves when a stage boundary sits just before
    it — and the last entry is the network's output row (a Q row).
    """
    c, h, w = (int(v) for v in state_shape)
    elements: list[int] = []
    current = c * h * w
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            elements.append(c * h * w)
            c, h, w = layer.output_shape(h, w)
            current = c * h * w
        elif isinstance(layer, MaxPool2D):
            h, w = layer.output_shape(h, w)
            current = c * h * w
        elif isinstance(layer, Dense):
            elements.append(layer.in_features)
            current = layer.out_features
        # ReLU / norm / flatten: no shape change that matters here
        # (flatten keeps c*h*w, which is what Dense.in_features reads).
    elements.append(current)
    return elements


@dataclass(frozen=True)
class _Priced:
    """A fault-free schedule price and the spans that narrate it.

    ``spans`` holds one ``(cycles, span args)`` pair per piece of the
    schedule — a sample chunk, a pipeline (stage, micro-batch) or a
    layer slice — in the order the executing schedule would have
    emitted them.
    """

    cost: StepCost
    spans: tuple[tuple[int, dict], ...]


class _Bill:
    """Running totals of one priced schedule over K arrays."""

    def __init__(self, backend: "ShardedBackend"):
        self.backend = backend
        self.shard_cycles = [0] * backend.shards
        self.layer_cycles: dict[str, int] = {}
        self.macs = 0
        self.merge = 0
        self.merge_hops = 0

    def work(self, step) -> None:
        """Charge one array-run of the network (a training-step record).

        Layer names key as on the single-array backend: a duplicate
        name within one run gets a ``'`` suffix rather than swallowing
        another layer's cycles; runs sum key-wise.
        """
        self.macs += step.total_macs
        seen: set[str] = set()
        for layer in step.layers:
            name = layer.name
            while name in seen:
                name += "'"
            seen.add(name)
            self.layer_cycles[name] = (
                self.layer_cycles.get(name, 0) + layer.total_cycles
            )

    def ship(self, elements: int, src: int, dst: int) -> None:
        """Charge one inter-array transfer on the backend's NoC."""
        if src == dst:
            return
        noc = self.backend._noc
        self.merge += noc.transfer_cycles(elements, src, dst)
        self.merge_hops += noc.element_hops(elements, src, dst)

    def cost(self, states: int, compute: int, fill_drain: int = 0) -> StepCost:
        """The record, given the schedule's compute makespan (and the
        part of it the schedule's bubbles account for)."""
        backend = self.backend
        return StepCost(
            backend=backend.name, states=states, macs=self.macs,
            layer_cycles=self.layer_cycles, shards=backend.shards,
            shard_cycles=tuple(self.shard_cycles),
            critical_path_cycles=compute + self.merge,
            merge_cycles=self.merge,
            merge_hops=self.merge_hops,
            fill_drain_cycles=fill_drain,
            noc=backend.noc,
        )


@register_backend("sharded")
class ShardedBackend(ExecutionBackend):
    """K simulated systolic arrays priced over one datapath.

    Parameters
    ----------
    network:
        The trained float network (single source of weights).
    shards:
        Number of arrays K (>= 1).
    shard:
        ``"sample"`` (split the batch), ``"layer"`` (split conv
        filters / FC output neurons) or ``"pipeline"`` (stage the
        layers).
    config / quantized / weight_format / activation_format:
        Passed through to the :class:`SystolicBackend` datapath — every
        array runs the same datapath the single-array backend models.
    noc:
        Inter-array interconnect topology — one of
        :data:`~repro.systolic.noc.NOC_TOPOLOGIES`.  ``"flat"``
        (default) is the legacy 1-cycle-per-element single-hop model,
        so every pinned sharding number reproduces unchanged;
        ``"ring"`` / ``"mesh"`` charge real hop counts over 128-bit
        links at the quantised word width.
    pipeline_chunk:
        Micro-batch rows per pipeline stage hand-off (pipeline policy
        only).  ``None`` picks ``max(1, batch // (8 * K))`` — about 8
        chunks per array, enough overlap to amortise fill/drain
        without drowning in per-chunk filter reloads.

    Spans
    -----
    With the probe active, every forward emits one ``shard.forward``
    span per piece of the schedule — per non-empty sample chunk
    (``shard``, ``states``), per pipeline (stage, micro-batch)
    (``shard``, ``stage``, ``states``) or per layer slice (``shard``,
    ``layer``) — carrying that piece's priced ``cycles``.  The host
    runs a single datapath forward for the whole batch; its measured
    wall time rides on the first span and the rest are zero-length, so
    :meth:`~repro.obs.trace.Tracer.summary` sums to the host time
    actually spent.
    """

    def __init__(
        self,
        network: Network,
        shards: int = 2,
        shard: str = "sample",
        config: ArrayConfig | None = None,
        quantized: bool = True,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
        noc: str = "flat",
        pipeline_chunk: int | None = None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if shard not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {shard!r}; expected one of {SHARD_POLICIES}"
            )
        if pipeline_chunk is not None and pipeline_chunk <= 0:
            raise ValueError("pipeline_chunk must be positive")
        self.network = network
        self.shards = shards
        self.shard = shard
        self.noc = noc
        self.pipeline_chunk = pipeline_chunk
        # Validates the topology name; node ids are *original* array
        # indices, so transfers stay well-defined after failover.
        self._noc = NocModel(
            topology=noc, nodes=shards,
            word_bits=activation_format.total_bits,
        )
        # One serving buffer for every policy: the arrays' full copies
        # (sample, pipeline) are byte-identical, and their slices
        # (layer) are, code for code, slices of the full quantised
        # weights, so one simulated datapath stands in for every array
        # — the simulation quantises once per sync, not K times, and a
        # crash failover never changes the buffer layout.
        self.datapath = SystolicBackend(
            network, config=config, quantized=quantized,
            weight_format=weight_format, activation_format=activation_format,
        )
        self.config = self.datapath.config
        #: Lazily built float fallback for all-arrays-lost degradation.
        self._fallback = None
        self._chaos_forward = 0
        #: Geometry signature of the network (its layer stack never
        #: changes under a backend), part of every price's memo key.
        self._geometry = _network_cost_signature(network, 0)

    def sync(self) -> None:
        """Broadcast the live float weights to every array's datapath.

        Every array reads its copy or slice of the weights from the one
        serving buffer, so the broadcast re-quantises the full weight
        set once.
        """
        self.datapath.sync()

    # ------------------------------------------------------------------
    # Serving-buffer seam (fault injection / detection)
    # ------------------------------------------------------------------
    # The numeric format attributes are the datapath's: the agent's
    # Q-value guard reads ``quantized`` / ``activation_format`` to check
    # for rail-pinned outputs on the quantised path.
    @property
    def quantized(self) -> bool:
        return self.datapath.quantized

    @property
    def weight_format(self):
        return self.datapath.weight_format

    @property
    def activation_format(self):
        return self.datapath.activation_format

    def weight_buffers(self) -> dict[str, np.ndarray]:
        """The one serving buffer every array reads its weights from."""
        return self.datapath.weight_buffers()

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        self.datapath.corrupt_weight_bit(name, index, bit)

    def _refresh_weight_values(self) -> None:
        self.datapath._refresh_weight_values()

    # ------------------------------------------------------------------
    # Fault handling (FAULTS seam active only)
    # ------------------------------------------------------------------
    def _active_shards(self) -> list[int]:
        """Alive array indices, processing any newly due crash faults."""
        if not FAULTS.enabled:
            return list(range(self.shards))
        inj = FAULTS.injector
        for k in inj.due_crashes():
            if k < self.shards:
                self._kill_shard(k, inj)
        return [k for k in range(self.shards) if k not in inj.dead_shards]

    def _kill_shard(self, k: int, inj) -> None:
        """Process one scheduled crash: detect, then fail over.

        Detection is the per-shard health check — the scheduler notices
        the array stopped answering after ``health_check_timeout_cycles``
        (charged as recovery overhead).  Recovery remaps the dead
        array's work onto the survivors: every plan is a function of
        the surviving arrays, so the next price re-splits the batch,
        re-slices the layers or re-stages the pipeline over them, and
        the serving buffer is left as it is.  With no survivors the
        backend degrades to the float numpy fallback.
        """
        inj.kill(k)
        rec = inj.record("shard.crash", target=f"shard{k}", detail="scheduled")
        inj.add_recovery_cycles(inj.plan.health_check_timeout_cycles)
        inj.mark_detected(rec)
        alive = [i for i in range(self.shards) if i not in inj.dead_shards]
        with PROBE.span("recovery", kind="shard.failover", shard=k):
            if not alive:
                degraded = inj.record(
                    "fleet.degraded",
                    target=self.name,
                    detail="all arrays lost",
                )
                inj.mark_detected(degraded)
                inj.mark_recovered(degraded, detail="serving from numpy fallback")
        inj.mark_recovered(
            rec,
            detail=(
                "degraded to numpy fallback"
                if not alive
                else f"failover onto {len(alive)} surviving arrays"
            ),
        )

    def _forward_degraded(self, x: np.ndarray) -> tuple[np.ndarray, StepCost]:
        """All arrays lost: float inference on the host, zero array cost."""
        if self._fallback is None:
            from repro.backend.numpy_backend import NumpyBackend

            self._fallback = NumpyBackend(self.network)
        with PROBE.span("shard.forward", shard=-1, states=x.shape[0]) as sp:
            q_values, _ = self._fallback.forward_batch(x)
            sp.add_cycles(0)
        FAULTS.injector.note_degraded(x.shape[0])
        return q_values, StepCost(
            backend=self.name, states=x.shape[0], shards=self.shards,
            shard_cycles=(0,) * self.shards, noc=self.noc,
        )

    def _chaos_extra(self, shard: int, base_cycles: int) -> int:
        """Extra cycles this forward charges shard ``shard`` for faults.

        Transient faults retry with exponential backoff (each failed
        attempt re-burns the shard's forward plus a timeout); stragglers
        multiply the (possibly retried) total.  Both are detected and
        recovered within the same forward — they stretch the critical
        path rather than corrupting output.
        """
        inj = FAULTS.injector
        plan = inj.plan
        extra = 0
        attempts = inj.transient_attempts(self._chaos_forward, shard)
        if attempts:
            retry = 0
            for attempt in range(attempts):
                retry += base_cycles + int(
                    plan.retry_timeout_cycles * plan.retry_backoff ** attempt
                )
            rec = inj.record(
                "shard.transient",
                target=f"shard{shard}",
                detail=f"failed attempts={attempts}",
            )
            inj.mark_detected(rec)
            inj.mark_recovered(rec, detail=f"retry succeeded after {attempts}")
            inj.add_recovery_cycles(retry)
            extra += retry
        factor = inj.straggler_factor(self._chaos_forward, shard)
        if factor > 1.0:
            slow = int((base_cycles + extra) * (factor - 1.0))
            rec = inj.record(
                "shard.straggler",
                target=f"shard{shard}",
                detail=f"factor={factor:g}",
            )
            inj.mark_detected(rec)
            inj.mark_recovered(rec, detail="absorbed by the schedule")
            extra += slow
        return extra

    # ------------------------------------------------------------------
    def train_cost(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int = 0,
    ) -> StepCost:
        """One training step across the K arrays, per shard policy.

        * ``sample`` — data parallel: the batch splits into K chunks,
          every array runs forward + backward GEMMs against a full
          weight copy, and the per-array weight gradients all-reduce to
          the root array over the NoC.
        * ``layer`` — model parallel: each array trains only its weight
          slice, so dW stays local (no full-gradient all-reduce);
          the backward pays a partial-dX reduction per layer instead.
        * ``pipeline`` — pipelined: micro-batches stream forward and
          backward through the stages; fill/drain bubbles are charged
          explicitly and boundary activations (and their gradients)
          cross the NoC.

        Every policy is priced by the same function as its forward
        (:meth:`_priced`), at training depth.
        """
        alive = (
            [k for k in range(self.shards) if k not in FAULTS.injector.dead_shards]
            if FAULTS.enabled
            else list(range(self.shards))
        )
        if not alive:
            # Every array lost: training stays in host float, charging
            # the (gone) arrays nothing.
            return StepCost(
                backend=self.name, states=batch_size,
                shards=self.shards, shard_cycles=(0,) * self.shards,
                noc=self.noc,
            )
        cost = self._priced(
            batch_size, state_shape, tuple(alive), first_trainable
        ).cost
        return replace(cost, layer_cycles=dict(cost.layer_cycles))

    # ------------------------------------------------------------------
    # One forward, a priced schedule
    # ------------------------------------------------------------------
    def _priced(
        self,
        rows: int,
        state_shape: tuple[int, ...],
        alive: tuple[int, ...],
        first_trainable: int | None,
    ) -> _Priced:
        """The fault-free price of a ``rows``-row schedule.

        The plan — chunk sizes over the survivors, plus the stage layout
        under ``pipeline`` or the per-layer output slices under
        ``layer`` — is fixed first; the policy's price is then a pure
        function of ``(plan, chunk sizes, state shape, survivors)`` and
        the backend's geometry, array config and NoC.
        ``first_trainable=None`` prices inference (forward GEMMs plus
        the Q-row gather); an index prices a training step from that
        layer on (forward + backward plus the gradient traffic).

        Prices are memoised in the cost-oracle memo (table
        ``sharded_price``) beside the per-layer oracles they are built
        on, keyed on the inputs the plan is made from, so the plan is
        only built on a miss: a steady-state forward pays one counted
        lookup.  A crash changes ``alive`` and with it the key, so
        failover re-plans without clearing anything.
        """
        state_shape = tuple(int(v) for v in state_shape)
        args = (rows, state_shape, alive, first_trainable)
        if not _memo.memo_enabled():
            return self._price(*args)
        key = (
            self._geometry, self.config, self._noc, self.shard,
            self.pipeline_chunk,
        ) + args
        table = _memo.cache("sharded_price")
        priced = table.get(key)
        if priced is _memo._MISS:
            priced = table.put(key, self._price(*args))
        return priced

    def _price(self, rows, state_shape, alive, first_trainable) -> _Priced:
        """Plan the schedule, then price it with the policy's function."""
        if self.shard == "sample":
            sizes = tuple(_split_sizes(rows, len(alive)))
            return self._price_sample(sizes, state_shape, alive, first_trainable)
        if self.shard == "layer":
            return self._price_layer(rows, state_shape, alive, first_trainable)
        plan, sizes = self._pipeline_plan(alive, state_shape, rows)
        return self._price_pipeline(
            plan, sizes, state_shape, alive, first_trainable
        )

    def _step(self, state_shape, rows: int, first_trainable: int | None):
        """Closed-form cost of one array running the network on ``rows``."""
        if first_trainable is None:
            first_trainable = len(self.network.layers)  # forward only
        return network_training_step_cost(
            self.network, state_shape, rows,
            config=self.config, first_trainable=first_trainable,
        )

    def _price_sample(
        self, sizes, state_shape, alive, first_trainable
    ) -> _Priced:
        """Data parallel: each alive array runs the whole network over
        its :func:`numpy.array_split` chunk, ``sizes`` aligned with
        ``alive`` (a batch narrower than K leaves arrays idle; after a
        crash the same rows re-split over the survivors).  Inference
        gathers every non-root chunk's Q rows to the root array;
        training all-reduces each non-root array's full weight gradient
        to it."""
        bill = _Bill(self)
        q_row = _row_elements(self.network, state_shape)[-1]
        grad = (
            None if first_trainable is None
            else sum(p.size for p in self.network.parameters(first_trainable))
        )
        spans = []
        for k, size in zip(alive, sizes):
            if size == 0:
                continue
            step = self._step(state_shape, size, first_trainable)
            bill.work(step)
            bill.shard_cycles[k] = step.total_cycles
            bill.ship(size * q_row if grad is None else grad, k, alive[0])
            spans.append((step.total_cycles, {"shard": k, "states": size}))
        return _Priced(bill.cost(sum(sizes), max(bill.shard_cycles)), tuple(spans))

    def _price_pipeline(
        self, plan, sizes, state_shape, alive, first_trainable
    ) -> _Priced:
        """Pipelined: micro-batches of ``sizes`` rows stream through the
        stages of ``plan``.

        Each stage's per-chunk time is its layers' cycles from the
        closed-form oracle; :func:`_pipeline_schedule` yields the
        makespan, per-array busy cycles and which array served each
        chunk, hence the fill/drain bubbles.  Every chunk's boundary
        activation crosses the NoC between the arrays that served it.
        Inference then gathers the last stage's Q rows to its first
        array; training instead sends the dX gradient back over every
        boundary with a trainable layer below it, and replicated stages
        all-reduce their weight gradients to their first array.
        """
        bill = _Bill(self)
        steps = [self._step(state_shape, size, first_trainable) for size in sizes]
        for step in steps:
            bill.work(step)
        bounds = plan.param_bounds
        times = [
            [sum(c.total_cycles for c in step.layers[lo:hi]) for step in steps]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        compute, busy, assign = _pipeline_schedule(times, plan.widths)
        served = [  # served[s][m]: the array running stage s on chunk m
            [arrays[a] for a in stage_assign]
            for arrays, stage_assign in zip(plan.stage_arrays, assign)
        ]
        for arrays, stage_busy in zip(plan.stage_arrays, busy):
            for orig, cycles in zip(arrays, stage_busy):
                bill.shard_cycles[orig] = cycles
        row_elements = _row_elements(self.network, state_shape)
        param_indices = [i for i, _layer in self.network.parametric_layers()]
        for s in range(1, plan.stages):
            # Backprop returns the dX gradient over this boundary iff a
            # trainable parametric layer sits below it.
            crossings = 1 + (
                first_trainable is not None
                and param_indices[bounds[s] - 1] >= first_trainable
            )
            for m, size in enumerate(sizes):
                bill.ship(
                    size * row_elements[bounds[s]] * crossings,
                    served[s - 1][m], served[s][m],
                )
        if first_trainable is None:
            q_hub = plan.stage_arrays[-1][0]
            for m, size in enumerate(sizes):
                bill.ship(size * row_elements[-1], served[-1][m], q_hub)
        else:
            for s, arrays in enumerate(plan.stage_arrays):
                lo, hi = bounds[s], bounds[s + 1]
                stage_grad = sum(c.weight_elements for c in steps[0].layers[lo:hi])
                for orig in arrays[1:]:
                    bill.ship(stage_grad, orig, arrays[0])
        spans = tuple(
            (times[s][m], {"shard": served[s][m], "stage": s, "states": size})
            for s in range(plan.stages)
            for m, size in enumerate(sizes)
        )
        return _Priced(
            bill.cost(sum(sizes), compute, compute - max(bill.shard_cycles)),
            spans,
        )

    def _fault_extras(self, shard_cycles) -> tuple[list[int], int]:
        """Per-array cycles stretched by this forward's chaos draws.

        Every busy array, in array order, pays its transient retries
        and straggler slowdown (:meth:`_chaos_extra`).  Returns the new
        per-array cycles and the total added.
        """
        stretched = list(shard_cycles)
        added = 0
        for k, cycles in enumerate(shard_cycles):
            if cycles:
                extra = self._chaos_extra(k, cycles)
                stretched[k] += extra
                added += extra
        return stretched, added

    def _layer_plan(
        self, alive: tuple[int, ...]
    ) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """Output slices of every parametric layer over the survivors.

        Maps each parametric layer's index in the built stack to its
        ``(array, lo, hi)`` slices — conv filters / FC output features
        ``[lo:hi)`` computed on original array ``array`` — from a
        :func:`numpy.linspace` split over the alive arrays, in order.
        An array whose slice of a layer narrower than the survivors
        would be empty is left out of that layer: it sits idle and
        receives no broadcast.
        """
        plan = {}
        for index, layer in self.network.parametric_layers():
            width = (
                layer.out_channels
                if isinstance(layer, Conv2D)
                else layer.out_features
            )
            bounds = np.linspace(0, width, len(alive) + 1).astype(int)
            plan[index] = tuple(
                (k, int(lo), int(hi))
                for k, lo, hi in zip(alive, bounds, bounds[1:])
                if hi > lo
            )
        return plan

    def _price_layer(self, rows, state_shape, alive, first_trainable) -> _Priced:
        """Tensor parallel: every alive array computes its output slice
        (:meth:`_layer_plan`) of each parametric layer from the full
        input activation.

        Layers run in sequence (true data dependency); within a layer
        the slices run in parallel, so each layer adds its slowest
        slice to the critical path and the schedule has no fill/drain.
        A slice costs what the closed-form per-layer oracle charges at
        the slice's width.  What crosses the NoC:

        * after each parametric layer, the slices gather to the layer's
          hub — its first array — into the full activation, on which
          elementwise / pooling layers run;
        * before each parametric layer but the first (whose input comes
          from the host), the activation it consumes — post-pooling, so
          the tensor that actually moves — is broadcast from the
          previous hub to every *other* array computing it, one full
          activation per receiving link;
        * in training, per trainable layer with a trainable parametric
          layer below it, a partial-dX reduction: every array computing
          the layer ships its partial input gradient (full input shape)
          to the hub, which forwards the sum to the arrays of the
          previous parametric layer.  dW is an outer product over the
          slice's own rows, so weight gradients never leave the array
          that applies them.
        """
        c, h, w = state_shape
        plan = self._layer_plan(alive)
        bill = _Bill(self)
        spans = []
        critical = 0
        hub: int | None = None  # array holding the merged activation
        below: list[int] | None = None  # arrays of a trainable layer below
        for index, layer in enumerate(self.network.layers):
            slices = plan.get(index)
            if slices is None:
                if isinstance(layer, MaxPool2D):
                    h, w = layer.output_shape(h, w)
                continue
            trainable = first_trainable is not None and index >= first_trainable
            arrays = [k for k, _lo, _hi in slices]
            is_conv = isinstance(layer, Conv2D)
            if is_conv:
                out_shape = layer.output_shape(h, w)
                act_in, per_unit = rows * c * h * w, out_shape[1] * out_shape[2]
            else:
                act_in, per_unit = rows * layer.in_features, 1
            if hub is not None:
                for k in arrays:
                    bill.ship(act_in, hub, k)
            cycles = []
            for k, lo, hi in slices:
                if is_conv:
                    cost, _shape = _conv_layer_cost(
                        layer.name, c, h, w, hi - lo, layer.kernel_size,
                        layer.stride, layer.pad, rows, self.config, trainable,
                    )
                else:
                    cost = _fc_layer_cost(
                        layer.name, layer.in_features, hi - lo, rows,
                        self.config, trainable,
                    )
                bill.shard_cycles[k] += cost.total_cycles
                bill.macs += cost.total_macs
                cycles.append(cost.total_cycles)
                spans.append((cost.total_cycles, {"shard": k, "layer": layer.name}))
            name = layer.name
            while name in bill.layer_cycles:  # never merge duplicates
                name += "'"
            bill.layer_cycles[name] = sum(cycles)
            critical += max(cycles)
            hub = arrays[0]
            for k, lo, hi in slices:
                bill.ship(rows * (hi - lo) * per_unit, k, hub)
            if trainable and below is not None:
                for k in arrays:
                    bill.ship(act_in, k, hub)
                for k in below:
                    bill.ship(act_in, hub, k)
            below = arrays if trainable else None
            if is_conv:
                c, h, w = out_shape
        return _Priced(bill.cost(rows, critical), tuple(spans))

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        """One datapath forward over the batch, the schedule priced.

        The survivors are known before anything runs (a crash failover
        only changes the plan the price is made from), the Q values
        come from the datapath in one pass, and the cost is the
        cached price of the policy's schedule — stretched, under chaos,
        by each busy array's retries and stragglers: a barrier (sample)
        waits on the slowest stretched array; a pipeline's makespan,
        and the per-layer barriers of the layer policy (charged
        conservatively, with no bubbles), absorb every stretch.
        """
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
        if FAULTS.enabled:
            self._chaos_forward = FAULTS.injector.note_forward()
        alive = self._active_shards()
        if not alive:
            return self._forward_degraded(x)
        start = time.perf_counter_ns()
        q_values, _ = self.datapath.forward_batch(x)
        wall = time.perf_counter_ns() - start
        priced = self._priced(x.shape[0], x.shape[1:], tuple(alive), None)
        if PROBE.enabled:
            for i, (cycles, args) in enumerate(priced.spans):
                PROBE.record_span(
                    "shard.forward", wall if i == 0 else 0, cycles=cycles, **args
                )
        cost = priced.cost
        if not FAULTS.enabled:
            return q_values, replace(cost, layer_cycles=dict(cost.layer_cycles))
        shard_cycles, added = self._fault_extras(cost.shard_cycles)
        if self.shard == "sample":
            compute = max(shard_cycles)
        else:
            compute = cost.critical_path_cycles - cost.merge_cycles + added
        return q_values, replace(
            cost,
            layer_cycles=dict(cost.layer_cycles),
            shard_cycles=tuple(shard_cycles),
            critical_path_cycles=compute + cost.merge_cycles,
            fill_drain_cycles=(
                compute - max(shard_cycles) if self.shard == "pipeline" else 0
            ),
        )

    # ------------------------------------------------------------------
    # Pipeline policy
    # ------------------------------------------------------------------
    def _pipeline_plan(
        self,
        alive: tuple[int, ...],
        state_shape: tuple[int, ...],
        rows: int,
    ) -> tuple[PipelinePlan, tuple[int, ...]]:
        """The stage layout over the surviving arrays, and the
        micro-batch row counts of a ``rows``-row batch.

        Chunks hold ``pipeline_chunk`` rows, or by default
        ``rows // (8 * arrays)`` (at least one).  Stage bounds and
        widths come from the closed-form per-layer cycle oracle at the
        micro-batch size, scored against the actual chunked schedule.
        Nothing is cached here: the plan is built on a
        :meth:`_priced` miss and memoised with its price.
        """
        chunk_rows = self.pipeline_chunk or max(1, rows // (8 * len(alive)))
        num_chunks = max(1, -(-rows // chunk_rows))
        # Zero-row chunks never enter the schedule.
        sizes = tuple(size for size in _split_sizes(rows, num_chunks) if size)
        step = network_training_step_cost(
            self.network, state_shape, chunk_rows,
            config=self.config,
            first_trainable=len(self.network.layers),  # forward only
        )
        bounds, widths = _pipeline_stage_search(
            [cost.forward_cycles for cost in step.layers],
            len(alive), num_chunks,
        )
        param_indices = [i for i, _layer in self.network.parametric_layers()]
        # Each stage starts at its first parametric layer (stage 0 also
        # owns any leading non-parametric layers) and runs to the next
        # stage's start; trailing layers ride with the last stage.
        starts = [0] + [param_indices[b] for b in bounds[1:-1]]
        ends = starts[1:] + [len(self.network.layers)]
        stage_arrays = []
        pos = 0
        for width in widths:
            stage_arrays.append(tuple(alive[pos:pos + width]))
            pos += width
        plan = PipelinePlan(
            param_bounds=tuple(bounds),
            layer_ranges=tuple(zip(starts, ends)),
            stage_arrays=tuple(stage_arrays),
        )
        return plan, sizes
