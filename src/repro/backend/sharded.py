"""Multi-array execution backend: K systolic arrays behind one seam.

The ROADMAP's "serves heavy traffic" direction needs more than one
32x32 array.  :class:`ShardedBackend` models K simulated arrays over
one :class:`~repro.backend.systolic_backend.SystolicBackend` datapath
behind the ordinary ``forward_batch(states) -> (q_values, cost)``
seam.  Where each layer's work runs is one value, a
:class:`ShardPlan`: the parametric layers cut into contiguous *stages*,
each stage owns a disjoint set of arrays and splits its work either by
**batch rows** (each micro-batch runs the whole stage on one of its
arrays, a replicated stage taking micro-batches round-robin) or by
**output channels** (every array computes a slice of each layer's conv
filters / FC output neurons from the full input activation), and the
batch streams through the stages in micro-batches.  The three shard
policies are three constructors of that plan over the surviving
arrays:

* ``shard="sample"`` — data parallelism: one batch-split stage; the
  batch splits into contiguous chunks (:func:`numpy.array_split`
  semantics, so uneven batches work), one per array, and each array
  runs the *whole* network over its chunk with a full weight copy.
  Only the Q-value gather crosses arrays.
* ``shard="layer"`` — tensor parallelism: one output-split stage over
  every array, one micro-batch; after every parametric layer the
  slices gather into the full activation, which is re-broadcast to the
  arrays of the next layer.
* ``shard="pipeline"`` — pipeline parallelism: several batch-split
  stages balanced on the closed-form cycle oracle (heterogeneous
  widths: a hot stage may own several arrays); the batch streams
  through in micro-batches of about ``batch / (8 K)`` rows, the
  schedule's fill/drain bubbles are charged explicitly
  (``StepCost.fill_drain_cycles``) and only the stage-boundary
  activations cross arrays — so it keeps scaling where the layer
  policy's per-layer all-gather collapses.

Every plan is **bitwise-equal** to the single-array path: every
sample's and every output channel's arithmetic is the exact same
fixed-point datapath — splitting a batch or slicing an output
dimension removes no term and every partial sum is exact — and the
re-quantisation between layers is elementwise, so it commutes with the
concatenation that merges shard outputs.

**Plan, then price.**  Because the numerics cannot tell the schedules
apart, nothing re-executes the batch chunk by chunk, stage by stage or
slice by slice.  ``forward_batch`` runs *one* forward over the whole
batch on that datapath — one serving buffer, the paper's single
quantised SRAM copy of the weights — and prices the plan in closed
form: one pure function maps ``(plan, state shape)`` and the backend's
geometry, array config and NoC to a
:class:`~repro.backend.base.StepCost`, built on the closed-form
per-layer cycle oracles of :mod:`repro.systolic.training` (whose
cycles equal the executed ones exactly).  The plan is a pure function
of the surviving arrays, so a crash failover re-plans without touching
the weights.  The same function prices ``train_cost`` — forward +
backward plus the gradient traffic instead of the Q-row gather — and
its fault-free result is memoised beside the oracles it is built on,
so a steady-state forward costs one single-array forward plus one memo
lookup.  Chaos retries and stragglers then stretch the priced
per-array cycles.  A literal executor of any plan lives on as a
test-only reference (``tests/sharded_reference.py``) that the priced
costs are checked against field by field — the role the loop-level PE
oracle (``tests/pe_reference.py``) plays for the kernels.

Costs come back as a :class:`~repro.backend.base.StepCost` with its
schedule fields filled: ``layer_cycles`` stay *work* (summed over
arrays — note each array charges its own FC tile loads, so sharded
work slightly exceeds single-array work), ``shard_cycles`` are
per-array totals, ``critical_path_cycles`` is the wall-clock of the
parallel schedule (its makespan plus merge traffic), and
``merge_cycles`` charges every element that crosses an inter-array
link (gathers, re-broadcasts, stage hand-offs, gradient reductions) on
the backend's :class:`~repro.systolic.noc.NocModel` — the default
``flat`` topology is exactly the legacy one-cycle-per-element model,
while ``ring`` and ``mesh`` pay real hop counts over 128-bit links.
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
from repro.nn.network import Network
from repro.parallel import memo as _memo
from repro.systolic.array import ArrayConfig
from repro.systolic.noc import NocModel
from repro.systolic.training import (
    _layer_cost,
    _layer_walk,
    _network_cost_signature,
    network_training_step_cost,
)

__all__ = ["ShardedBackend", "ShardPlan", "SHARD_POLICIES"]


@dataclass(frozen=True)
class ShardPlan:
    """Where every piece of a batch's work runs, as data.

    ``bounds`` cuts the network's *parametric* layers into contiguous
    stages (``bounds[s] : bounds[s + 1]``); non-parametric layers ride
    with the parametric layer they follow.  Stage ``s`` owns the
    original array indices ``arrays[s]`` (disjoint across stages; the
    order matters) and splits its work by ``splits[s]``:

    * ``"batch"`` — each micro-batch runs the whole stage on one of the
      stage's arrays, the earliest free (ties to the first), so a
      replicated stage takes micro-batches round-robin;
    * ``"output"`` — every array computes its :meth:`output_slices` of
      each layer's conv filters / FC output neurons from the full
      input activation, and the slices gather to the layer's *hub*,
      the first array holding a slice.

    The batch streams through the stages in micro-batches of ``sizes``
    rows, in order.
    """

    bounds: tuple[int, ...]
    arrays: tuple[tuple[int, ...], ...]
    splits: tuple[str, ...]
    sizes: tuple[int, ...]

    def output_slices(self, stage: int, width: int) -> tuple:
        """``(array, lo, hi)`` slices of a ``width``-wide layer of an
        output-split stage: a :func:`numpy.linspace` split over the
        stage's arrays, in order.  An array whose slice would be empty
        (a layer narrower than the stage) is left out: it idles and
        receives no broadcast."""
        arrays = self.arrays[stage]
        cuts = np.linspace(0, width, len(arrays) + 1).astype(int)
        return tuple(
            (k, int(lo), int(hi))
            for k, lo, hi in zip(arrays, cuts, cuts[1:])
            if hi > lo
        )


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


# ----------------------------------------------------------------------
# The shard policies: plan constructors over the surviving arrays
# ----------------------------------------------------------------------
def _plan_sample(network, config, rows, state_shape, alive) -> ShardPlan:
    """One batch-split stage over the arrays that get a non-empty
    :func:`numpy.array_split` chunk of the batch, one chunk each (a
    batch narrower than the survivors leaves the rest idle)."""
    sizes = tuple(size for size in _split_sizes(rows, len(alive)) if size)
    return ShardPlan(
        bounds=(0, len(network.parametric_layers())),
        arrays=(alive[:len(sizes)],), splits=("batch",), sizes=sizes,
    )


def _plan_layer(network, config, rows, state_shape, alive) -> ShardPlan:
    """One output-split stage over every survivor, one micro-batch (none
    for an empty batch)."""
    return ShardPlan(
        bounds=(0, len(network.parametric_layers())),
        arrays=(alive,), splits=("output",), sizes=(rows,) if rows else (),
    )


def _plan_pipeline(network, config, rows, state_shape, alive) -> ShardPlan:
    """Batch-split stages from :func:`_pipeline_stage_search`.

    Micro-batches hold ``rows // (8 * arrays)`` rows (at least one) —
    about 8 chunks per array, enough overlap to amortise fill/drain
    without drowning in per-chunk filter reloads.  Stage bounds and
    widths come from the closed-form per-layer cycle oracle at that
    micro-batch size, scored against the actual chunked schedule, and
    the survivors fill the stages in order.
    """
    chunk_rows = max(1, rows // (8 * len(alive)))
    num_chunks = max(1, -(-rows // chunk_rows))
    step = network_training_step_cost(
        network, state_shape, chunk_rows, config=config,
        first_trainable=len(network.layers),  # forward only
    )
    bounds, widths = _pipeline_stage_search(
        [cost.forward_cycles for cost in step.layers], len(alive), num_chunks,
    )
    cuts = np.cumsum((0,) + widths)
    return ShardPlan(
        bounds=bounds,
        arrays=tuple(alive[lo:hi] for lo, hi in zip(cuts, cuts[1:])),
        splits=("batch",) * len(widths),
        # Zero-row chunks never enter the schedule.
        sizes=tuple(size for size in _split_sizes(rows, num_chunks) if size),
    )


#: The shard policies, each a :class:`ShardPlan` constructor
#: ``(network, config, rows, state_shape, alive) -> ShardPlan``.
SHARD_POLICIES = {
    "sample": _plan_sample,
    "layer": _plan_layer,
    "pipeline": _plan_pipeline,
}


@dataclass(frozen=True)
class _Priced:
    """A plan's fault-free price and what chaos needs to stretch it.

    ``spans`` holds one ``(cycles, span args)`` pair per piece of the
    schedule — a batch-split (stage, micro-batch) or an output slice
    of one layer on one micro-batch — in the order an executed
    schedule would emit them.  ``lanes`` are the schedule's serial
    resources as ``(busy cycles, arrays)``: each array of a
    batch-split stage, and each output-split stage as one gang.
    ``barrier`` marks a plan of one batch-split stage.
    """

    cost: StepCost
    spans: tuple[tuple[int, dict], ...]
    lanes: tuple[tuple[int, tuple[int, ...]], ...]
    barrier: bool

    def stretched(self, extra: list[int]) -> StepCost:
        """The cost with ``extra[k]`` fault cycles added to array ``k``.

        One batch-split stage is a barrier: it waits on its slowest
        stretched array.  In any other plan the stretches add to the
        critical path.  Fill/drain stays the makespan less the busiest
        stretched lane.
        """
        cost = self.cost
        shard_cycles = tuple(c + e for c, e in zip(cost.shard_cycles, extra))
        if self.barrier:
            compute = max(shard_cycles)
        else:
            compute = cost.critical_path_cycles - cost.merge_cycles + sum(extra)
        busiest = max(
            (busy + sum(extra[k] for k in arrays) for busy, arrays in self.lanes),
            default=0,
        )
        return replace(
            cost,
            shard_cycles=shard_cycles,
            critical_path_cycles=compute + cost.merge_cycles,
            fill_drain_cycles=compute - busiest,
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
        The plan constructor (:data:`SHARD_POLICIES`): ``"sample"``
        (split the batch), ``"layer"`` (split conv filters / FC output
        neurons) or ``"pipeline"`` (stage the layers).
    config / weight_format / activation_format:
        Passed through to the :class:`SystolicBackend` datapath — every
        array runs the same datapath the single-array backend models.
    noc:
        Inter-array interconnect topology — one of
        :data:`~repro.systolic.noc.NOC_TOPOLOGIES`.  ``"flat"``
        (default) is the legacy 1-cycle-per-element single-hop model,
        so every pinned sharding number reproduces unchanged;
        ``"ring"`` / ``"mesh"`` charge real hop counts over 128-bit
        links at the quantised word width.

    Spans
    -----
    With the probe active, every forward emits one ``shard.forward``
    span per piece of the schedule, carrying that piece's priced
    ``cycles`` and the args ``shard``, ``stage`` and ``states``: one
    per (stage, micro-batch) of a batch-split stage, and one per layer
    slice of an output-split stage (plus the ``layer`` name).  The
    host runs a single datapath forward for the whole batch; its
    measured wall time rides on the first span and the rest are
    zero-length, so :meth:`~repro.obs.trace.Tracer.summary` sums to the
    host time actually spent.
    """

    def __init__(
        self,
        network: Network,
        shards: int = 2,
        shard: str = "sample",
        config: ArrayConfig | None = None,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
        noc: str = "flat",
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if shard not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {shard!r}; expected one of "
                f"{tuple(SHARD_POLICIES)}"
            )
        self.network = network
        self.shards = shards
        self.shard = shard
        self.noc = noc
        # Validates the topology name; node ids are *original* array
        # indices, so transfers stay well-defined after failover.
        self._noc = NocModel(
            topology=noc, nodes=shards,
            word_bits=activation_format.total_bits,
        )
        # One serving buffer for every plan: the arrays' full copies
        # (batch split) are byte-identical, and their slices (output
        # split) are, code for code, slices of the full quantised
        # weights, so one simulated datapath stands in for every array
        # — the simulation quantises once per sync, not K times, and a
        # crash failover never changes the buffer layout.
        self.datapath = SystolicBackend(
            network, config=config,
            weight_format=weight_format, activation_format=activation_format,
        )
        self.config = self.datapath.config
        #: Lazily built float fallback for all-arrays-lost degradation.
        self._fallback = None
        self._chaos_forward = 0
        #: Geometry signature of the network (its layer stack never
        #: changes under a backend), part of every price's memo key.
        self._geometry = _network_cost_signature(network, 0)
        #: Plans built so far, by (rows, state shape, survivors).
        self._plans: dict[tuple, ShardPlan] = {}

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
    # The numeric formats are the datapath's: the fault layer draws
    # flips over ``weight_format`` and the agent's Q-value guard checks
    # for outputs pinned to ``activation_format``'s rails.
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
        the surviving arrays, so the next price re-plans over them, and
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
        """One training step across the K arrays, priced on the plan.

        Forward and backward run where the plan puts them.  A
        batch-split stage's replicas all-reduce their weight gradients
        to the stage's first array (under ``sample``, every array's full
        gradient goes to the root); an output-split array trains only
        its own slice, so its dW stays local and the backward pays a
        partial-dX reduction per layer instead; every stage boundary
        with a trainable layer below it carries the dX gradient back.
        The same function prices the forward (:meth:`_priced`), here at
        training depth.
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
    # One forward, a priced plan
    # ------------------------------------------------------------------
    def plan(
        self, rows: int, state_shape: tuple[int, ...], alive: tuple[int, ...]
    ) -> ShardPlan:
        """The shard policy's plan of a ``rows``-row batch over the
        surviving arrays ``alive``."""
        return SHARD_POLICIES[self.shard](
            self.network, self.config, rows, state_shape, alive
        )

    def _priced(
        self,
        rows: int,
        state_shape: tuple[int, ...],
        alive: tuple[int, ...],
        first_trainable: int | None,
    ) -> _Priced:
        """The fault-free price of a ``rows``-row batch's plan.

        The plan is built once per ``(rows, state shape, survivors)``;
        a crash changes the survivors, so failover re-plans without
        clearing anything.  ``first_trainable=None`` prices inference
        (forward GEMMs plus the Q-row gather); an index prices a
        training step from that layer on (forward + backward plus the
        gradient traffic).

        Prices are memoised in the cost-oracle memo (table
        ``sharded_price``) beside the per-layer oracles they are built
        on, keyed on everything the price reads: the network geometry,
        array config and NoC, the plan, the state shape and
        ``first_trainable``.  A steady-state forward pays one counted
        lookup.
        """
        state_shape = tuple(int(v) for v in state_shape)
        where = (rows, state_shape, alive)
        plan = self._plans.get(where)
        if plan is None:
            plan = self._plans[where] = self.plan(*where)
        args = (plan, state_shape, first_trainable)
        key = (self._geometry, self.config, self._noc) + args
        table = _memo.cache("sharded_price")
        priced = table.get(key)
        if priced is _memo._MISS:
            priced = table.put(key, self._price(*args))
        return priced

    def _price(
        self,
        plan: ShardPlan,
        state_shape: tuple[int, ...],
        first_trainable: int | None,
    ) -> _Priced:
        """Price ``plan`` in closed form; a pure function of the plan,
        the state shape and the backend's geometry, config and NoC.

        Every piece — a whole layer on one array (batch split) or one
        output slice of it (output split), on one micro-batch — costs
        what the closed-form per-layer oracle charges at the piece's
        width and rows.  A stage's time on a micro-batch is the sum
        over its layers of the slowest piece of each (layers run in
        sequence; slices in parallel), and :func:`_pipeline_schedule`
        streams the micro-batches through the stages, an output-split
        stage acting as one gang.  What crosses the NoC, per
        micro-batch:

        * each parametric layer's input moves from the previous layer's
          hub to every array computing it (free on the same array);
          between two batch-split layers it rides one transfer with
          the dX that comes back in training;
        * each output slice gathers to the layer's hub;
        * in training, where the layer below trains, the input gradient
          returns: every array of the layer ships its partial dX to
          the hub, which sends the sum to every array of the layer
          below;
        * inference gathers every micro-batch's Q rows to the last
          layer's hub on the first micro-batch; training instead
          all-reduces each batch-split stage's weight gradients to its
          first array (an output slice's dW never leaves its array).
        """
        walk, out_elements = _layer_walk(self.network, state_shape)
        train_from = (
            len(self.network.layers) if first_trainable is None
            else first_trainable
        )
        costs: dict[tuple[int, int, int], object] = {}

        def cost(p: int, width: int, rows: int):
            if (p, width, rows) not in costs:
                index, layer, in_shape, _out = walk[p]
                costs[p, width, rows] = _layer_cost(
                    layer, in_shape, width, rows, self.config,
                    index >= train_from,
                )
            return costs[p, width, rows]

        stages = list(zip(plan.bounds, plan.bounds[1:]))
        stage_of = [s for s, (lo, hi) in enumerate(stages) for _ in range(lo, hi)]
        batch = [plan.splits[s] == "batch" for s in stage_of]
        # Pieces of every parametric layer; ``None`` stands for the
        # array a batch-split stage hands the micro-batch to.
        parts = [
            ((None, 0, out[0]),) if batch[p]
            else plan.output_slices(stage_of[p], out[0])
            for p, (_index, _layer, _in, out) in enumerate(walk)
        ]
        times = [
            [
                sum(
                    max(cost(p, hi - lo, rows).total_cycles for _k, lo, hi in parts[p])
                    for p in range(first, last)
                )
                for rows in plan.sizes
            ]
            for first, last in stages
        ]
        compute, busy, assign = _pipeline_schedule(
            times,
            [len(arrays) if split == "batch" else 1
             for arrays, split in zip(plan.arrays, plan.splits)],
        )

        # placed[p][m]: the pieces of layer p on micro-batch m, each
        # on its array.
        placed = [
            [
                [(arrays[a] if k is None else k, lo, hi) for k, lo, hi in parts[p]]
                for a in assign[stage_of[p]]
            ]
            for p, arrays in enumerate(plan.arrays[s] for s in stage_of)
        ]

        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = merge = merge_hops = 0
        spans = []
        seen: list[set[str]] = [set() for _ in plan.sizes]

        def ship(elements: int, src: int, dst: int) -> None:
            nonlocal merge, merge_hops
            if src != dst:
                merge += self._noc.transfer_cycles(elements, src, dst)
                merge_hops += self._noc.element_hops(elements, src, dst)

        for s, (first, last) in enumerate(stages):
            for m, rows in enumerate(plan.sizes):
                if batch[first]:
                    args = {"shard": placed[first][m][0][0], "stage": s, "states": rows}
                    spans.append((times[s][m], args))
                for p in range(first, last):
                    index, layer, in_shape, out_shape = walk[p]
                    here = placed[p][m]
                    hub = here[0][0]
                    if p:
                        below = placed[p - 1][m]
                        act = rows * in_shape[0] * in_shape[1] * in_shape[2]
                        back = walk[p - 1][0] >= train_from  # dX returns below
                        if batch[p - 1] and batch[p]:
                            # A whole-layer hand-off: the activation and
                            # the dX coming back ride one transfer.  Ring
                            # and mesh round each transfer up to whole
                            # link beats, so two would charge more.
                            ship(act * (1 + back), below[0][0], hub)
                        else:
                            for k, _lo, _hi in here:
                                ship(act, below[0][0], k)
                            if back:
                                for k, _lo, _hi in here:
                                    ship(act, k, hub)
                                for k, _lo, _hi in below:
                                    ship(act, hub, k)
                    name = layer.name
                    while name in seen[m]:  # never merge duplicate names
                        name += "'"
                    seen[m].add(name)
                    for k, lo, hi in here:
                        piece = cost(p, hi - lo, rows)
                        if not batch[p]:
                            args = {"shard": k, "stage": s, "states": rows,
                                    "layer": layer.name}
                            spans.append((piece.total_cycles, args))
                        shard_cycles[k] += piece.total_cycles
                        macs += piece.total_macs
                        layer_cycles[name] = (
                            layer_cycles.get(name, 0) + piece.total_cycles
                        )
                        ship(rows * (hi - lo) * out_shape[1] * out_shape[2], k, hub)
                if last == len(walk) and first_trainable is None:
                    # Every micro-batch's Q rows end on the first one's hub.
                    ship(rows * out_elements, hub, placed[p][0][0][0])
        lanes = []
        for s, arrays in enumerate(plan.arrays):
            if plan.splits[s] == "batch":
                lanes += [(cycles, (k,)) for cycles, k in zip(busy[s], arrays)]
            else:
                lanes.append((busy[s][0], arrays))
            if first_trainable is None or plan.splits[s] != "batch":
                continue
            # Replicas all-reduce their weight gradients to the first.
            first, last = stages[s]
            grad = sum(
                param.size
                for index, layer, _in, _out in walk[first:last]
                if index >= train_from
                for param in layer.parameters()
            )
            for k in arrays[1:]:
                ship(grad, k, arrays[0])
        return _Priced(
            StepCost(
                backend=self.name, states=sum(plan.sizes), macs=macs,
                layer_cycles=layer_cycles, shards=self.shards,
                shard_cycles=tuple(shard_cycles),
                critical_path_cycles=compute + merge,
                merge_cycles=merge, merge_hops=merge_hops,
                fill_drain_cycles=compute - max(
                    (cycles for cycles, _arrays in lanes), default=0
                ),
                noc=self.noc,
            ),
            tuple(spans), tuple(lanes), barrier=plan.splits == ("batch",),
        )

    def _fault_extras(self, shard_cycles) -> list[int]:
        """Cycles this forward's chaos draws add to each array.

        Every busy array, in array order, pays its transient retries
        and straggler slowdown (:meth:`_chaos_extra`).
        """
        return [
            self._chaos_extra(k, cycles) if cycles else 0
            for k, cycles in enumerate(shard_cycles)
        ]

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        """One datapath forward over the batch, the plan priced.

        The survivors are known before anything runs (a crash failover
        only changes the plan the price is made from), the Q values
        come from the datapath in one pass, and the cost is the cached
        price of the plan — stretched, under chaos, by each busy
        array's retries and stragglers (:meth:`_Priced.stretched`).
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
        if FAULTS.enabled:
            cost = priced.stretched(self._fault_extras(cost.shard_cycles))
        return q_values, replace(cost, layer_cycles=dict(cost.layer_cycles))
