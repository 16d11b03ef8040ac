"""Execution-backend interface and per-step cost accounting.

Every consumer that needs "run the Q network over a batch of states"
goes through one seam: :meth:`ExecutionBackend.forward_batch` takes an
(N, C, H, W) state batch and returns ``(q_values, StepCost)`` — the
Q values the backend's datapath produces and the cycles the modelled
accelerator charges for producing them.  The agent routes action
selection through its backend, the fleet scheduler threads the returned
:class:`StepCost` totals into its round reports, and the traffic
projection consumes the measured cycles — so swapping a backend swaps
the numerics *and* the hardware accounting everywhere at once.

Backends register themselves under a short name (``numpy``,
``quantized``, ``systolic``, ``sharded``) via :func:`register_backend`;
:func:`make_backend` resolves CLI-style names to instances.

Two further pieces live here because every backend shares them:

* :class:`ShardCost` — a :class:`StepCost` that additionally carries
  per-array cycle totals, the critical-path cycles of the parallel
  schedule and the merge/broadcast overhead, produced by the
  multi-array :class:`~repro.backend.sharded.ShardedBackend`;
* :class:`WeightBus` — the double-buffered weight path between the
  float trainer and a deployed datapath, replacing the synchronous
  per-update ``backend.sync()`` write-back with a configurable flip
  cadence and a tracked staleness counter.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

import numpy as np

from repro.faults.injector import FAULTS
from repro.faults.recovery import buffer_checksum
from repro.nn.network import Network
from repro.obs.probes import PROBE
from repro.systolic.array import ArrayConfig, PAPER_ARRAY

__all__ = [
    "StepCost",
    "ShardCost",
    "StepCostAccumulator",
    "merge_step_costs",
    "WeightBus",
    "ExecutionBackend",
    "BACKENDS",
    "register_backend",
    "make_backend",
]


@dataclass(frozen=True)
class StepCost:
    """Accelerator cost of one ``forward_batch`` call (or a merged run).

    ``layer_cycles`` maps layer names to the array cycles charged for
    that layer (empty for backends without a hardware model, e.g. the
    float NumPy path, whose cost is identically zero).  ``macs`` counts
    multiply-accumulates, ``states`` the state vectors served.
    """

    backend: str
    states: int
    macs: int = 0
    layer_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        """Array cycles across all layers."""
        return sum(self.layer_cycles.values())

    @property
    def cycles_per_state(self) -> float:
        """Average array cycles per state served."""
        return self.total_cycles / self.states if self.states else 0.0

    def array_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Time the modelled array needs for this cost."""
        return config.seconds(self.total_cycles)

    # Single-array view of the sharded fields, so consumers (the fleet
    # scheduler, the traffic projection) read one shape of record.
    @property
    def shards(self) -> int:
        """Number of arrays this cost executed on (1 for plain costs)."""
        return 1

    @property
    def critical_path_cycles(self) -> int:
        """Wall-clock cycles of the schedule; all of them on one array."""
        return self.total_cycles

    @property
    def merge_cycles(self) -> int:
        """Inter-array merge/broadcast cycles (none on one array)."""
        return 0

    @property
    def merge_hops(self) -> int:
        """Element-hops of inter-array traffic (none on one array)."""
        return 0

    @property
    def fill_drain_cycles(self) -> int:
        """Pipeline fill/drain bubble cycles (none on one array)."""
        return 0

    @property
    def noc(self) -> str:
        """Inter-array NoC topology the merge was costed on."""
        return "flat"

    @property
    def critical_shard_index(self) -> int:
        """Index of the array on the critical path (0: only one array)."""
        return 0


@dataclass(frozen=True)
class ShardCost(StepCost):
    """A :class:`StepCost` executed across K parallel arrays.

    ``layer_cycles`` (and so ``total_cycles``) keep their meaning of
    *work*: the cycles summed over every array, the number a single
    array would need to burn serially (plus the replicated FC tile
    loads each array charges for its own copy).  The parallel schedule
    adds three fields:

    * ``shard_cycles`` — per-array totals over the run (index = array);
    * ``critical_path_cycles`` — the wall-clock cycles of the parallel
      schedule: per forward pass, the slowest array (sample sharding)
      or the sum over layers of the slowest array per layer (layer
      sharding), plus the merge/broadcast cycles.  Merged records sum
      their critical paths — forwards are serialized by the rollout
      loop even when each one is internally parallel;
    * ``merge_cycles`` — the inter-array traffic charged for gathering
      shard outputs (and, under layer sharding, re-broadcasting the
      merged activation), costed on the backend's
      :class:`~repro.systolic.noc.NocModel` (the default ``flat``
      topology is exactly the legacy one-element-per-link-cycle model);
    * ``merge_hops`` — element-hops of that traffic (== the element
      count under ``flat``'s single hop; larger on ring/mesh hauls);
    * ``fill_drain_cycles`` — schedule bubbles: cycles the critical
      path spent waiting on pipeline fill/drain (``shard="pipeline"``
      only; zero for the barrier policies);
    * ``noc`` — the topology name the merge was costed on;
    * ``critical_shard_index`` — which array burned the most cycles,
      i.e. the one the wall clock waited on.  The fleet report and the
      obs layer use it to label the slow span; ties break toward the
      lowest index (``argmax`` semantics).
    """

    shards: int = 1
    shard_cycles: tuple[int, ...] = ()
    critical_path_cycles: int = 0
    merge_cycles: int = 0
    critical_shard_index: int = 0
    merge_hops: int = 0
    fill_drain_cycles: int = 0
    noc: str = "flat"

    @property
    def parallel_speedup(self) -> float:
        """Work cycles over critical-path cycles (<= ``shards``)."""
        if self.critical_path_cycles <= 0:
            return 1.0
        return self.total_cycles / self.critical_path_cycles

    @property
    def scaling_efficiency(self) -> float:
        """Parallel speedup per array (1.0 = perfect scaling)."""
        return self.parallel_speedup / self.shards if self.shards else 0.0

    def critical_path_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Wall-clock time of the parallel schedule on the modelled arrays."""
        return config.seconds(self.critical_path_cycles)


class StepCostAccumulator:
    """Streaming, in-place equivalent of :func:`merge_step_costs`.

    The agent's pending-cost ledgers and the scheduler's per-phase cycle
    peeks used to rebuild a merged record from the full list on every
    update — O(K²) in the number of accumulated records.  The
    accumulator folds each record in once (O(layers + shards) per
    :meth:`add`), keeps a running ``total_cycles`` readable in O(1), and
    materialises the same :class:`StepCost`/:class:`ShardCost` a list
    merge would have produced only when :meth:`merge` is called.

    Sharded-vs-plain is decided at merge time, not add time: per-array
    totals accumulate unconditionally (a plain record charges array 0),
    so plain records arriving before the first :class:`ShardCost` fold
    identically to :func:`merge_step_costs`'s two-pass behaviour.
    """

    __slots__ = (
        "_backend", "_states", "_macs", "_layer_cycles", "_total",
        "_count", "_sharded", "_shards", "_critical", "_merge",
        "_shard_cycles", "_merge_hops", "_fill_drain", "_noc",
    )

    def __init__(self, backend: str = ""):
        self._backend = backend
        self.reset()

    def reset(self) -> None:
        """Zero every tally (the bound backend name survives)."""
        self._states = 0
        self._macs = 0
        self._layer_cycles: dict[str, int] = {}
        self._total = 0
        self._count = 0
        self._sharded = False
        self._shards = 0
        self._critical = 0
        self._merge = 0
        self._shard_cycles: list[int] = []
        self._merge_hops = 0
        self._fill_drain = 0
        self._noc = "flat"

    def add(self, cost: StepCost) -> None:
        """Fold one record into the running totals."""
        self._count += 1
        self._states += cost.states
        self._macs += cost.macs
        layer_cycles = self._layer_cycles
        for name, cycles in cost.layer_cycles.items():
            layer_cycles[name] = layer_cycles.get(name, 0) + cycles
            self._total += cycles
        if not self._backend:
            self._backend = cost.backend
        if isinstance(cost, ShardCost):
            self._sharded = True
            per_array = cost.shard_cycles
        else:
            per_array = (cost.total_cycles,)
        self._shards = max(self._shards, cost.shards)
        self._critical += cost.critical_path_cycles
        self._merge += cost.merge_cycles
        self._merge_hops += cost.merge_hops
        self._fill_drain += cost.fill_drain_cycles
        if cost.noc != "flat":
            self._noc = cost.noc
        shard_cycles = self._shard_cycles
        if len(per_array) > len(shard_cycles):
            shard_cycles.extend([0] * (len(per_array) - len(shard_cycles)))
        for i, cycles in enumerate(per_array):
            shard_cycles[i] += cycles

    def __len__(self) -> int:
        return self._count

    @property
    def total_cycles(self) -> int:
        """Running work-cycle total, O(1) — the hot scheduler peek."""
        return self._total

    def merge(self) -> StepCost:
        """The merged record so far (does not reset the accumulator)."""
        if self._sharded:
            # The critical shard is recomputed from the merged per-array
            # totals: the array that burned the most cycles over the
            # whole run, not whichever array happened to be slow in the
            # last constituent record.
            shard_cycles = self._shard_cycles
            critical_index = (
                max(range(len(shard_cycles)), key=shard_cycles.__getitem__)
                if shard_cycles
                else 0
            )
            return ShardCost(
                backend=self._backend, states=self._states, macs=self._macs,
                layer_cycles=dict(self._layer_cycles), shards=self._shards,
                shard_cycles=tuple(shard_cycles),
                critical_path_cycles=self._critical,
                merge_cycles=self._merge,
                critical_shard_index=critical_index,
                merge_hops=self._merge_hops,
                fill_drain_cycles=self._fill_drain,
                noc=self._noc,
            )
        return StepCost(
            backend=self._backend, states=self._states, macs=self._macs,
            layer_cycles=dict(self._layer_cycles),
        )

    def drain(self) -> StepCost:
        """:meth:`merge`, then reset — the per-round ledger handoff."""
        merged = self.merge()
        self.reset()
        return merged


def merge_step_costs(costs: list[StepCost], backend: str = "") -> StepCost:
    """Sum a sequence of :class:`StepCost` records into one total.

    Layer cycles merge key-wise, ``states``/``macs`` add.  An empty list
    merges to a zero cost (useful for rounds where every action explored
    and no forward pass ran).  When any record is a :class:`ShardCost`
    the merge stays sharded: per-array totals add index-wise (a plain
    single-array record charges array 0), critical paths add — the
    forwards ran one after another — and the result is a
    :class:`ShardCost` over the widest shard count seen.

    One-shot wrapper over :class:`StepCostAccumulator`; callers merging
    incrementally in a loop should hold an accumulator instead.
    """
    acc = StepCostAccumulator(backend)
    for cost in costs:
        acc.add(cost)
    return acc.merge()


class WeightBus:
    """Double-buffered weight path between the trainer and the datapath.

    The paper's split — training in float off-device, inference on the
    quantised array — used to be modelled with a *synchronous* write-back:
    every ``train_step`` called ``backend.sync()``, stalling the serving
    datapath behind each float update.  The bus decouples them with two
    buffers:

    * the **staging buffer** is the live float network the optimizer
      writes continuously (:meth:`publish` marks each completed update);
    * the **serving buffer** is the backend's quantised snapshot, which
      only refreshes when the bus *flips* — every ``sync_every``
      published updates (the SRAM weight download of Fig. 3b, now
      amortised over several updates).

    Between flips the datapath serves weights that are up to
    ``sync_every - 1`` updates stale; :attr:`staleness` tracks how many
    published updates the serving snapshot is currently behind, and
    :meth:`note_serve` accumulates the staleness each served state
    actually saw, so the agreement/staleness tradeoff is measured rather
    than implicit.  ``sync_every=1`` reproduces the old synchronous
    behaviour exactly.  A backend with no snapshot
    (``has_snapshot=False``, the float path) always serves the live
    weights: its bus never accumulates staleness, whatever the cadence.
    """

    def __init__(self, backend: "ExecutionBackend", sync_every: int = 1):
        if sync_every <= 0:
            raise ValueError("sync_every must be positive")
        self.backend = backend
        self.sync_every = sync_every if backend.has_snapshot else 1
        #: Published updates the serving snapshot is currently behind.
        self.staleness = 0
        #: Updates published since construction.
        self.publishes = 0
        #: Buffer flips (datapath downloads) since construction.
        self.flips = 0
        self._serve_staleness_sum = 0
        self._serves = 0
        # Fault-tolerance state: last checksum-good serving snapshot
        # (only maintained while the FAULTS seam is active) and the
        # record of a dropped-but-not-yet-recovered flip.
        self._good_buffers: dict[str, np.ndarray] | None = None
        self._good_checksum: int | None = None
        self._dropped = None

    def publish(self) -> bool:
        """Record one completed training update in the staging buffer.

        Flips the serving buffer when ``sync_every`` updates have
        accumulated; returns whether this publish flipped.
        """
        self.publishes += 1
        self.staleness += 1
        if PROBE.enabled:
            PROBE.count(
                "repro_weightbus_publishes_total",
                help="Training updates published to the staging buffer.",
            )
        if FAULTS.enabled and self.backend.weight_buffers() is not None:
            return self._publish_chaos()
        if self.staleness >= self.sync_every:
            self.flip()
            return True
        if PROBE.enabled:
            PROBE.gauge(
                "repro_weightbus_staleness_updates",
                self.staleness,
                help="Updates the serving snapshot is currently behind.",
            )
        return False

    def flip(self) -> None:
        """Download the staged weights into the serving datapath now."""
        with PROBE.span("weightbus.flip", staleness=self.staleness):
            self.backend.sync()
        if FAULTS.enabled and self.backend.weight_buffers() is not None:
            self._flip_chaos()
        self.flips += 1
        self.staleness = 0
        if PROBE.enabled:
            PROBE.count(
                "repro_weightbus_flips_total",
                help="Serving-buffer flips (datapath weight downloads).",
            )
            PROBE.gauge(
                "repro_weightbus_staleness_updates",
                0,
                help="Updates the serving snapshot is currently behind.",
            )

    # ------------------------------------------------------------------
    # Fault injection / detection / recovery (FAULTS seam active only)
    # ------------------------------------------------------------------
    def _publish_chaos(self) -> bool:
        """Chaos-mode :meth:`publish`: verify, recover, inject, flip.

        Order matters for determinism and detectability: first the
        integrity check of the serving buffer (catching bit flips
        injected on earlier publishes — checksum mismatch rolls back to
        the last checksum-good snapshot), then the staleness watchdog
        (a dropped flip is force-flipped once staleness exceeds the
        ``sync_every`` bound), then the flip-or-drop decision, and only
        then a fresh soft-error draw against whatever snapshot is now
        serving.
        """
        inj = FAULTS.injector
        update = inj.note_update()
        if self._good_checksum is None:
            self._capture_good()
        elif self.backend.weight_checksum() != self._good_checksum:
            self._rollback(inj)
        if self._dropped is not None and self.staleness > self.sync_every:
            rec, self._dropped = self._dropped, None
            inj.mark_detected(rec)
            with PROBE.span("recovery", kind="weightbus.watchdog"):
                self.flip()
            inj.add_recovery_cycles(inj.plan.retry_timeout_cycles)
            inj.mark_recovered(rec, detail="staleness watchdog forced flip")
            return True
        flipped = False
        if self.staleness >= self.sync_every:
            if inj.drop_publish(update):
                self._dropped = inj.record(
                    "publish.drop",
                    target="weightbus",
                    detail=f"staleness={self.staleness}",
                )
            else:
                self.flip()
                flipped = True
        if not flipped and PROBE.enabled:
            PROBE.gauge(
                "repro_weightbus_staleness_updates",
                self.staleness,
                help="Updates the serving snapshot is currently behind.",
            )
        rng = inj.sram_flip_rng(update)
        if rng is not None and self._good_checksum is not None:
            name, index, bit = self._pick_bit(rng)
            self.backend.corrupt_weight_bit(name, index, bit)
            inj.record("sram.flip", target=name, detail=f"bit={bit}")
        return flipped

    def _flip_chaos(self) -> None:
        """Chaos-mode tail of :meth:`flip`: corrupt, verify, re-sync.

        The checksum of the freshly synced buffers is ground truth; an
        injected download corruption is detected by re-verifying against
        it and repaired by bounded re-sync retries with exponential
        backoff, falling back to a rollback onto the last good snapshot
        when every retry draw stays corrupted.  Ends by capturing the
        (now good) snapshot as the rollback target for later publishes.
        """
        inj = FAULTS.injector
        plan = inj.plan
        good = self.backend.weight_checksum()
        rng = inj.corrupt_rng(self.flips + 1)
        if rng is not None:
            name, index, bit = self._pick_bit(rng)
            self.backend.corrupt_weight_bit(name, index, bit)
            rec = inj.record(
                "buffer.corrupt", target=name, detail=f"bit={bit}"
            )
            if self.backend.weight_checksum() != good:
                inj.mark_detected(rec)
                with PROBE.span("recovery", kind="weightbus.resync"):
                    attempts = 0
                    while (
                        self.backend.weight_checksum() != good
                        and attempts < plan.max_retries
                    ):
                        attempts += 1
                        inj.add_recovery_cycles(
                            int(
                                plan.retry_timeout_cycles
                                * plan.retry_backoff ** (attempts - 1)
                            )
                        )
                        self.backend.sync()
                        if rng.random() < plan.buffer_corruption_rate:
                            # The write glitch persisted into the retry.
                            name, index, bit = self._pick_bit(rng)
                            self.backend.corrupt_weight_bit(name, index, bit)
                    if self.backend.weight_checksum() == good:
                        inj.mark_recovered(
                            rec, detail=f"re-synced after {attempts} retries"
                        )
                    elif self._good_buffers is not None:
                        self.backend.restore_weight_buffers(self._good_buffers)
                        inj.mark_recovered(
                            rec, detail="rolled back to last good snapshot"
                        )
        self._capture_good()

    def _rollback(self, inj) -> None:
        """Serving-buffer integrity failure: restore the good snapshot."""
        for rec in inj.undetected(("sram.flip", "buffer.corrupt")):
            inj.mark_detected(rec)
        with PROBE.span("recovery", kind="weightbus.rollback"):
            self.backend.restore_weight_buffers(self._good_buffers)
        inj.add_recovery_cycles(inj.plan.retry_timeout_cycles)
        for rec in inj.events:
            if (
                rec.kind in ("sram.flip", "buffer.corrupt")
                and rec.detected
                and not rec.recovered
            ):
                inj.mark_recovered(rec, detail="checksum rollback on publish")

    def _capture_good(self) -> None:
        self._good_buffers = self.backend.snapshot_weight_buffers()
        self._good_checksum = self.backend.weight_checksum()

    def _pick_bit(self, rng) -> tuple[str, int, int]:
        """Draw a (buffer name, flat index, bit) target for a flip."""
        buffers = self.backend.weight_buffers()
        names = sorted(buffers)
        name = names[int(rng.integers(len(names)))]
        index = int(rng.integers(buffers[name].size))
        fmt = getattr(self.backend, "weight_format", None)
        bits = fmt.total_bits if fmt is not None else 16
        return name, index, int(rng.integers(bits))

    def note_serve(self, states: int = 1) -> None:
        """Record that ``states`` states were served at current staleness."""
        self._serve_staleness_sum += self.staleness * states
        self._serves += states

    def drain_serve_staleness(self) -> float:
        """Mean staleness (in updates) of states served since last drain."""
        mean = (
            self._serve_staleness_sum / self._serves if self._serves else 0.0
        )
        self._serve_staleness_sum = 0
        self._serves = 0
        return mean


class ExecutionBackend:
    """Abstract "run the network" seam shared by agent, fleet and CLI.

    Subclasses implement :meth:`forward_batch`; everything else (greedy
    action extraction, agreement measurement) is derived.  Each backend
    wraps a float :class:`~repro.nn.network.Network` — the single source
    of weights — and decides how those weights execute: float NumPy,
    16-bit fixed point, or the functional systolic datapath.
    """

    #: Registry name; set by :func:`register_backend`.
    name: str = "abstract"

    #: The wrapped float network (set by subclass constructors).
    network: Network

    #: Whether the backend serves from a captured weight snapshot.
    #: ``False`` means forwards always read the live network (the float
    #: path), so a :class:`WeightBus` in front of it has no staleness.
    has_snapshot: bool = True

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        """Q values and accelerator cost for an (N, C, H, W) state batch."""
        raise NotImplementedError

    def train_cost(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int = 0,
    ) -> StepCost:
        """Cost of one batch-N training iteration on this backend's array.

        Fig. 3b's iteration — N forward passes plus the backward GEMMs
        of the trainable tail (dL/dW and the Fig. 8 transposed dL/dX)
        and the weight update — executed on the same datapath that
        serves inference.  ``state_shape`` is one state's (C, H, W);
        ``first_trainable`` is the layer index where backpropagation
        stops, exactly as the agent holds it.

        The default models the paper's split — training runs off-device
        in float, charging the array nothing.  Backends with a hardware
        model override this with the closed-form whole-network
        training-step accounting (:mod:`repro.systolic.training`), so an
        agent constructed with ``train_on_array=True`` charges every
        update to the array it serves from.
        """
        return StepCost(backend=self.name, states=batch_size)

    def sync(self) -> None:
        """Refresh any internal snapshot of the network's weights.

        Quantised backends capture weight codes at construction (the
        paper's model download); after an online training update the
        agent calls this so the deployed datapath sees the new weights
        — the SRAM write-back of Fig. 3b.  The float path has no
        snapshot, so the default is a no-op.
        """

    # ------------------------------------------------------------------
    # Serving-buffer introspection (the fault-injection/detection seam)
    # ------------------------------------------------------------------
    def weight_buffers(self) -> dict[str, np.ndarray] | None:
        """The live serving weight buffers by name, or ``None``.

        Backends that serve from a captured snapshot expose the arrays
        the datapath actually reads, so the fault layer can checksum
        them, flip bits in them, and roll them back.  The float path
        has no serving snapshot distinct from the training weights and
        returns ``None`` — it is exempt from weight-buffer faults.
        """
        return None

    def weight_checksum(self) -> int:
        """CRC-32 fingerprint of the serving buffers (0 if none)."""
        return buffer_checksum(self.weight_buffers())

    def snapshot_weight_buffers(self) -> dict[str, np.ndarray] | None:
        """Deep copies of the serving buffers (a rollback target)."""
        buffers = self.weight_buffers()
        if buffers is None:
            return None
        return {name: arr.copy() for name, arr in buffers.items()}

    def restore_weight_buffers(self, saved: dict[str, np.ndarray]) -> None:
        """Write a snapshot back into the live serving buffers."""
        buffers = self.weight_buffers()
        if buffers is None:
            return
        for name, arr in saved.items():
            buffers[name][...] = arr
        self._refresh_weight_values()

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        """Flip one stored bit of serving buffer ``name`` (fault model).

        No-op by default: backends without a serving snapshot have no
        stored codes to upset.
        """

    def _refresh_weight_values(self) -> None:
        """Rebuild any state derived from the raw serving buffers."""

    def greedy_actions(self, states: np.ndarray) -> tuple[np.ndarray, StepCost]:
        """Argmax actions (N,) for a state batch, with the step cost."""
        q_values, cost = self.forward_batch(states)
        return np.argmax(q_values, axis=1).astype(np.int64), cost

    def agreement_rate(self, states: np.ndarray) -> float:
        """Fraction of states whose greedy action matches the float policy.

        1.0 for backends that *are* the float policy; for quantised
        datapaths this is the paper's "does the policy survive 16-bit
        arithmetic" number.
        """
        states = np.asarray(states, dtype=np.float64)
        if states.ndim < 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty batch")
        backend_actions, _ = self.greedy_actions(states)
        float_actions = np.argmax(self.network.predict(states), axis=1)
        return float(np.mean(backend_actions == float_actions))


#: Registered backend classes by CLI name.
BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(name: str):
    """Class decorator: register a backend under ``name``."""

    def decorator(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
        cls.name = name
        BACKENDS[name] = cls
        return cls

    return decorator


def make_backend(name: str, network: Network, **kwargs) -> ExecutionBackend:
    """Instantiate a registered backend by name (the CLI entry point)."""
    if name not in BACKENDS:
        message = f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        close = difflib.get_close_matches(name, BACKENDS, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise ValueError(message)
    return BACKENDS[name](network, **kwargs)
