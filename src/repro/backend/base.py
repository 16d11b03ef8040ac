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

:class:`StepCost` is the one additive cost record: single-array and
multi-array (:class:`~repro.backend.sharded.ShardedBackend`) costs
share its fields, and any run of them sums with ``+``.
:class:`WeightBus` — the double-buffered weight path between the float
trainer and a deployed datapath, replacing the synchronous per-update
``backend.sync()`` write-back with a configurable flip cadence and a
tracked staleness counter — lives here too, because every backend
shares it.
"""

from __future__ import annotations

import difflib
import operator
from dataclasses import dataclass, field, fields
from itertools import zip_longest

import numpy as np

from repro.faults.injector import FAULTS
from repro.faults.recovery import buffer_checksum
from repro.fixedpoint.qformat import QFormat
from repro.nn.network import Network
from repro.obs.probes import PROBE
from repro.systolic.array import ArrayConfig, PAPER_ARRAY

__all__ = [
    "StepCost",
    "WeightBus",
    "ExecutionBackend",
    "BACKENDS",
    "register_backend",
    "make_backend",
]


def _add_maps(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return merged


def _add_tuples(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sum, zip_longest(a, b, fillvalue=0)))


#: How ``StepCost.__add__`` combines a field, by its annotated type;
#: a field of any other type names its own rule in ``metadata["add"]``.
_ADD_BY_TYPE = {"int": operator.add, "dict": _add_maps, "tuple": _add_tuples}


def _first_set(a: str, b: str) -> str:
    return a or b


def _last_routed(a: str, b: str) -> str:
    return b if b != "flat" else a


@dataclass(frozen=True)
class StepCost:
    """Accelerator cost of one ``forward_batch`` call, or of a run of them.

    The one cost record: every backend returns it, the agent's ledgers
    and the fleet report sum it with ``+``, and a new counter is added
    here once.  ``layer_cycles`` maps layer names to the array cycles
    charged for that layer (empty for backends without a hardware
    model, e.g. the float NumPy path, whose cost is identically zero);
    these are *work* cycles, summed over every array — the number one
    array would need to burn serially.  ``macs`` counts
    multiply-accumulates, ``states`` the state vectors served.

    The schedule fields describe the arrays the work ran on (the
    defaults are one array that charged nothing):

    * ``shards`` — arrays the cost executed on;
    * ``shard_cycles`` — per-array totals (index = array); a
      single-array cost charges its whole total to array 0;
    * ``critical_path_cycles`` — the wall-clock cycles of the parallel
      schedule: per forward pass, the slowest array (sample sharding),
      the pipeline makespan, or the sum over layers of the slowest
      array per layer (layer sharding), plus the merge cycles.  Summed
      records sum their critical paths — forwards are serialized by
      the rollout loop even when each one is internally parallel;
    * ``merge_cycles`` — inter-array traffic (gathers, layer
      sharding's re-broadcasts, pipeline hand-offs, gradient
      reductions), costed on the backend's
      :class:`~repro.systolic.noc.NocModel`;
    * ``merge_hops`` — element-hops of that traffic (== the element
      count under ``flat``'s single hop; larger on ring/mesh hauls);
    * ``fill_drain_cycles`` — cycles the critical path spent on
      fill/drain bubbles: the makespan less the busiest array's (or
      output-split stage's) own time, non-zero only for multi-stage
      plans;
    * ``noc`` — the topology name the merge was costed on.

    ``a + b`` sums two records field by field: counters add, maps add
    key by key, per-array tuples add index by index (the shorter one
    padded with zeros), ``shards`` takes the larger, ``noc`` the last
    routed topology and ``backend`` the first name set.  ``StepCost()``
    is the zero record.
    """

    backend: str = field(default="", metadata={"add": _first_set})
    states: int = 0
    macs: int = 0
    layer_cycles: dict[str, int] = field(default_factory=dict)
    shards: int = field(default=1, metadata={"add": max})
    shard_cycles: tuple[int, ...] = ()
    critical_path_cycles: int = 0
    merge_cycles: int = 0
    merge_hops: int = 0
    fill_drain_cycles: int = 0
    noc: str = field(default="flat", metadata={"add": _last_routed})

    def __add__(self, other: "StepCost") -> "StepCost":
        if not isinstance(other, StepCost):
            return NotImplemented
        return StepCost(*[
            add(getattr(self, name), getattr(other, name))
            for name, add in _ADD_RULES
        ])

    @property
    def total_cycles(self) -> int:
        """Array cycles across all layers (work, summed over arrays)."""
        return sum(self.layer_cycles.values())

    @property
    def cycles_per_state(self) -> float:
        """Average array cycles per state served."""
        return self.total_cycles / self.states if self.states else 0.0

    @property
    def critical_shard_index(self) -> int:
        """The array that burned the most cycles, i.e. the one the wall
        clock waited on (ties toward the lowest index; 0 with no arrays).
        The fleet report and the obs layer use it to label the slow span.
        """
        cycles = self.shard_cycles
        if not cycles:
            return 0
        return max(range(len(cycles)), key=cycles.__getitem__)

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

    def array_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Time the modelled array needs for this cost's work."""
        return config.seconds(self.total_cycles)

    def critical_path_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Wall-clock time of the parallel schedule on the modelled arrays."""
        return config.seconds(self.critical_path_cycles)


def _add_rule(f) -> object:
    rule = f.metadata.get("add") or _ADD_BY_TYPE.get(f.type.split("[")[0])
    if rule is None:
        raise TypeError(f"StepCost.{f.name} ({f.type}) has no + rule")
    return rule


_ADD_RULES = tuple((f.name, _add_rule(f)) for f in fields(StepCost))


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
        """Draw a (buffer name, flat index, bit) target for a flip.

        Every stored word is equally likely to be upset: one flat word
        index over all serving buffers, laid end to end in name order,
        so a buffer takes flips in proportion to its size.
        """
        buffers = self.backend.weight_buffers()
        names = sorted(buffers)
        ends = np.cumsum([buffers[name].size for name in names])
        word = int(rng.integers(ends[-1]))
        slot = int(np.searchsorted(ends, word, side="right"))
        name = names[slot]
        index = word - (int(ends[slot - 1]) if slot else 0)
        bits = self.backend.weight_format.total_bits
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

    #: The array geometry and clock the backend's cycles run at (a
    #: backend without a hardware model charges none; its zero cycles
    #: convert at the paper array's clock).
    config: ArrayConfig = PAPER_ARRAY

    #: The fixed-point formats of the serving weights and of the
    #: activations between layers (``None`` on the float path).  The
    #: fault layer draws bit flips over the weight format's width, and
    #: the agent's Q-value guard checks served Q values against the
    #: activation format's saturation rails.
    weight_format: QFormat | None = None
    activation_format: QFormat | None = None

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

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        """Flip one stored bit of serving buffer ``name`` (fault model).

        No-op by default: backends without a serving snapshot have no
        stored codes to upset.
        """

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
