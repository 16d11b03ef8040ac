"""The chaos seam: one process-global fault injector, off by default.

Mirrors the :data:`~repro.obs.probes.PROBE` design exactly: production
code imports :data:`FAULTS` and guards every fault hook behind one
attribute check::

    from repro.faults.injector import FAULTS

    if FAULTS.enabled:
        FAULTS.injector.note_step()

While the seam is inactive (the default) no fault code runs and an
instrumented run is bitwise identical to an uninstrumented one — the
fingerprint check in ``benchmarks/test_obs_overhead.py`` enforces it.
:meth:`FaultSeam.activate` binds a :class:`FaultInjector` built from a
:class:`~repro.faults.plan.FaultPlan`; the :func:`chaos` context
manager wraps activate/deactivate for tests and the CLI.

Determinism: every fault decision is drawn from a fresh
``numpy.random.default_rng`` keyed by ``(plan.seed, kind, counters)``,
where the counters (fleet step, published update, sharded forward,
round) advance identically on every run of the same workload.  The
draw for, say, a straggler on shard 2 of forward 117 does not depend
on how many sensor frames dropped before it — the same plan replays
the identical event log, which the fault-tolerance benchmark asserts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs.probes import PROBE

__all__ = [
    "FaultInjectionError",
    "FaultRecord",
    "FaultInjector",
    "FaultSeam",
    "FAULTS",
    "chaos",
]


class FaultInjectionError(RuntimeError):
    """An injected, scheduled failure (e.g. ``raise=STEP`` in a spec)."""


#: Independent RNG stream per fault kind; part of the draw key.
_KIND_CODES = {
    "sram.flip": 1,
    "shard.transient": 2,
    "shard.straggler": 3,
    "publish.drop": 4,
    "buffer.corrupt": 5,
    "sensor.dropout": 6,
    "env.exception": 7,
    "shard.crash": 8,
    "fleet.degraded": 9,
    "qvalue.anomaly": 10,
}


@dataclass
class FaultRecord:
    """One injected fault and what the stack did about it."""

    kind: str
    target: str
    round: int
    step: int
    update: int
    detected: bool = False
    recovered: bool = False
    recovered_round: int | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "round": self.round,
            "step": self.step,
            "update": self.update,
            "detected": self.detected,
            "recovered": self.recovered,
            "recovered_round": self.recovered_round,
            "detail": self.detail,
        }


class FaultInjector:
    """Draws faults from a plan and keeps the fault/recovery ledger.

    The integration points (weight bus, sharded backend, agent,
    vec-env, scheduler) call ``note_*`` to advance the counters and
    the decision methods (:meth:`sram_flip_rng`,
    :meth:`transient_attempts`, ...) to ask "does this fault fire
    here?".  Every injected fault becomes a :class:`FaultRecord`;
    detection and recovery mark it via :meth:`mark_detected` /
    :meth:`mark_recovered`, and the scheduler drains per-round
    injected/detected/recovered tallies with :meth:`drain_round`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: list[FaultRecord] = []
        #: Permanently failed array indices (grows, never shrinks).
        self.dead_shards: set[int] = set()
        self.round_index = 0
        # Monotonic opportunity counters — the RNG keys.
        self.steps = 0       # fleet env steps (VecNavigationEnv.step calls)
        self.updates = 0     # WeightBus publishes
        self.forwards = 0    # ShardedBackend.forward_batch calls
        self._round = self._zero_round()

    @staticmethod
    def _zero_round() -> dict:
        return {
            "injected": 0,
            "detected": 0,
            "recovered": 0,
            "recovery_cycles": 0,
            "degraded_states": 0,
        }

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def note_round(self, index: int) -> None:
        self.round_index = index

    def note_step(self) -> int:
        self.steps += 1
        return self.steps

    def note_update(self) -> int:
        self.updates += 1
        return self.updates

    def note_forward(self) -> int:
        self.forwards += 1
        return self.forwards

    def _rng(self, kind: str, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            (self.plan.seed, _KIND_CODES[kind]) + tuple(int(k) for k in key)
        )

    # ------------------------------------------------------------------
    # Decisions (pure functions of plan + counters)
    # ------------------------------------------------------------------
    def sram_flip_rng(self, update: int) -> np.random.Generator | None:
        """RNG to pick the flipped bit with, if a soft error fires."""
        if self.plan.sram_flip_rate <= 0.0:
            return None
        rng = self._rng("sram.flip", update)
        return rng if rng.random() < self.plan.sram_flip_rate else None

    def drop_publish(self, update: int) -> bool:
        if self.plan.publish_drop_rate <= 0.0:
            return False
        return bool(
            self._rng("publish.drop", update).random()
            < self.plan.publish_drop_rate
        )

    def corrupt_rng(self, flip: int) -> np.random.Generator | None:
        """RNG for a flip-time buffer corruption, if one fires."""
        if self.plan.buffer_corruption_rate <= 0.0:
            return None
        rng = self._rng("buffer.corrupt", flip)
        return rng if rng.random() < self.plan.buffer_corruption_rate else None

    def transient_attempts(self, forward: int, shard: int) -> int:
        """Failed attempts before shard ``shard``'s forward succeeds."""
        if self.plan.shard_transient_rate <= 0.0:
            return 0
        rng = self._rng("shard.transient", forward, shard)
        if rng.random() >= self.plan.shard_transient_rate:
            return 0
        return int(rng.integers(1, self.plan.max_retries + 1))

    def straggler_factor(self, forward: int, shard: int) -> float:
        if self.plan.shard_straggler_rate <= 0.0:
            return 1.0
        rng = self._rng("shard.straggler", forward, shard)
        if rng.random() >= self.plan.shard_straggler_rate:
            return 1.0
        return self.plan.straggler_factor

    def sensor_dropout(self, env_index: int) -> bool:
        if self.plan.sensor_dropout_rate <= 0.0:
            return False
        rng = self._rng("sensor.dropout", self.steps, env_index)
        return bool(rng.random() < self.plan.sensor_dropout_rate)

    def raise_now(self) -> bool:
        return self.steps in self.plan.raise_at_steps

    def due_crashes(self) -> list[int]:
        """Scheduled shard kills whose step has arrived, not yet dead."""
        return sorted(
            shard
            for step, shard in self.plan.shard_crashes
            if step <= self.steps and shard not in self.dead_shards
        )

    def kill(self, shard: int) -> None:
        self.dead_shards.add(shard)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def record(self, kind: str, target: str, detail: str = "") -> FaultRecord:
        rec = FaultRecord(
            kind=kind,
            target=target,
            round=self.round_index,
            step=self.steps,
            update=self.updates,
            detail=detail,
        )
        self.events.append(rec)
        self._round["injected"] += 1
        if PROBE.enabled:
            PROBE.count(
                "repro_fault_injected_total",
                help="Faults injected by the chaos plan.",
                kind=kind,
            )
        return rec

    def mark_detected(self, rec: FaultRecord) -> None:
        if rec.detected:
            return
        rec.detected = True
        self._round["detected"] += 1
        if PROBE.enabled:
            PROBE.count(
                "repro_fault_detected_total",
                help="Injected faults caught by a detection seam.",
                kind=rec.kind,
            )

    def mark_recovered(self, rec: FaultRecord, detail: str = "") -> None:
        if rec.recovered:
            return
        rec.recovered = True
        rec.recovered_round = self.round_index
        if detail:
            rec.detail = f"{rec.detail}; {detail}" if rec.detail else detail
        self._round["recovered"] += 1
        if PROBE.enabled:
            PROBE.count(
                "repro_fault_recovered_total",
                help="Detected faults a recovery policy repaired.",
                kind=rec.kind,
            )

    def undetected(self, kinds: tuple[str, ...]) -> list[FaultRecord]:
        return [e for e in self.events if e.kind in kinds and not e.detected]

    def add_recovery_cycles(self, cycles: int) -> None:
        """Charge modelled cycles spent detecting/recovering (overhead)."""
        self._round["recovery_cycles"] += int(cycles)

    def note_degraded(self, states: int) -> None:
        """Count states served by the degraded (fallback) path."""
        self._round["degraded_states"] += int(states)

    def drain_round(self) -> dict:
        """Per-round tallies since the last drain; resets the bucket."""
        out, self._round = self._round, self._zero_round()
        return out

    def event_log(self) -> list[dict]:
        """The full, deterministic fault/recovery event log."""
        return [e.as_dict() for e in self.events]


class FaultSeam:
    """Process-global on/off switch binding the active injector."""

    def __init__(self):
        self.enabled = False
        self.injector: FaultInjector | None = None

    def activate(self, plan: FaultPlan | FaultInjector) -> FaultInjector:
        """Switch chaos on; returns the live injector.

        The fault seam is **process-global**: one live injector owns
        the counters, RNG draws and event ledger, so every fault
        decision is made and logged in one place and a seeded chaos
        run replays its event log exactly.
        """
        if isinstance(plan, FaultInjector):
            self.injector = plan
        else:
            self.injector = FaultInjector(plan)
        self.enabled = True
        return self.injector

    def deactivate(self) -> None:
        """Restore the no-op state (the event ledger survives)."""
        self.enabled = False
        self.injector = None


#: The process-global fault seam every integrated module imports.
FAULTS = FaultSeam()


@contextmanager
def chaos(plan: FaultPlan | FaultInjector):
    """Activate :data:`FAULTS` for a block; yields the injector.

    Deactivates on exit even when the block raises (injected crashes
    included), so a failed chaos run cannot poison the next one.
    """
    injector = FAULTS.activate(plan)
    try:
        yield injector
    finally:
        FAULTS.deactivate()
