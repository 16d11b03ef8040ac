"""Host clocks and per-layer spans, wrapped around a mission at runtime.

Nothing here edits the program: each wrapper is an instance attribute
that shadows a public method of one mission's objects, so the scheduler
calls through it.  :class:`HostClock` times fleet steps and training
updates on every mission.  :class:`LayerTrace` records
``repro.obs.Tracer`` spans at the layer boundaries of traced missions
and keeps them in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs import Tracer

#: Root span; its self time is the scheduler's own share of a mission.
ROOT = "scheduler.run"


@dataclass
class MissionTimes:
    """Host timings of one mission."""

    step_ns: list[int] = field(default_factory=list)
    update_ns: list[int] = field(default_factory=list)
    env_steps: int = 0
    updates: int = 0
    run_ns: int = 0


class HostClock:
    """Fleet-step and update latencies, plus the work they cover.

    A fleet step runs from ``act_batch`` to the end of ``observe_batch``
    in the rollout, or to the end of ``env.step`` in the greedy eval.
    """

    def __init__(self):
        self.missions: list[MissionTimes] = []

    def attach(self, mission) -> MissionTimes:
        """Time one mission's steps and updates; returns its record."""
        times = MissionTimes()
        self.missions.append(times)
        agent, vec_env = mission.agent, mission.vec_env
        act, step = agent.act_batch, vec_env.step
        observe, train = agent.observe_batch, agent.train_step_batch
        began = [0, False]

        def act_batch(states, greedy=False):
            began[:] = time.perf_counter_ns(), greedy
            return act(states, greedy=greedy)

        def env_step(actions):
            out = step(actions)
            times.env_steps += vec_env.num_envs
            if began[1]:
                times.step_ns.append(time.perf_counter_ns() - began[0])
            return out

        def observe_batch(transitions):
            observe(transitions)
            times.step_ns.append(time.perf_counter_ns() - began[0])

        def train_step_batch(batch_size=None):
            start = time.perf_counter_ns()
            loss = train(batch_size)
            times.update_ns.append(time.perf_counter_ns() - start)
            times.updates += 1
            return loss

        agent.act_batch = act_batch
        agent.observe_batch = observe_batch
        agent.train_step_batch = train_step_batch
        vec_env.step = env_step
        return times

    @property
    def run_ns(self) -> int:
        return sum(m.run_ns for m in self.missions)


class LayerTrace:
    """Spans at each layer boundary of the traced missions."""

    def __init__(self):
        self.tracer = Tracer()
        self.missions = 0
        self.forward_states = 0
        self.forward_cycles = 0
        self.merge_cycles = 0
        self.fill_drain_cycles = 0

    def attach(self, mission) -> None:
        """Wrap one mission's layer entry points (before the clock's)."""
        agent, vec_env = mission.agent, mission.vec_env
        backend, bus = agent.backend, agent.weight_bus
        wrap = self.tracer.wrap
        for name, owner, attr in (
            (ROOT, mission.scheduler, "run"),
            ("fleet.env_step", vec_env, "step"),
            ("fleet.render", vec_env.renderer, "render"),
            ("fleet.collide", vec_env.collider, "clearances"),
            ("rl.act", agent, "act_batch"),
            ("rl.observe", agent, "observe_batch"),
            ("rl.train_step", agent, "train_step_batch"),
            ("backend.sync", backend, "sync"),
            ("backend.train_cost", backend, "train_cost"),
            ("weightbus.publish", bus, "publish"),
            ("weightbus.flip", bus, "flip"),
        ):
            setattr(owner, attr, wrap(name)(getattr(owner, attr)))
        forward = backend.forward_batch
        span = self.tracer.span

        def forward_batch(states):
            with span("backend.forward") as sp:
                q_values, cost = forward(states)
            sp.add_cycles(cost.total_cycles)
            self.forward_states += states.shape[0]
            self.forward_cycles += cost.total_cycles
            self.merge_cycles += cost.merge_cycles
            self.fill_drain_cycles += cost.fill_drain_cycles
            return q_values, cost

        backend.forward_batch = forward_batch
        self.missions += 1

    def self_times(self) -> tuple[dict[str, int], dict[str, int], list[str]]:
        """``(self_ns, calls)`` per span name, and the top-level names.

        Self time is a span's duration minus its children's.  Finished
        spans come children first, so the children of a span at depth
        ``d`` are the spans at depth ``d + 1`` finished since the last
        span at depth ``d``.
        """
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        pending: dict[int, int] = defaultdict(int)
        roots = []
        for sp in self.tracer.spans:
            duration = sp.duration_ns
            self_ns[sp.name] += duration - pending.pop(sp.depth + 1, 0)
            pending[sp.depth] += duration
            calls[sp.name] += 1
            if sp.depth == 0:
                roots.append(sp.name)
        return dict(self_ns), dict(calls), roots
