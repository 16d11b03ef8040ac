"""Deep Q-learning agent with partial backpropagation.

Implements eq. (1) of the paper: ``Q(s,a) = r + gamma * max_a' Q(s',a')``
regressed with gradient descent, where backpropagation covers only the
layers selected by the active :class:`~repro.rl.transfer.TransferConfig`.

Action selection routes through a pluggable
:class:`~repro.backend.ExecutionBackend` — float NumPy by default, or
the quantized / systolic datapaths for hardware-in-the-loop rollouts —
mirroring the paper's split: *inference* runs on the accelerator's
fixed-point datapath, *training* stays in floating point off-device.
Every backend forward records a :class:`~repro.backend.StepCost`;
:meth:`QLearningAgent.drain_inference_cost` hands the accumulated cycle
budget to whoever is accounting (the fleet scheduler, per round).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backend import ExecutionBackend, NumpyBackend, StepCost, WeightBus
from repro.env.episode import Transition
from repro.faults.injector import FAULTS
from repro.nn.losses import q_learning_loss
from repro.nn.network import Network
from repro.nn.optim import Optimizer, SGD
from repro.obs.probes import PROBE
from repro.rl.replay import ReplayBuffer
from repro.rl.transfer import TransferConfig

__all__ = ["EpsilonSchedule", "QLearningAgent"]


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linearly annealed exploration rate."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 2000

    def __post_init__(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError("need 0 <= end <= start <= 1")
        if self.decay_steps <= 0:
            raise ValueError("decay_steps must be positive")

    def value(self, step: int) -> float:
        """Exploration rate at ``step``."""
        if step >= self.decay_steps:
            return self.end
        frac = step / self.decay_steps
        return self.start + frac * (self.end - self.start)

    def values(self, steps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value` over an array of step indices."""
        steps = np.asarray(steps, dtype=np.float64)
        frac = np.minimum(steps / self.decay_steps, 1.0)
        # Past decay, return `end` exactly as value() does — the lerp
        # at frac=1.0 is off by one ulp, enough to diverge from the
        # sequential agent's draws.
        return np.where(
            steps >= self.decay_steps,
            self.end,
            self.start + frac * (self.end - self.start),
        )


class QLearningAgent:
    """DQN-style agent over a NumPy :class:`~repro.nn.network.Network`.

    Parameters
    ----------
    network:
        The Q network; outputs one value per action.
    config:
        Transfer configuration deciding which layers train online.
    num_actions:
        Size of the action space (5 in the paper).
    gamma:
        Discount factor of the long-term return.
    batch_size:
        Training batch size N (the paper evaluates N = 4, 8, 16).
    learning_rate, epsilon, replay_capacity, seed:
        Usual knobs.
    grad_clip:
        Global-norm gradient clip applied before each update; keeps the
        bootstrapped regression stable without a target network.
    target_sync_every:
        When set, maintain a frozen *target network* (a weight snapshot)
        for the bootstrap term, re-synchronised every this many training
        steps — the standard DQN stabiliser.  ``None`` bootstraps from
        the online network (the paper's plain eq. (1)).
    double_dqn:
        With a target network, select the bootstrap action with the
        online network but evaluate it with the target (double DQN);
        reduces the max-operator's overestimation bias.
    backend:
        Execution backend for action selection (``None`` selects the
        float :class:`~repro.backend.NumpyBackend`, bitwise-identical
        to calling the network directly).  Training always
        backpropagates through the float network regardless of the
        backend — inference-on-accelerator, training-off-device.
    sync_every:
        Flip cadence of the :class:`~repro.backend.WeightBus` between
        the float trainer and the deployed datapath: the backend's
        serving snapshot refreshes every this many training updates.
        1 (default) is the synchronous write-back after every update;
        larger values let inference run on a bounded-staleness snapshot
        while training proceeds — the async-rollout tradeoff, measured
        by the bus's staleness counters.
    train_on_array:
        When True, every training update additionally charges the
        backend's array the closed-form cost of executing that batch's
        forward + backward GEMMs on it (``backend.train_cost``), and
        :meth:`drain_training_cost` hands the accumulated budget to the
        fleet scheduler per round.  The *numerics* still backpropagate
        through the float network either way — this models what
        training on the datapath would cost, so the projection can
        answer whether K arrays sustain concurrent rollout + training.
        False (default) keeps the paper's training-off-device split:
        updates charge the array nothing.
    """

    def __init__(
        self,
        network: Network,
        config: TransferConfig,
        num_actions: int = 5,
        gamma: float = 0.9,
        batch_size: int = 8,
        learning_rate: float = 1e-3,
        epsilon: EpsilonSchedule | None = None,
        replay_capacity: int = 4000,
        seed: int = 0,
        optimizer: Optimizer | None = None,
        grad_clip: float = 5.0,
        target_sync_every: int | None = None,
        double_dqn: bool = False,
        backend: ExecutionBackend | None = None,
        sync_every: int = 1,
        train_on_array: bool = False,
    ):
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.network = network
        self.config = config
        self.num_actions = num_actions
        self.gamma = gamma
        self.batch_size = batch_size
        self.epsilon = epsilon or EpsilonSchedule()
        self.replay = ReplayBuffer(replay_capacity)
        self.rng = np.random.default_rng(seed)
        if grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if target_sync_every is not None and target_sync_every <= 0:
            raise ValueError("target_sync_every must be positive or None")
        if double_dqn and target_sync_every is None:
            raise ValueError("double_dqn requires a target network")
        self.grad_clip = grad_clip
        self.target_sync_every = target_sync_every
        self.double_dqn = double_dqn
        self._target_state = (
            network.state_dict() if target_sync_every is not None else None
        )
        self.first_trainable = config.first_trainable_layer(network)
        self.optimizer = optimizer or SGD(
            network.parameters(self.first_trainable), lr=learning_rate, momentum=0.9
        )
        if backend is not None and backend.network is not network:
            # A backend over some other network would serve one policy
            # while training (and sync()-ing) another — the deployed
            # policy would silently never improve.
            raise ValueError("backend must wrap the agent's own network")
        self.backend = backend or NumpyBackend(network)
        self.weight_bus = WeightBus(self.backend, sync_every=sync_every)
        # Running ledgers: each record is added once, so a ledger is
        # the sum of the costs charged since its last drain.
        self._pending_costs = StepCost(backend=self.backend.name)
        self.train_on_array = train_on_array
        self._pending_train_costs = StepCost(backend=self.backend.name)
        # The closed-form training cost is a pure function of
        # (batch, state shape, boundary) — memoise it per geometry so
        # charging every update costs a dict lookup, not a layer walk.
        self._train_cost_cache: dict[tuple, StepCost] = {}
        self.step_count = 0
        self.train_count = 0
        self.last_loss = float("nan")

    # ------------------------------------------------------------------
    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q(s, .) for a single state under the *float* network.

        This is the training-side view of the policy; the deployed
        (possibly quantised) view is ``backend.forward_batch``.
        """
        return self.network.predict(state[None, ...])[0]

    def _backend_q_values(self, states: np.ndarray) -> np.ndarray:
        """Backend forward pass, recording its step cost in the ledger."""
        self.weight_bus.note_serve(states.shape[0])
        with PROBE.span(
            "backend.forward_batch",
            backend=self.backend.name,
            states=int(states.shape[0]),
        ) as sp:
            q_values, cost = self.backend.forward_batch(states)
            sp.add_cycles(cost.total_cycles)
            if cost.shards > 1:
                sp.annotate(
                    shards=cost.shards,
                    critical_shard=cost.critical_shard_index,
                )
        if PROBE.enabled:
            PROBE.count(
                "repro_backend_forwards_total",
                help="Backend forward_batch calls.",
                backend=self.backend.name,
            )
            PROBE.count(
                "repro_backend_states_total",
                states.shape[0],
                help="States served by the backend.",
                backend=self.backend.name,
            )
            PROBE.count(
                "repro_backend_cycles_total",
                cost.total_cycles,
                help="Modelled array cycles charged for inference.",
                backend=self.backend.name,
            )
            PROBE.observe(
                "repro_backend_forward_seconds",
                sp.duration_s,
                help="Host wall time of one backend forward pass.",
                backend=self.backend.name,
            )
        if FAULTS.enabled:
            q_values, cost = self._guard_q_values(states, q_values, cost)
        self._pending_costs = self._pending_costs + cost
        return q_values

    def _guard_q_values(
        self, states: np.ndarray, q_values: np.ndarray, cost: StepCost
    ) -> tuple[np.ndarray, StepCost]:
        """NaN/range guard on served Q values, with flip-and-recompute.

        A bit flip in the serving weight buffer presents as non-finite
        Q values (float path) or values pinned to the activation
        format's saturation rails (the quantised datapath clamps, so a
        blown-up weight rails the output instead of producing NaN).
        On detection the agent forces a weight-bus flip — a fresh
        download from the float staging weights — and recomputes.  The
        recompute's cycles and MACs join the step's cost, but not its
        ``states``: the same batch is served once, so cycles per state
        and the degraded fraction stay per served state.  The injector
        also records those cycles as ``fault_recovery_cycles``; that
        figure is the part of the inference ledger's cycles spent on
        recovery, not an extra charge on top of it.
        """
        if not self._q_values_bad(q_values):
            return q_values, cost
        inj = FAULTS.injector
        suspects = inj.undetected(("sram.flip", "buffer.corrupt"))
        if suspects:
            for rec in suspects:
                inj.mark_detected(rec)
        else:
            rec = inj.record(
                "qvalue.anomaly", target=self.backend.name,
                detail="non-finite or rail-pinned Q values",
            )
            inj.mark_detected(rec)
            suspects = [rec]
        with PROBE.span("recovery", kind="qvalue.guard"):
            self.weight_bus.flip()
            q_values, recompute = self.backend.forward_batch(states)
        inj.add_recovery_cycles(recompute.total_cycles)
        cost = cost + replace(recompute, states=0)
        if not self._q_values_bad(q_values):
            for rec in suspects:
                inj.mark_recovered(rec, detail="forced flip + recompute")
        return q_values, cost

    def _q_values_bad(self, q_values: np.ndarray) -> bool:
        """Whether served Q values are non-finite or on the rails of
        the backend's activation format (a fixed-point datapath)."""
        if not np.all(np.isfinite(q_values)):
            return True
        fmt = self.backend.activation_format
        return fmt is not None and bool(
            np.any(q_values >= fmt.max_value) or np.any(q_values <= fmt.min_value)
        )

    def pending_inference_cycles(self) -> int:
        """Cycles in the inference ledger since the last drain.

        A read-only peek (nothing is drained): the fleet scheduler's
        phase spans difference it around each phase to attribute the
        modelled cycle budget to rollout vs evaluation.
        """
        return self._pending_costs.total_cycles

    def pending_training_cycles(self) -> int:
        """Cycles in the training ledger since the last drain (peek)."""
        return self._pending_train_costs.total_cycles

    def drain_inference_cost(self) -> StepCost:
        """Accumulated backend :class:`StepCost` since the last drain.

        Clears the ledger; the fleet scheduler calls this once per round
        to thread per-round cycle budgets into its report.
        """
        cost, self._pending_costs = (
            self._pending_costs, StepCost(backend=self.backend.name)
        )
        return cost

    def drain_training_cost(self) -> StepCost:
        """Accumulated on-array training :class:`StepCost` since last drain.

        Empty (zero cost) unless the agent was constructed with
        ``train_on_array=True`` and has trained; the fleet scheduler
        drains it per round alongside the inference ledger.
        """
        cost, self._pending_train_costs = (
            self._pending_train_costs, StepCost(backend=self.backend.name)
        )
        return cost

    def select_action(self, state: np.ndarray, greedy: bool = False) -> int:
        """Epsilon-greedy action selection (greedy leg via the backend)."""
        eps = 0.0 if greedy else self.epsilon.value(self.step_count)
        self.step_count += 1
        if self.rng.random() < eps:
            return int(self.rng.integers(self.num_actions))
        return int(np.argmax(self._backend_q_values(state[None, ...])[0]))

    def act_batch(self, states: np.ndarray, greedy: bool = False) -> np.ndarray:
        """Epsilon-greedy actions for a whole fleet of states at once.

        ``states`` is (N, C, H, W); returns (N,) int actions.  One
        backend forward pass serves all N environments, instead of N
        single-state passes.  Each state consumes one
        exploration-schedule step and one uniform draw, mirroring N
        :meth:`select_action` calls (the random draws come from the same
        generator, in batch order).
        """
        states = np.asarray(states)
        if states.ndim < 2:
            raise ValueError("act_batch expects a batch of states")
        n = states.shape[0]
        if greedy:
            eps = np.zeros(n)
        else:
            eps = self.epsilon.values(np.arange(self.step_count, self.step_count + n))
        self.step_count += n
        explore = self.rng.random(n) < eps
        if np.all(explore):
            # Mirror select_action: a fully exploring batch skips the
            # forward pass entirely.
            return self.rng.integers(self.num_actions, size=n).astype(np.int64)
        greedy_actions = np.argmax(self._backend_q_values(states), axis=1)
        if not np.any(explore):
            return greedy_actions.astype(np.int64)
        random_actions = self.rng.integers(self.num_actions, size=n)
        return np.where(explore, random_actions, greedy_actions).astype(np.int64)

    def observe(self, transition: Transition) -> None:
        """Store a transition in the replay buffer.

        Rejects non-finite rewards/states — a corrupted sensor frame
        silently entering replay would poison every later batch.
        """
        if not np.isfinite(transition.reward):
            raise ValueError(f"non-finite reward: {transition.reward}")
        if not np.all(np.isfinite(transition.state)) or not np.all(
            np.isfinite(transition.next_state)
        ):
            raise ValueError("non-finite values in observed state")
        if not 0 <= transition.action < self.num_actions:
            raise ValueError(f"action out of range: {transition.action}")
        self.replay.push(transition)

    def observe_batch(self, transitions: list[Transition]) -> None:
        """Store one fleet step's worth of transitions.

        Applies the same corrupted-frame guards as :meth:`observe`, but
        validates the whole batch with a few vectorised checks instead
        of per-transition calls.
        """
        if not transitions:
            return
        rewards = np.array([t.reward for t in transitions])
        if not np.all(np.isfinite(rewards)):
            raise ValueError("non-finite reward in batch")
        for t in transitions:
            if not 0 <= t.action < self.num_actions:
                raise ValueError(f"action out of range: {t.action}")
        states = np.stack(
            [t.state for t in transitions] + [t.next_state for t in transitions]
        )
        if not np.all(np.isfinite(states)):
            raise ValueError("non-finite values in observed state")
        for transition in transitions:
            self.replay.push(transition)

    def ready_to_train(self) -> bool:
        """Whether the buffer holds at least one batch."""
        return len(self.replay) >= self.batch_size

    def train_step(self) -> float:
        """One training iteration (Fig. 3b): batch forward, partial
        backward, gradient-descent update.  Returns the batch loss."""
        return self.train_step_batch(self.batch_size)

    def train_step_batch(self, batch_size: int | None = None) -> float:
        """One training iteration over a custom batch size.

        The fleet path trains with ``batch_size * num_envs`` samples in
        one forward/backward pass, matching the gradient throughput of
        ``num_envs`` independent agents at a fraction of the per-call
        overhead.  Returns the batch loss.
        """
        batch_size = self.batch_size if batch_size is None else batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(self.replay) < batch_size:
            raise RuntimeError("not enough transitions to train")
        with PROBE.span("agent.train_step", batch=batch_size) as sp:
            states, actions, rewards, next_states, dones = self.replay.sample(
                batch_size, self.rng
            )
            # Bellman targets (eq. 1); terminal states contribute reward
            # only.
            bootstrap = self._bootstrap_values(next_states)
            targets = rewards + self.gamma * (1.0 - dones) * bootstrap
            q_pred = self.network.forward(states, training=True)
            loss, grad = q_learning_loss(q_pred, actions, targets)
            self.network.zero_grad()
            self.network.backward(grad, first_trainable=self.first_trainable)
            self._clip_gradients()
            self.optimizer.step()
            self.train_count += 1
            self.last_loss = loss
            if (
                self.target_sync_every is not None
                and self.train_count % self.target_sync_every == 0
            ):
                self._target_state = self.network.state_dict()
            # Publish the update on the weight bus; the deployed datapath
            # flips to the staged weights every sync_every updates (every
            # update by default — the synchronous SRAM write-back).
            self.weight_bus.publish()
            if self.train_on_array:
                if FAULTS.enabled:
                    # A crash failover changes how many arrays the batch
                    # splits over; the geometry-keyed memo would serve a
                    # stale split, so chaos runs recompute every time.
                    cost = self.backend.train_cost(
                        batch_size, states.shape[1:],
                        first_trainable=self.first_trainable,
                    )
                else:
                    key = (batch_size, states.shape[1:], self.first_trainable)
                    cost = self._train_cost_cache.get(key)
                    if cost is None:
                        cost = self.backend.train_cost(
                            batch_size, states.shape[1:],
                            first_trainable=self.first_trainable,
                        )
                        self._train_cost_cache[key] = cost
                sp.add_cycles(cost.total_cycles)
                self._pending_train_costs = self._pending_train_costs + cost
        if PROBE.enabled:
            PROBE.count(
                "repro_agent_train_updates_total",
                help="Optimizer updates applied by the agent.",
            )
            PROBE.observe(
                "repro_agent_train_step_seconds",
                sp.duration_s,
                help="Host wall time of one training iteration.",
            )
        return loss

    def _bootstrap_values(self, next_states: np.ndarray) -> np.ndarray:
        """max_a' Q(s', a') under the configured bootstrap scheme."""
        if self._target_state is None:
            return self.network.predict(next_states).max(axis=1)
        target_q = self._predict_with_state(next_states, self._target_state)
        if not self.double_dqn:
            return target_q.max(axis=1)
        online_actions = self.network.predict(next_states).argmax(axis=1)
        return target_q[np.arange(target_q.shape[0]), online_actions]

    def _predict_with_state(
        self, states: np.ndarray, state: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Forward pass with a temporary weight snapshot swapped in."""
        params = self.network.parameters()
        saved = [p.value for p in params]
        for p in params:
            p.value = state[p.name]
        try:
            return self.network.predict(states)
        finally:
            for p, value in zip(params, saved):
                p.value = value

    def _clip_gradients(self) -> None:
        """Scale trainable gradients so their global norm <= grad_clip."""
        params = self.optimizer.params
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
        if total > self.grad_clip:
            scale = self.grad_clip / total
            for p in params:
                p.grad *= scale
