"""Vectorized multi-environment stepping.

:class:`VecNavigationEnv` steps N heterogeneous navigation environments
(mixed indoor/outdoor worlds, per-env seeds) as one batch:

* drone kinematics, collision bookkeeping and RNG streams stay per-env
  (each env owns exactly the state a sequential
  :class:`~repro.env.episode.NavigationEnv` would), so a fleet rollout
  is *bitwise-identical* to N seeded sequential rollouts;
* the expensive math — ray-segment/circle intersection, clearance
  queries, the 2.5-D depth projection, stereo-noise application and the
  centre-window reward — runs batched over the fleet.  The kernels in
  :mod:`repro.env.geometry` are elementwise (plus exact ``min``
  reductions), so batching does not change a single bit of the output.

Environments are grouped by world class (``world.name``): padding
obstacle arrays to a common width is only paid within a group, so an
indoor apartment is never padded out to a 70-tree forest.

Auto-reset semantics: a crashed env is respawned in the same step and
its fresh observation returned as the next state; truncated episodes
(``max_episode_steps``) respawn *without* ``done`` and flush the open
flight segment, matching the sequential training loop.  Either way the
transition's own next-state survives in ``info["final_observation"]``.
"""

from __future__ import annotations

import numpy as np

from repro.env.camera import DepthCamera, StereoNoiseModel
from repro.env.episode import NavigationEnv, Transition
from repro.env.generators import make_environment
from repro.env.geometry import (
    circle_distances,
    intersect_circles,
    intersect_segments,
    segment_distances,
)
from repro.faults.injector import FAULTS, FaultInjectionError
from repro.obs.probes import PROBE

__all__ = [
    "FleetRenderer",
    "FleetCollider",
    "VecNavigationEnv",
    "group_horizontal",
]


def _pad_stack(arrays: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (S_i, ...) arrays into (N, S_max, ...) + mask."""
    n = len(arrays)
    trailing = arrays[0].shape[1:]
    out = np.zeros((n, width) + trailing)
    mask = np.zeros((n, width), dtype=bool)
    for i, arr in enumerate(arrays):
        out[i, : arr.shape[0]] = arr
        mask[i, : arr.shape[0]] = True
    return out, mask


class _WorldGroup:
    """Padded obstacle geometry for the envs sharing one world class."""

    def __init__(self, env_indices: list[int], envs: list[NavigationEnv]):
        self.env_indices = np.asarray(env_indices, dtype=np.intp)
        members = [envs[i] for i in env_indices]
        seg = [env.world.caster.segment_arrays for env in members]
        circ = [env.world.caster.circle_arrays for env in members]
        s_max = max(a.shape[0] for a, _ in seg)
        c_max = max(c.shape[0] for c, _ in circ)
        self.seg_a, self.seg_mask = _pad_stack([a for a, _ in seg], s_max)
        self.seg_d, _ = _pad_stack([d for _, d in seg], s_max)
        if c_max:
            self.circ_c, self.circ_mask = _pad_stack([c for c, _ in circ], c_max)
            self.circ_r, _ = _pad_stack([r for _, r in circ], c_max)
        else:
            self.circ_c = self.circ_r = self.circ_mask = None
        boxes = [
            np.array(
                [[b.xmin, b.ymin, b.xmax, b.ymax] for b in env.world.boxes]
            ).reshape(-1, 4)
            for env in members
        ]
        b_max = max(b.shape[0] for b in boxes)
        if b_max:
            self.boxes, self.box_mask = _pad_stack(boxes, b_max)
        else:
            self.boxes = self.box_mask = None
        self.bounds = np.array(
            [
                [env.world.bounds.xmin, env.world.bounds.ymin,
                 env.world.bounds.xmax, env.world.bounds.ymax]
                for env in members
            ]
        )
        self.max_range = np.array([env.world.max_range for env in members])


def _build_groups(
    envs: list[NavigationEnv],
) -> tuple[list[_WorldGroup], np.ndarray, np.ndarray]:
    """Group envs by world class; returns (groups, group_id, group_row)."""
    by_name: dict[str, list[int]] = {}
    for i, env in enumerate(envs):
        by_name.setdefault(env.world.name, []).append(i)
    groups = []
    group_id = np.zeros(len(envs), dtype=np.intp)
    group_row = np.zeros(len(envs), dtype=np.intp)
    for gid, indices in enumerate(by_name.values()):
        groups.append(_WorldGroup(indices, envs))
        for row, i in enumerate(indices):
            group_id[i] = gid
            group_row[i] = row
    return groups, group_id, group_row


def group_horizontal(
    group: _WorldGroup,
    origins: np.ndarray,
    dirs: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Ray-intersection distances for one world group's members.

    The renderer's heaviest kernel: a pure function of the group's
    static padded geometry plus the member poses.
    ``origins``/``dirs`` are the (M, 2)/(M, W, 2) rows for the group's
    members, ``rows`` their rows within the group's padded arrays.
    """
    width = dirs.shape[1]
    max_range = group.max_range[rows]
    best = np.broadcast_to(max_range[:, None], (len(origins), width)).copy()
    best = np.minimum(
        best,
        intersect_segments(
            origins,
            dirs,
            group.seg_a[rows],
            group.seg_d[rows],
            group.seg_mask[rows],
        ),
    )
    if group.circ_c is not None:
        best = np.minimum(
            best,
            intersect_circles(
                origins,
                dirs,
                group.circ_c[rows],
                group.circ_r[rows],
                group.circ_mask[rows],
            ),
        )
    return np.clip(best, 1e-9, max_range[:, None])


class FleetRenderer:
    """Batched depth-camera rendering across many worlds.

    One intersection + projection + noise pass serves any subset of the
    fleet.  Per-env transcendentals (heading cos/sin) and the per-env
    noise *draws* stay in a small loop so every env consumes its RNG
    stream exactly as the sequential renderer would; all the remaining
    arithmetic is batched and bitwise-identical.
    """

    def __init__(
        self,
        envs: list[NavigationEnv],
        groups: list[_WorldGroup] | None = None,
        group_id: np.ndarray | None = None,
        group_row: np.ndarray | None = None,
    ):
        if not envs:
            raise ValueError("need at least one environment")
        camera = envs[0].camera
        for env in envs[1:]:
            if env.camera != camera:
                raise ValueError(
                    "fleet rendering requires identical camera configurations"
                )
        self.envs = envs
        self.camera = camera
        if groups is None:
            groups, group_id, group_row = _build_groups(envs)
        self._groups = groups
        self._group_id = group_id
        self._group_row = group_row
        self._max_range = np.array([env.world.max_range for env in envs])
        self._planes = np.stack(
            [camera.plane_depths(env.world.is_indoor) for env in envs]
        )  # (N, H, 1)
        self._col_angles = camera.column_angles()

    def render(self, indices: list[int]) -> list[np.ndarray]:
        """Render the current pose of each env in ``indices``.

        Returns one (1, H, W) normalised observation per index, bitwise
        equal to what each env's own ``_observe()`` would produce.
        """
        if not indices:
            return []
        with PROBE.span("vec_env.render", envs=len(indices)):
            return self._render(indices)

    def _render(self, indices: list[int]) -> list[np.ndarray]:
        idx = np.asarray(indices, dtype=np.intp)
        width = self._col_angles.shape[0]
        origins = np.array(
            [self.envs[i].drone.pose.position() for i in indices]
        )  # (M, 2)
        # Heading-dependent ray directions per env, at the sequential
        # path's exact array shape (transcendentals can be sensitive to
        # SIMD batch layout; everything downstream is elementwise-safe).
        dirs = np.empty((len(indices), width, 2))
        for row, i in enumerate(indices):
            angles = self.envs[i].drone.pose.heading + self._col_angles
            dirs[row, :, 0] = np.cos(angles)
            dirs[row, :, 1] = np.sin(angles)
        by_group: dict[int, list[int]] = {}
        for k, i in enumerate(indices):
            by_group.setdefault(int(self._group_id[i]), []).append(k)
        horizontal = np.empty((len(indices), width))
        for gid, ks in by_group.items():
            rows = np.array(
                [self._group_row[indices[k]] for k in ks], dtype=np.intp
            )
            horizontal[ks] = group_horizontal(
                self._groups[gid], origins[ks], dirs[ks], rows
            )
        max_range = self._max_range[idx]
        depth = self.camera.project(
            horizontal, self._planes[idx], max_range[:, None, None]
        )  # (M, H, W)
        noise = self.camera.noise
        if noise is not None:
            # Per-env draws keep each env's RNG stream identical to the
            # sequential renderer's; the arithmetic is batched.
            if noise.disparity_sigma_px != 0.0:
                draws = np.stack(
                    [
                        self.envs[i].rng.normal(0.0, 1.0, size=depth.shape[1:])
                        for i in indices
                    ]
                )
                depth = depth + draws * noise.sigma(depth)
            depth = np.clip(depth, 0.0, max_range[:, None, None])
        normalized = depth / max_range[:, None, None]
        return [normalized[row][None, :, :] for row in range(len(indices))]


class FleetCollider:
    """Batched collision resolution across many worlds.

    Mirrors :meth:`repro.env.world.World.clearance` — out-of-bounds and
    inside-a-box positions report zero clearance, everything else the
    distance to the nearest obstacle surface — but answers for the
    whole fleet in one padded call per world group.  Bitwise-identical
    to per-env queries.
    """

    def __init__(self, envs: list[NavigationEnv], groups: list[_WorldGroup]):
        self.envs = envs
        self._groups = groups
        self._radii = np.array([env.drone.radius for env in envs])

    def clearances(self, points: np.ndarray) -> np.ndarray:
        """Per-env clearance at ``points`` (N, 2)."""
        out = np.empty(points.shape[0])
        for group in self._groups:
            p = points[group.env_indices]
            x, y = p[:, 0], p[:, 1]
            blocked = ~(
                (group.bounds[:, 0] <= x)
                & (x <= group.bounds[:, 2])
                & (group.bounds[:, 1] <= y)
                & (y <= group.bounds[:, 3])
            )
            if group.boxes is not None:
                in_box = (
                    (group.boxes[:, :, 0] <= x[:, None])
                    & (x[:, None] <= group.boxes[:, :, 2])
                    & (group.boxes[:, :, 1] <= y[:, None])
                    & (y[:, None] <= group.boxes[:, :, 3])
                    & group.box_mask
                ).any(axis=1)
                blocked = blocked | in_box
            dist = segment_distances(
                p, group.seg_a, group.seg_d, group.seg_mask
            ).min(axis=-1)
            if group.circ_c is not None:
                dist = np.minimum(
                    dist,
                    circle_distances(
                        p, group.circ_c, group.circ_r, group.circ_mask
                    ).min(axis=-1),
                )
            out[group.env_indices] = np.where(blocked, 0.0, dist)
        return out

    def collisions(self, points: np.ndarray) -> np.ndarray:
        """Per-env crash flags at ``points`` (N, 2)."""
        return self.clearances(points) < self._radii


class VecNavigationEnv:
    """Steps N navigation environments as one batch (gym VecEnv style).

    Parameters
    ----------
    envs:
        The member environments.  All must share one camera
        configuration; worlds, seeds, reward configs and drones may
        differ freely.
    max_episode_steps:
        When set, episodes are truncated (respawn without ``done``)
        after this many steps — the sequential training loop's
        semantics.
    auto_reset:
        Respawn crashed/truncated envs inside :meth:`step` so the
        returned batch is always ready for the next action.
    """

    def __init__(
        self,
        envs: list[NavigationEnv],
        max_episode_steps: int | None = None,
        auto_reset: bool = True,
    ):
        if not envs:
            raise ValueError("need at least one environment")
        if max_episode_steps is not None and max_episode_steps <= 0:
            raise ValueError("max_episode_steps must be positive")
        self.envs = envs
        self.num_envs = len(envs)
        self.max_episode_steps = max_episode_steps
        self.auto_reset = auto_reset
        self.num_actions = envs[0].num_actions
        groups, group_id, group_row = _build_groups(envs)
        self.renderer = FleetRenderer(envs, groups, group_id, group_row)
        self.collider = FleetCollider(envs, groups)
        self.episode_steps = np.zeros(self.num_envs, dtype=np.int64)
        self.episode_counts = np.zeros(self.num_envs, dtype=np.int64)
        self.total_steps = 0
        # Centre-window rewards batch when every env shares the paper's
        # "mean" aggregation; other kinds fall back to per-env calls.
        config = envs[0].reward_config
        self._batch_rewards = config.kind == "mean" and all(
            env.reward_config == config for env in envs
        )
        if self._batch_rewards:
            h, w = envs[0].camera.height, envs[0].camera.width
            wh = max(int(round(h * config.window_fraction)), 1)
            ww = max(int(round(w * config.window_fraction)), 1)
            top, left = (h - wh) // 2, (w - ww) // 2
            self._window = (slice(top, top + wh), slice(left, left + ww))
        # Last served frame per env — the hold-last-frame recovery
        # target for injected sensor dropout (chaos runs only).
        self._last_frames: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_names(
        cls,
        names: list[str],
        seeds: list[int] | None = None,
        image_side: int = 16,
        noise: bool = True,
        max_episode_steps: int | None = None,
        auto_reset: bool = True,
    ) -> "VecNavigationEnv":
        """Build a fleet from environment names (cycled) and seeds."""
        if not names:
            raise ValueError("need at least one environment name")
        if seeds is None:
            seeds = list(range(len(names)))
        camera_noise = StereoNoiseModel() if noise else None
        envs = []
        for i, seed in enumerate(seeds):
            name = names[i % len(names)]
            world = make_environment(name, seed=seed)
            camera = DepthCamera(
                width=image_side, height=image_side, noise=camera_noise
            )
            envs.append(NavigationEnv(world, camera=camera, seed=seed + 7))
        return cls(
            envs, max_episode_steps=max_episode_steps, auto_reset=auto_reset
        )

    @property
    def observation_shape(self) -> tuple[int, int, int]:
        """(channels, height, width) of one env's observation."""
        return self.envs[0].observation_shape

    def reset(self) -> np.ndarray:
        """Respawn every env; returns the (N, C, H, W) state batch."""
        for env in self.envs:
            env.respawn()
        observations = self.renderer.render(list(range(self.num_envs)))
        for env, obs in zip(self.envs, observations):
            env.set_observation(obs)
        self.episode_steps[:] = 0
        return np.stack(observations)

    def _batched_rewards(self, rendered: dict[int, np.ndarray]) -> dict[int, float]:
        """Centre-window mean reward for every rendered observation."""
        if not self._batch_rewards or not rendered:
            return {}
        keys = list(rendered)
        stack = np.stack([rendered[i][0] for i in keys])  # (M, H, W)
        values = stack[:, self._window[0], self._window[1]].mean(axis=(1, 2))
        return {i: float(v) for i, v in zip(keys, values)}

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Apply one action per env; returns (states, rewards, dones, infos).

        ``states`` is the batch to act on next: for crashed or truncated
        envs it is the fresh post-respawn observation (``auto_reset``),
        with the transition's own next-state preserved in
        ``info["final_observation"]`` (the terminal frame on a crash,
        the rendered observation on truncation — ``done`` stays False
        for truncation, matching the sequential training loop).
        """
        actions = np.asarray(actions)
        if actions.shape != (self.num_envs,):
            raise ValueError(
                f"expected {self.num_envs} actions, got shape {actions.shape}"
            )
        if FAULTS.enabled:
            inj = FAULTS.injector
            inj.note_step()
            if inj.raise_now():
                inj.record(
                    "env.exception",
                    target="vec_env",
                    detail=f"scheduled raise at fleet step {inj.steps}",
                )
                raise FaultInjectionError(
                    f"injected environment fault at fleet step {inj.steps}"
                )
        with PROBE.span("vec_env.physics", envs=self.num_envs):
            physics = [
                env.advance(int(a)) for env, a in zip(self.envs, actions)
            ]
            crashed = self.collider.collisions(
                np.array([[p["pose"].x, p["pose"].y] for p in physics])
            )
            for env, p, c in zip(self.envs, physics, crashed):
                env.resolve_collision(p, crashed=bool(c))
        # Crashed envs respawn *before* the fleet-wide render, so alive
        # next-states and respawn states come out of one batched call.
        # Per-env RNG stream order matches the sequential flow: a crash
        # renders nothing, then reset draws a pose and a noise frame.
        if self.auto_reset:
            for i, p in enumerate(physics):
                if p["crashed"]:
                    self.envs[i].respawn()
            render_idx = list(range(self.num_envs))
        else:
            render_idx = [i for i, p in enumerate(physics) if not p["crashed"]]
        rendered = dict(zip(render_idx, self.renderer.render(render_idx)))
        batched_rewards = self._batched_rewards(rendered)
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict] = []
        states: list[np.ndarray | None] = [None] * self.num_envs
        truncated_respawn = []
        for i, env in enumerate(self.envs):
            obs, reward, done, info = env.complete_step(
                physics[i],
                None if physics[i]["crashed"] else rendered.get(i),
                reward=batched_rewards.get(i),
            )
            rewards[i] = reward
            dones[i] = done
            states[i] = obs
            self.episode_steps[i] += 1
            # == not >=: without auto-reset an over-limit episode keeps
            # running, and truncation must fire (and count) only once.
            info["truncated"] = bool(
                not done
                and self.max_episode_steps is not None
                and self.episode_steps[i] == self.max_episode_steps
            )
            if done or info["truncated"]:
                # The transition's own next-state: the terminal frame on
                # a crash (camera in the wall), the rendered observation
                # on truncation.  Survives the auto-reset overwrite.
                info["final_observation"] = obs
                self.episode_counts[i] += 1
            if done and self.auto_reset:
                env.set_observation(rendered[i])
                states[i] = rendered[i]
                self.episode_steps[i] = 0
            elif info["truncated"] and self.auto_reset:
                truncated_respawn.append(i)
            infos.append(info)
        if truncated_respawn:
            for i in truncated_respawn:
                self.envs[i].respawn()
                self.episode_steps[i] = 0
            for i, obs in zip(
                truncated_respawn, self.renderer.render(truncated_respawn)
            ):
                self.envs[i].set_observation(obs)
                states[i] = obs
        self.total_steps += self.num_envs
        if PROBE.enabled:
            PROBE.count(
                "repro_vecenv_steps_total",
                self.num_envs,
                help="Per-env steps taken by the fleet.",
            )
            PROBE.count(
                "repro_vecenv_crashes_total",
                int(np.count_nonzero(dones)),
                help="Crashes (done transitions) across the fleet.",
            )
            PROBE.count(
                "repro_vecenv_episodes_total",
                sum(
                    1
                    for i, info in enumerate(infos)
                    if dones[i] or info["truncated"]
                ),
                help="Episodes ended (crash or truncation) across the fleet.",
            )
        batch = np.stack(states)
        if FAULTS.enabled:
            batch = self._chaos_sensors(batch)
        return batch, rewards, dones, infos

    def _chaos_sensors(self, batch: np.ndarray) -> np.ndarray:
        """Inject sensor dropout, detect dead frames, hold last good.

        A dropped sensor serves an all-zero frame.  Detection is the
        dead-frame check a flight stack would run (an all-zero camera
        frame is physically implausible — the renderer always emits
        noise); recovery holds the env's last good frame so the policy
        acts on stale-but-sane input.  The first step has no history,
        so the dead frame is served as-is (injected, detected, not
        recovered).
        """
        inj = FAULTS.injector
        if inj.plan.sensor_dropout_rate > 0.0:
            batch = batch.copy()
            for i in range(self.num_envs):
                if not inj.sensor_dropout(i):
                    continue
                record = inj.record(
                    "sensor.dropout",
                    target=f"env{i}",
                    detail=f"fleet step {inj.steps}",
                )
                batch[i] = 0.0
                if not np.any(batch[i]):  # dead-frame check
                    inj.mark_detected(record)
                    if self._last_frames is not None:
                        batch[i] = self._last_frames[i]
                        inj.mark_recovered(record, "hold-last-frame")
        self._last_frames = batch.copy()
        return batch

    # ------------------------------------------------------------------
    # Fleet-level metrics
    # ------------------------------------------------------------------
    @property
    def safe_flight_distances(self) -> np.ndarray:
        """Per-env safe flight distance."""
        return np.array([e.tracker.safe_flight_distance for e in self.envs])

    @property
    def crash_counts(self) -> np.ndarray:
        """Per-env crash count."""
        return np.array([e.tracker.crash_count for e in self.envs])

    def env_classes(self) -> list[str]:
        """Per-env world class name (e.g. ``indoor-apartment``)."""
        return [env.world.name for env in self.envs]

    def sfd_by_class(self) -> dict[str, float]:
        """Mean safe flight distance per environment class."""
        by_class: dict[str, list[float]] = {}
        for env in self.envs:
            by_class.setdefault(env.world.name, []).append(
                env.tracker.safe_flight_distance
            )
        return {name: float(np.mean(v)) for name, v in sorted(by_class.items())}

    def make_transitions(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        dones: np.ndarray,
        next_states: np.ndarray,
        infos: list[dict],
    ) -> list[Transition]:
        """Assemble per-env transitions from one batched step.

        For crashed and truncated envs the stored next-state comes from
        ``info["final_observation"]``, exactly as the sequential loop
        stores it — never the auto-reset respawn observation.
        """
        transitions = []
        for i in range(self.num_envs):
            if dones[i] or infos[i]["truncated"]:
                next_state = infos[i]["final_observation"]
            else:
                next_state = next_states[i]
            transitions.append(
                Transition(
                    states[i],
                    int(actions[i]),
                    float(rewards[i]),
                    next_state,
                    bool(dones[i]),
                )
            )
        return transitions
