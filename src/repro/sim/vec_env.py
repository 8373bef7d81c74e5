"""Lockstep vectorized environments: N independent simulations per step.

Every episode loop of the library (training, evaluation, logging,
DBN fitting) runs on :func:`drive_vec_episodes` or its per-lane-policy
form :func:`drive_policies`, a plain :class:`~repro.sim.env.InasimEnv`
as the one lane of ``VectorEnv([env], auto_reset=False)``. The driver
owns reset order, seeding, each lane's horizon and the episode end.

Two in-process engines run the one lockstep contract of :class:`VectorEnv`:

* :class:`VectorEnv` -- every lane stepped in turn (this module); the
  oracle, the base class of the batched engine, and the one-lane
  wrapper the episode loops put around a plain env;
* :class:`~repro.sim.batched_engine.BatchedVectorEnv` -- every lane
  stepped on one structure-of-arrays engine.

:func:`lockstep_env` is the one place that picks between them, by lane
count unless a caller names an engine (``repro.make_vec`` and the CLI
go through it).

Semantics follow the Gym ``VectorEnv`` contract:

* :meth:`reset` seeds env ``i`` with ``seed + i`` and returns the list
  of initial observations;
* :meth:`step` advances every environment by one hour and returns
  stacked numpy reward/done batches plus per-env observations and info
  dicts;
* with ``auto_reset`` (the default) an environment that finishes its
  episode is immediately reset with a fresh deterministic seed
  (``seed + i + num_envs * episode_count``); the terminal observation
  is preserved in ``info["final_observation"]`` and the returned
  observation is the first of the next episode;
* :meth:`action_masks` stacks the per-env action-validity masks into a
  ``(num_envs, n_actions)`` batch for the RL stack.

Episodes are deterministic given (config, seed): two vector envs built
from the same scenario and reset with the same seed produce identical
batched trajectories **regardless of engine** -- the parity tests in
``tests/test_vec_backends.py`` and ``tests/test_batched_engine.py`` pin
this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.sim.env import InasimEnv
from repro.sim.observations import Observation

__all__ = [
    "VectorEnv",
    "VecStep",
    "drive_policies",
    "drive_vec_episodes",
    "fan_out",
    "lockstep_env",
]

_UNSET = object()


@dataclass
class VecStep:
    """One lockstep transition of all environments."""

    observations: list[Observation]
    rewards: np.ndarray  # (num_envs,) float64
    dones: np.ndarray  # (num_envs,) bool
    infos: list[dict[str, Any]]

    def __iter__(self) -> Iterator:
        """Unpack like a Gym step: obs, rewards, dones, infos."""
        return iter((self.observations, self.rewards, self.dones, self.infos))


def _reset_info(env: InasimEnv) -> dict[str, Any]:
    """Ground-truth tallies of a freshly reset lane (shaping bootstrap)."""
    state = env.sim.state
    return {
        "t": state.t,
        "n_compromised": state.n_compromised(),
        "n_ws_compromised": state.n_workstations_compromised(),
        "n_srv_compromised": state.n_servers_compromised(),
    }


class VectorEnv:
    """Run ``len(envs)`` independent simulations in lockstep, in-process.

    The lockstep contract both engines satisfy: :meth:`reset`,
    :meth:`reset_env`, :meth:`step`, :meth:`action_masks` and
    :meth:`close`, plus ``num_envs``, ``config``, ``topology``,
    ``n_actions``, ``action_list``, ``auto_reset`` and ``reset_infos``
    (per-lane ground-truth tallies refreshed by every reset). This class
    steps every lane in turn; it is the oracle the batched engine
    subclasses. All environments must share a topology (same action
    space); build them from one scenario via :func:`repro.make_vec`.
    """

    def __init__(self, envs: Sequence[InasimEnv], *, auto_reset: bool = True,
                 base_seed: int | None = None):
        envs = list(envs)
        if not envs:
            raise ValueError("VectorEnv needs at least one environment")
        n_actions = envs[0].n_actions
        for env in envs[1:]:
            if env.n_actions != n_actions:
                raise ValueError(
                    "all environments must share an action space "
                    f"({env.n_actions} != {n_actions}); build them from "
                    "one scenario"
                )
        self.envs = envs
        self.num_envs = len(envs)
        self.auto_reset = auto_reset
        self._base_seed = base_seed
        self._episode_counts = [0] * self.num_envs
        self._last_obs: list[Observation | None] = [None] * self.num_envs
        self.reset_infos = [_reset_info(env) for env in envs]

    # ------------------------------------------------------------------
    @property
    def config(self):
        return self.envs[0].config

    def lane_config(self, i: int):
        """The :class:`~repro.config.SimConfig` lane ``i`` runs.

        Equal to :attr:`config` for homogeneous vector envs; vector envs
        built from per-lane scenario specs
        (``repro.make_vec_from_specs``) report each lane's own
        configuration.
        """
        return self.envs[i].config

    @property
    def topology(self):
        return self.envs[0].topology

    @property
    def n_actions(self) -> int:
        return self.envs[0].n_actions

    @property
    def action_list(self):
        return self.envs[0].action_list

    def policy_env(self, i: int):
        """The environment handed to ``DefenderPolicy.reset`` for lane
        ``i`` (policies read static structure: topology, action list)."""
        return self.envs[i]

    def __len__(self) -> int:
        return self.num_envs

    # ------------------------------------------------------------------
    def _seed_for(self, i: int) -> int | None:
        if self._base_seed is None:
            return None
        return self._base_seed + i + self.num_envs * self._episode_counts[i]

    def reset(self, seed: int | None | object = _UNSET) -> list[Observation]:
        """Reset every environment; env ``i`` gets ``seed + i``."""
        if seed is not _UNSET:
            self._base_seed = seed  # type: ignore[assignment]
        self._episode_counts = [0] * self.num_envs
        obs = [env.reset(seed=self._seed_for(i))
               for i, env in enumerate(self.envs)]
        self._last_obs = list(obs)
        self.reset_infos = [_reset_info(env) for env in self.envs]
        return obs

    def reset_env(self, i: int, seed: int | None = None) -> Observation:
        """Reset one lane explicitly (manual episode scheduling).

        The lane's episode count advances exactly as on an auto-reset,
        so the ``seed + i + num_envs * episode_count`` schedule stays
        collision-free afterwards; with ``seed=None`` the lane draws its
        seed from that schedule (or a nondeterministic reset when the
        vector env was never seeded).
        """
        self._episode_counts[i] += 1
        if seed is None:
            seed = self._seed_for(i)
        obs = self.envs[i].reset(seed=seed)
        self._last_obs[i] = obs
        self.reset_infos[i] = _reset_info(self.envs[i])
        return obs

    # ------------------------------------------------------------------
    def step(self, actions=None, mask: Sequence[bool] | None = None) -> VecStep:
        """Advance all (unmasked) environments by one hour.

        ``actions`` may be ``None`` (noop everywhere), a 1-D integer
        array of length ``num_envs``, or a sequence of per-env actions,
        each in any form :meth:`InasimEnv.step` accepts. With ``mask``,
        lanes where ``mask[i]`` is false are skipped and report their
        last observation, zero reward, and ``done=True``.
        """
        actions = self._split_actions(actions)
        observations: list[Observation] = []
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict[str, Any]] = []

        for i, env in enumerate(self.envs):
            if mask is not None and not mask[i]:
                observations.append(self._last_obs[i])
                dones[i] = True
                infos.append({})
                continue
            obs, reward, done, info = env.step(actions[i])
            if done and self.auto_reset:
                info = dict(info)
                info["final_observation"] = obs
                self._episode_counts[i] += 1
                obs = env.reset(seed=self._seed_for(i))
                self.reset_infos[i] = _reset_info(env)
            observations.append(obs)
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
            self._last_obs[i] = obs

        return VecStep(observations, rewards, dones, infos)

    # ------------------------------------------------------------------
    def action_masks(self) -> np.ndarray:
        """Stacked validity masks, shape ``(num_envs, n_actions)``."""
        return np.stack([env.action_mask() for env in self.envs])

    def sample_actions(self, rng) -> np.ndarray:
        """Uniform random valid action index per environment.

        One batched draw over the ``(num_envs, n_actions)`` mask: lane
        ``i`` takes the ``floor(u_i * k_i)``-th of its ``k_i`` valid
        actions, located with a cumulative-sum scan instead of a
        per-row ``rng.choice`` loop.
        """
        masks = self.action_masks()
        counts = masks.sum(axis=1)
        if not counts.all():
            raise ValueError("an environment has no valid action to sample")
        picks = (rng.random(masks.shape[0]) * counts).astype(np.int64)
        np.minimum(picks, counts - 1, out=picks)  # guard u == 1.0 edge
        cumulative = np.cumsum(masks, axis=1)
        return np.argmax(cumulative > picks[:, None], axis=1).astype(np.int64)

    def close(self) -> None:
        """Release engine resources (none for the in-process engines)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _split_actions(self, actions) -> list:
        if actions is None:
            return [None] * self.num_envs
        if isinstance(actions, np.ndarray):
            if actions.shape != (self.num_envs,):
                raise ValueError(
                    f"action array shape {actions.shape} != ({self.num_envs},)"
                )
            return list(actions)
        actions = list(actions)
        if len(actions) != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} actions, got {len(actions)}"
            )
        return actions


def lockstep_env(envs: Sequence[InasimEnv], *, auto_reset: bool = True,
                 base_seed: int | None = None,
                 backend: str | None = None) -> VectorEnv:
    """Run ``envs`` as lanes of one lockstep vector env.

    ``backend=None`` lets the lane count choose: one lane runs on the
    sync :class:`VectorEnv`, two or more on the batched engine, whose
    array program pays off only across lanes (every timed run is in
    ``BENCH_engine_choice.json``). ``"sync"`` or ``"batched"`` forces an
    engine; any other name raises :class:`ValueError`.
    """
    if backend is None:
        backend = "sync" if len(envs) == 1 else "batched"
    if backend == "sync":
        return VectorEnv(envs, auto_reset=auto_reset, base_seed=base_seed)
    if backend != "batched":
        raise ValueError(f"unknown backend {backend!r}; use 'batched' or 'sync'")
    from repro.sim.batched_engine import BatchedVectorEnv

    return BatchedVectorEnv(envs, auto_reset=auto_reset, base_seed=base_seed)


def fan_out(episodes: int) -> Callable[[int], int | None]:
    """Episode assignment sharing ``episodes`` over all lanes: a lane
    that finishes takes the next pending episode, whichever lane it is."""
    pending = iter(range(episodes))
    return lambda slot: next(pending, None)


def drive_vec_episodes(venv: VectorEnv, assign, *,
                       seed: int | None = 0, max_steps: int | None = None,
                       on_episode_start, act, on_step,
                       on_episode_end=None) -> None:
    """Run seeded episodes over the lanes of ``venv`` in lockstep.

    The one episode loop of the library: training, evaluation, OPE
    logging, trace recording, DBN fitting and demonstration collection
    all run on it, a plain environment as the one lane of
    ``VectorEnv([env], auto_reset=False)``. ``assign(slot)`` names the next episode
    lane ``slot`` runs, or ``None`` when it is done (:func:`fan_out`
    shares one counter over the lanes). Episode ``ep`` is reset with seed
    ``seed + ep``, or unseeded when ``seed`` is ``None``. Lane ``i``'s
    episode ends when the lane reports done or ``info["t"]`` reaches
    ``min(max_steps, lane_config(i).tmax)``. Auto-reset is suspended
    because episode boundaries are scheduled here.

    Callbacks, in the order they fire for one lane:

    * ``on_episode_start(slot, ep, obs)`` -- after the lane's reset;
      bind per-episode agent state (``venv.policy_env(slot)`` is the
      lane view);
    * ``act(slots, observations)`` -- once per lockstep round, with the
      active lanes in order and their current observations; returns one
      action per listed lane;
    * ``on_step(slot, ep, obs, reward, done, info)`` -- every
      transition; ``done`` is true when this step ended the episode;
    * ``on_episode_end(slot, ep, obs)`` -- after the ending step, with
      the episode's final observation, before the lane's next reset.
    """
    n = venv.num_envs
    horizons = [venv.lane_config(i).tmax for i in range(n)]
    if max_steps is not None:
        horizons = [min(max_steps, tmax) for tmax in horizons]
    current: list[int | None] = [None] * n
    latest_obs: list = [None] * n

    def start(slot: int) -> None:
        ep = current[slot] = assign(slot)
        if ep is None:
            return
        obs = latest_obs[slot] = venv.reset_env(
            slot, seed=None if seed is None else seed + ep)
        on_episode_start(slot, ep, obs)

    was_auto_reset = venv.auto_reset
    venv.auto_reset = False
    try:
        for slot in range(n):
            start(slot)
        while True:
            slots = [i for i in range(n) if current[i] is not None]
            if not slots:
                break
            actions: list = [None] * n
            for i, action in zip(slots, act(slots,
                                            [latest_obs[i] for i in slots])):
                actions[i] = action
            step = venv.step(actions,
                             mask=[ep is not None for ep in current])
            for i in slots:
                ep = current[i]
                obs = latest_obs[i] = step.observations[i]
                info = step.infos[i]
                done = bool(step.dones[i]) or info["t"] >= horizons[i]
                on_step(i, ep, obs, float(step.rewards[i]), done, info)
                if done:
                    if on_episode_end is not None:
                        on_episode_end(i, ep, obs)
                    start(i)
    finally:
        venv.auto_reset = was_auto_reset


def drive_policies(venv: VectorEnv, policies, assign, *,
                   seed: int | None = 0, max_steps: int | None = None,
                   on_step, on_episode_start=None,
                   on_episode_end=None) -> None:
    """:func:`drive_vec_episodes` with ``policies[i]`` acting on lane
    ``i``: each policy is reset on its lane view at every episode start
    (before ``on_episode_start``) and answers ``act(obs)``."""

    def start(slot: int, ep: int, obs) -> None:
        policies[slot].reset(venv.policy_env(slot))
        if on_episode_start is not None:
            on_episode_start(slot, ep, obs)

    def act(slots, observations):
        return [policies[i].act(obs) for i, obs in zip(slots, observations)]

    drive_vec_episodes(venv, assign, seed=seed, max_steps=max_steps,
                       on_episode_start=start, act=act, on_step=on_step,
                       on_episode_end=on_episode_end)
