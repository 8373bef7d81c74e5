"""Double-DQN trainer with prioritized n-step replay (Section 4.2).

The training loss is the Huber norm of the n-step TD error (eq 5) with
double-DQN action selection (online net picks, target net evaluates),
importance-weighted by prioritized-replay probabilities. A potential-
based shaping reward (eq 6) is added during training only; rewards are
normalized by (1 - gamma) so the tanh value heads regress O(1) returns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn import Adam, huber_loss, no_grad
from repro.rl.features import ACSOFeaturizer, FeatureSet, stack_features
from repro.rl.qnetwork import AttentionQNetwork
from repro.rl.replay import (
    NStepAssembler,
    PrioritizedReplay,
    UniformReplay,
)
from repro.rl.schedules import ExponentialDecay, LinearSchedule
from repro.rl.shaping import PotentialShaper
from repro.sim.orchestrator import (
    DefenderAction,
    action_busy_positions,
    action_mask_from_busy,
)
from repro.sim.vec_env import BaseVectorEnv

__all__ = ["DQNConfig", "DQNTrainer", "valid_action_mask"]


def valid_action_mask(action_list: list[DefenderAction], obs) -> np.ndarray:
    """True for actions whose target is currently free (noop is always
    valid); launching an action on a busy target would be rejected by
    the orchestrator and waste the decision step.

    One gather from the observation's busy flags through the list's
    cached :func:`~repro.sim.orchestrator.action_busy_positions`, as
    the environment's own ``action_mask`` does."""
    positions = action_busy_positions(action_list, len(obs.node_busy))
    return action_mask_from_busy(positions, obs.node_busy, obs.plc_busy)


@dataclass
class DQNConfig:
    n_step: int = 8
    batch_size: int = 64
    lr: float = 1e-4
    buffer_size: int = 100_000
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_steps: int = 100_000
    target_update: int = 1000
    update_every: int = 4
    warmup: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay: float = 0.999
    #: None selects the paper's 1/(1-gamma) grid value, which puts the
    #: per-event shaping signal on the same scale as the value function
    shaping_weight: float | None = None
    shaping_a: float = 0.5
    shaping_b: float = 1.0
    grad_clip: float = 10.0
    huber_delta: float = 1.0
    normalize_rewards: bool = True
    seed: int = 0
    #: ablation switches (paper defaults: double DQN + PER, eps-greedy)
    double_dqn: bool = True
    prioritized: bool = True
    #: explore through NoisyLinear heads instead of epsilon-greedy;
    #: requires a Q-network built with ``QNetConfig(noisy_heads=True)``
    noisy: bool = False


@dataclass
class EpisodeStats:
    episode: int
    env_return: float  # discounted, unshaped (the evaluation quantity)
    shaped_return: float
    steps: int
    mean_loss: float
    epsilon: float
    plcs_offline: int


@dataclass
class _VecLane:
    """Per-lane collection state for :meth:`DQNTrainer.train_vec`."""

    episode: int
    obs: object
    features: FeatureSet
    nstep: NStepAssembler
    phi: float
    action_idx: int = 0
    env_return: float = 0.0
    shaped_return: float = 0.0
    discount: float = 1.0
    steps: int = 0
    info: dict = field(default_factory=dict)
    losses: list[float] = field(default_factory=list)

    def stats(self, epsilon: float) -> EpisodeStats:
        return EpisodeStats(
            episode=self.episode,
            env_return=self.env_return,
            shaped_return=self.shaped_return,
            steps=self.steps,
            mean_loss=float(np.mean(self.losses)) if self.losses else 0.0,
            epsilon=epsilon,
            plcs_offline=int(self.info.get("n_plcs_offline", 0)),
        )


class DQNTrainer:
    """Double-DQN trainer over one environment or a :class:`VectorEnv`.

    With a ``VectorEnv``, transitions are collected from all lanes per
    iteration and action selection runs as one batched forward pass;
    replay, schedules, and update cadence are shared across lanes
    (``total_steps`` counts environment steps, not lockstep rounds).
    """

    def __init__(
        self,
        env,
        qnet: AttentionQNetwork,
        featurizer: ACSOFeaturizer,
        config: DQNConfig | None = None,
    ):
        self.env = env
        self.vec = isinstance(env, BaseVectorEnv)
        self.qnet = qnet.bind_topology(env.topology)
        self.featurizer = featurizer
        self._featurizers: list[ACSOFeaturizer] | None = None
        self.config = config or DQNConfig()
        self.gamma = env.config.reward.gamma
        cfg = self.config

        self.target = qnet.clone(seed=cfg.seed)
        self.target.bind_topology(env.topology)
        self.target.copy_from(self.qnet)

        self.optimizer = Adam(self.qnet.named_parameters(), lr=cfg.lr,
                              grad_clip=cfg.grad_clip)
        replay_cls = PrioritizedReplay if cfg.prioritized else UniformReplay
        self.replay = replay_cls(cfg.buffer_size, alpha=cfg.per_alpha,
                                 seed=cfg.seed)
        self.nstep = NStepAssembler(cfg.n_step, self.gamma)
        self.eps_schedule = ExponentialDecay(cfg.eps_start, cfg.eps_end,
                                             cfg.eps_decay)
        self.beta_schedule = LinearSchedule(cfg.per_beta_start, 1.0,
                                            cfg.per_beta_steps)
        self.shaper = PotentialShaper(self.gamma, cfg.shaping_a, cfg.shaping_b)
        self.rng = np.random.default_rng(cfg.seed)
        self.total_steps = 0
        self.reward_scale = (1.0 - self.gamma) if cfg.normalize_rewards else 1.0
        self.shaping_weight = (
            cfg.shaping_weight if cfg.shaping_weight is not None
            else 1.0 / (1.0 - self.gamma)
        )
        self.history: list[EpisodeStats] = []

    # ------------------------------------------------------------------
    def set_env(self, env) -> None:
        """Rebind the trainer to another environment or vector env.

        The replay buffer, schedules, optimizer state, and step counter
        carry over — this is how curriculum-style loops (the self-play
        defender oracle rotating attacker populations between rounds)
        continue one training run across environments. The new env must
        share the current action space (the Q-network binding is
        per-topology) and discount (the n-step assemblers and shaper
        bake it in).
        """
        n_actions = len(self.qnet.action_list)
        if env.n_actions != n_actions:
            raise ValueError(
                f"env has {env.n_actions} actions but the Q-network is bound "
                f"to {n_actions}; build envs from one topology"
            )
        if env.config.reward.gamma != self.gamma:
            raise ValueError(
                f"env gamma {env.config.reward.gamma} != trainer gamma "
                f"{self.gamma}"
            )
        self.env = env
        self.vec = isinstance(env, BaseVectorEnv)
        # lane featurizers are per-lane-count; rebuilt lazily by train_vec
        self._featurizers = None

    # ------------------------------------------------------------------
    def select_action(self, features: FeatureSet, obs, epsilon: float) -> int:
        mask = valid_action_mask(self.qnet.action_list, obs)
        if self.config.noisy:
            # parameter noise supplies the exploration; act greedily
            # under a fresh noise draw
            self.qnet.reset_noise()
        elif self.rng.random() < epsilon:
            choices = np.flatnonzero(mask)
            return int(self.rng.choice(choices))
        q = self.qnet.q_values(features)
        q = np.where(mask, q, -np.inf)
        return int(np.argmax(q))

    # ------------------------------------------------------------------
    def train(self, episodes: int, seed: int = 0, max_steps: int | None = None,
              callback: Callable | None = None) -> list[EpisodeStats]:
        if self.vec:
            return self.train_vec(episodes, seed=seed, max_steps=max_steps,
                                  callback=callback)
        for episode in range(episodes):
            stats = self.train_episode(seed + episode, episode, max_steps)
            self.history.append(stats)
            if callback is not None:
                callback(stats)
        return self.history

    def train_episode(self, seed: int, episode: int = 0,
                      max_steps: int | None = None) -> EpisodeStats:
        cfg = self.config
        obs = self.env.reset(seed=seed)
        self.featurizer.reset()
        self.nstep.reset()
        features = self.featurizer.update(obs)
        state = self.env.sim.state
        phi = self.shaper.potential(
            state.n_workstations_compromised(), state.n_servers_compromised()
        )
        env_return, shaped_return, discount_t = 0.0, 0.0, 1.0
        losses: list[float] = []
        horizon = self.env.config.tmax if max_steps is None else max_steps
        done, t = False, 0
        epsilon = self.eps_schedule(self.total_steps)
        info: dict = {}

        while not done and t < horizon:
            epsilon = self.eps_schedule(self.total_steps)
            action_idx = self.select_action(features, obs, epsilon)
            action = self.qnet.action_list[action_idx]
            obs, reward, env_done, info = self.env.step(action)
            t = info["t"]
            done = env_done or t >= horizon

            phi_next = self.shaper.potential_from_info(info)
            shaping = self.shaper.shape(phi, phi_next, done=done)
            phi = phi_next
            r_train = (reward + self.shaping_weight * shaping) * self.reward_scale

            env_return += discount_t * reward
            discount_t *= self.gamma
            shaped_return += r_train
            next_features = self.featurizer.update(obs)
            for transition in self.nstep.push(
                features, action_idx, r_train, next_features, done
            ):
                self.replay.add(transition)
            features = next_features
            self.total_steps += 1

            if (
                len(self.replay) >= max(cfg.warmup, cfg.batch_size)
                and self.total_steps % cfg.update_every == 0
            ):
                losses.append(self.update())
            if self.total_steps % cfg.target_update == 0:
                self.target.copy_from(self.qnet)

        return EpisodeStats(
            episode=episode,
            env_return=env_return,
            shaped_return=shaped_return,
            steps=t,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            epsilon=epsilon,
            plcs_offline=int(info.get("n_plcs_offline", 0)),
        )

    # ------------------------------------------------------------------
    def select_actions_vec(self, features: list[FeatureSet],
                           masks: np.ndarray, epsilon: float) -> np.ndarray:
        """Batched action selection: one forward pass for all lanes."""
        if self.config.noisy:
            self.qnet.reset_noise()
        with no_grad():
            q = self.qnet.forward(*stack_features(features)).data
        q = np.where(masks, q, -np.inf)
        greedy = q.argmax(axis=1)
        out = np.empty(len(features), dtype=np.int64)
        for i in range(len(features)):
            if not self.config.noisy and self.rng.random() < epsilon:
                out[i] = int(self.rng.choice(np.flatnonzero(masks[i])))
            else:
                out[i] = int(greedy[i])
        return out

    def train_vec(self, episodes: int, seed: int = 0,
                  max_steps: int | None = None,
                  callback: Callable | None = None) -> list[EpisodeStats]:
        """Collect transitions from all VectorEnv lanes per iteration.

        Episode ``i`` runs with seed ``seed + i``; lanes pick up the
        next pending episode as theirs finishes, so any ``episodes``
        count works with any ``num_envs``. Update losses are shared
        diagnostics: each gradient step's loss is credited to every
        episode in flight when it happened.
        """
        if not self.vec:
            raise RuntimeError("train_vec requires a VectorEnv")
        cfg = self.config
        venv: BaseVectorEnv = self.env
        n = venv.num_envs
        horizon = venv.config.tmax if max_steps is None else max_steps
        if self._featurizers is None:
            self._featurizers = [self.featurizer] + [
                copy.deepcopy(self.featurizer) for _ in range(n - 1)
            ]

        lanes: list[_VecLane | None] = [None] * n
        next_ep = 0

        def start(slot: int) -> None:
            nonlocal next_ep
            if next_ep >= episodes:
                lanes[slot] = None
                return
            ep, next_ep = next_ep, next_ep + 1
            obs = venv.reset_env(slot, seed=seed + ep)
            featurizer = self._featurizers[slot]
            featurizer.reset()
            lanes[slot] = _VecLane(
                episode=ep,
                obs=obs,
                features=featurizer.update(obs),
                nstep=NStepAssembler(cfg.n_step, self.gamma),
                phi=self.shaper.potential_from_info(venv.reset_infos[slot]),
            )

        was_auto_reset = venv.auto_reset
        venv.auto_reset = False  # episode boundaries are scheduled here
        epsilon = self.eps_schedule(self.total_steps)
        try:
            for slot in range(n):
                start(slot)
            while any(lane is not None for lane in lanes):
                epsilon = self.eps_schedule(self.total_steps)
                active = [i for i, lane in enumerate(lanes) if lane is not None]
                masks = np.stack([
                    valid_action_mask(self.qnet.action_list, lanes[i].obs)
                    for i in active
                ])
                chosen = self.select_actions_vec(
                    [lanes[i].features for i in active], masks, epsilon
                )
                actions: list = [None] * n
                for idx, i in enumerate(active):
                    lanes[i].action_idx = int(chosen[idx])
                    actions[i] = self.qnet.action_list[lanes[i].action_idx]
                step = venv.step(
                    actions, mask=[lane is not None for lane in lanes]
                )

                for i in active:
                    lane = lanes[i]
                    obs, reward = step.observations[i], float(step.rewards[i])
                    info = step.infos[i]
                    t = info["t"]
                    done = bool(step.dones[i]) or t >= horizon

                    phi_next = self.shaper.potential_from_info(info)
                    shaping = self.shaper.shape(lane.phi, phi_next, done=done)
                    lane.phi = phi_next
                    r_train = (
                        reward + self.shaping_weight * shaping
                    ) * self.reward_scale

                    lane.env_return += lane.discount * reward
                    lane.discount *= self.gamma
                    lane.shaped_return += r_train
                    next_features = self._featurizers[i].update(obs)
                    for transition in lane.nstep.push(
                        lane.features, lane.action_idx, r_train,
                        next_features, done
                    ):
                        self.replay.add(transition)
                    lane.obs, lane.features = obs, next_features
                    lane.steps = t
                    lane.info = info
                    self.total_steps += 1

                    if (
                        len(self.replay) >= max(cfg.warmup, cfg.batch_size)
                        and self.total_steps % cfg.update_every == 0
                    ):
                        loss = self.update()
                        for other in lanes:
                            if other is not None:
                                other.losses.append(loss)
                    if self.total_steps % cfg.target_update == 0:
                        self.target.copy_from(self.qnet)

                    if done:
                        stats = lane.stats(epsilon)
                        self.history.append(stats)
                        if callback is not None:
                            callback(stats)
                        start(i)
        finally:
            venv.auto_reset = was_auto_reset
        return self.history

    # ------------------------------------------------------------------
    def update(self) -> float:
        """One gradient step on a prioritized batch; returns the loss."""
        cfg = self.config
        beta = self.beta_schedule(self.total_steps)
        indices, transitions, weights = self.replay.sample(cfg.batch_size, beta)
        states = stack_features([tr.state for tr in transitions])
        next_states = stack_features([tr.next_state for tr in transitions])
        actions = np.array([tr.action for tr in transitions], np.int64)
        rewards = np.array([tr.reward for tr in transitions])
        done = np.array([tr.done for tr in transitions], float)
        discount = np.array([tr.discount for tr in transitions])

        if self.config.noisy:
            self.qnet.reset_noise()
            self.target.reset_noise()
        with no_grad():
            target_next = self.target.forward(*next_states).data
            if self.config.double_dqn:
                online_next = self.qnet.forward(*next_states).data
                best_next = online_next.argmax(axis=1)
            else:
                best_next = target_next.argmax(axis=1)
            bootstrap = target_next[np.arange(len(transitions)), best_next]
        targets = rewards + discount * (1.0 - done) * bootstrap

        self.optimizer.zero_grad()
        q = self.qnet.forward(*states)
        predicted = q.gather_rows(actions)
        loss = huber_loss(predicted, targets, delta=cfg.huber_delta,
                          weights=weights)
        loss.backward()
        self.optimizer.step()

        td_errors = predicted.data - targets
        self.replay.update_priorities(indices, td_errors)
        return loss.item()
