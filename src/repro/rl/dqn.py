"""Double-DQN trainer with prioritized n-step replay (Section 4.2).

The training loss is the Huber norm of the n-step TD error (eq 5) with
double-DQN action selection (online net picks, target net evaluates),
importance-weighted by prioritized-replay probabilities. A potential-
based shaping reward (eq 6) is added during training only; rewards are
normalized by (1 - gamma) so the tanh value heads regress O(1) returns.

One trainer serves every Q-network: the attention networks over DBN
features and the conv baseline over raw observation windows (Table 7).
Collection runs on the library's one episode loop,
:func:`~repro.sim.vec_env.drive_vec_episodes`, with a plain
environment as one lane; action selection is one batched forward pass
per lockstep round (:meth:`DQNTrainer.select_actions_vec`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn import Adam, huber_loss
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
from repro.sim.vec_env import (
    VectorEnv,
    drive_vec_episodes,
    fan_out,
)

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
    #: (see :meth:`reward_terms`)
    shaping_weight: float | None = None
    shaping_a: float = 0.5
    shaping_b: float = 1.0
    grad_clip: float = 10.0
    huber_delta: float = 1.0
    normalize_rewards: bool = True
    seed: int = 0
    #: ablation switches (paper defaults: double DQN + PER); exploration
    #: is epsilon-greedy
    double_dqn: bool = True
    prioritized: bool = True

    def reward_terms(self, gamma: float) -> tuple[float, float]:
        """``(shaping_weight, reward_scale)`` of the training reward
        ``(r + shaping_weight * F) * reward_scale``, where ``F`` is the
        potential-based shaping term.

        The one definition shared by :class:`DQNTrainer` and the
        demonstrations of :func:`~repro.rl.pretrain.collect_demonstrations`,
        so pretraining and fine-tuning regress the same value scale:
        ``reward_scale`` is ``1 - gamma`` under ``normalize_rewards``.
        """
        weight = (self.shaping_weight if self.shaping_weight is not None
                  else 1.0 / (1.0 - gamma))
        scale = (1.0 - gamma) if self.normalize_rewards else 1.0
        return weight, scale


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
class _Lane:
    """Collection state of the episode one lane is running."""

    episode: int
    features: object
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
    """Double-DQN trainer over one environment or a vector env.

    ``featurizer`` turns observations into the states ``qnet`` reads:
    an :class:`~repro.rl.features.ACSOFeaturizer` for the attention
    networks, a :class:`~repro.rl.features.RawHistoryEncoder` for the
    conv baseline. The network owns the rest of the contract:
    ``bind_topology`` (its action list), ``clone`` (the target net) and
    ``stack_states`` (a batch of states as ``forward`` arguments).

    :meth:`train` runs on :func:`~repro.sim.vec_env.drive_vec_episodes`,
    a plain environment as one lane. Each lockstep round selects the
    actions of every lane with one batched forward pass; replay,
    schedules and update cadence are shared across lanes
    (``total_steps`` counts environment steps, not lockstep rounds).
    """

    def __init__(
        self,
        env,
        qnet,
        featurizer,
        config: DQNConfig | None = None,
    ):
        self.env = env
        self.qnet = qnet.bind_topology(env.topology)
        self.featurizer = featurizer
        self._featurizers: list | None = None
        self.config = config or DQNConfig()
        self.gamma = env.config.reward.gamma
        cfg = self.config

        self.target = qnet.clone(seed=cfg.seed)
        self.target.bind_topology(env.topology)
        self.target.copy_from(self.qnet)

        self.optimizer = Adam(self.qnet.named_parameters(), lr=cfg.lr,
                              grad_clip=cfg.grad_clip)
        if cfg.prioritized:
            self.replay = PrioritizedReplay(cfg.buffer_size, alpha=cfg.per_alpha,
                                            seed=cfg.seed)
        else:
            self.replay = UniformReplay(cfg.buffer_size, seed=cfg.seed)
        self.eps_schedule = ExponentialDecay(cfg.eps_start, cfg.eps_end,
                                             cfg.eps_decay)
        self.beta_schedule = LinearSchedule(cfg.per_beta_start, 1.0,
                                            cfg.per_beta_steps)
        self.shaper = PotentialShaper(self.gamma, cfg.shaping_a, cfg.shaping_b)
        self.rng = np.random.default_rng(cfg.seed)
        self.total_steps = 0
        self.shaping_weight, self.reward_scale = cfg.reward_terms(self.gamma)
        self.history: list[EpisodeStats] = []

    # ------------------------------------------------------------------
    def select_actions_vec(self, features: list, masks: np.ndarray,
                           epsilon: float) -> np.ndarray:
        """One action index per lane; one forward pass for the greedy ones.

        Each lane's epsilon draw (and its uniform ``choice`` over valid
        actions) is taken first, in lane order. The forward runs over
        every lane, and only if some lane acts greedily: the network
        draws nothing from the trainer's RNG, so skipping it leaves the
        stream unchanged.
        """
        n = len(features)
        out = np.empty(n, dtype=np.int64)
        greedy = []
        for i in range(n):
            if self.rng.random() < epsilon:
                out[i] = int(self.rng.choice(np.flatnonzero(masks[i])))
            else:
                greedy.append(i)
        if greedy:
            q = self.qnet.forward(*self.qnet.stack_states(features)).data
            best = np.where(masks, q, -np.inf).argmax(axis=1)
            out[greedy] = best[greedy]
        return out

    def train(self, episodes: int, seed: int = 0, max_steps: int | None = None,
              callback: Callable | None = None) -> list[EpisodeStats]:
        """Train for ``episodes`` episodes; returns the whole history.

        Episode ``i`` runs with seed ``seed + i``; lanes pick up the
        next pending episode as theirs finishes, so any ``episodes``
        count works with any lane count. Update losses are shared
        diagnostics: each gradient step's loss is credited to every
        episode in flight when it happened. ``callback(stats)`` fires
        as each episode ends.
        """
        cfg = self.config
        venv = self.env
        if not isinstance(venv, VectorEnv):
            venv = VectorEnv([venv], auto_reset=False)
        n = venv.num_envs
        gammas = {venv.lane_config(i).reward.gamma for i in range(n)}
        if gammas != {self.gamma}:
            raise ValueError(f"lane gammas {sorted(gammas)} != trainer gamma "
                             f"{self.gamma}")
        if self._featurizers is None:
            self._featurizers = [self.featurizer] + [
                copy.deepcopy(self.featurizer) for _ in range(n - 1)
            ]
        lanes: list[_Lane | None] = [None] * n
        epsilon = self.eps_schedule(self.total_steps)

        def on_episode_start(slot: int, ep: int, obs) -> None:
            featurizer = self._featurizers[slot]
            featurizer.reset()
            lanes[slot] = _Lane(
                episode=ep,
                features=featurizer.update(obs),
                nstep=NStepAssembler(cfg.n_step, self.gamma),
                phi=self.shaper.potential_from_info(venv.reset_infos[slot]),
            )

        def act(slots, observations):
            nonlocal epsilon
            epsilon = self.eps_schedule(self.total_steps)
            masks = np.stack([valid_action_mask(self.qnet.action_list, obs)
                              for obs in observations])
            chosen = self.select_actions_vec(
                [lanes[i].features for i in slots], masks, epsilon)
            for i, index in zip(slots, chosen):
                lanes[i].action_idx = int(index)
            return [self.qnet.action_list[lanes[i].action_idx] for i in slots]

        def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
            lane = lanes[slot]
            phi_next = self.shaper.potential_from_info(info)
            shaping = self.shaper.shape(lane.phi, phi_next, done=done)
            lane.phi = phi_next
            r_train = (reward + self.shaping_weight * shaping) * self.reward_scale

            lane.env_return += lane.discount * reward
            lane.discount *= self.gamma
            lane.shaped_return += r_train
            next_features = self._featurizers[slot].update(obs)
            for transition in lane.nstep.push(
                lane.features, lane.action_idx, r_train, next_features, done
            ):
                self.replay.add(transition)
            lane.features = next_features
            lane.steps = info["t"]
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

        def on_episode_end(slot: int, ep: int, obs) -> None:
            stats = lanes[slot].stats(epsilon)
            lanes[slot] = None
            self.history.append(stats)
            if callback is not None:
                callback(stats)

        drive_vec_episodes(venv, fan_out(episodes), seed=seed,
                           max_steps=max_steps,
                           on_episode_start=on_episode_start, act=act,
                           on_step=on_step, on_episode_end=on_episode_end)
        return self.history

    # ------------------------------------------------------------------
    def update(self) -> float:
        """One gradient step on a prioritized batch; returns the loss."""
        cfg = self.config
        beta = self.beta_schedule(self.total_steps)
        indices, transitions, weights = self.replay.sample(cfg.batch_size, beta)
        stack = self.qnet.stack_states
        states = stack([tr.state for tr in transitions])
        actions = np.array([tr.action for tr in transitions], np.int64)
        rewards = np.array([tr.reward for tr in transitions])
        done = np.array([tr.done for tr in transitions], float)
        discount = np.array([tr.discount for tr in transitions])
        next_states = stack([tr.next_state for tr in transitions])

        target_next = self.target.forward(*next_states).data
        if cfg.double_dqn:
            online_next = self.qnet.forward(*next_states).data
            best_next = online_next.argmax(axis=1)
        else:
            best_next = target_next.argmax(axis=1)
        bootstrap = target_next[np.arange(len(actions)), best_next]
        targets = rewards + discount * (1.0 - done) * bootstrap

        self.optimizer.zero_grad()
        q = self.qnet.forward(*states, grad=True)
        loss = huber_loss(q, actions, targets, delta=cfg.huber_delta,
                          weights=weights)
        loss.backward()
        self.optimizer.step()

        td_errors = q.data[np.arange(len(actions)), actions] - targets
        self.replay.update_priorities(indices, td_errors)
        return loss.item()
