"""Deep recurrent Q-network (DRQN) baseline and the windowed trainer
for flat-input architectures.

The paper frames ACSO as a partially observable problem and handles the
hidden state with the DBN filter. The literature's standard alternative
(Hausknecht and Stone 2015, the paper's reference [11]) is to learn the
history summary with a recurrent network over raw observations.
:class:`RecurrentQNetwork` implements that design on the same raw
per-step encoding consumed by the paper's convolutional baseline
(Table 7), so all three history mechanisms -- DBN + attention, temporal
convolution, recurrence -- can be compared under one trainer.

:class:`WindowedDQNTrainer` trains any network that maps a bounded raw
observation window to action values (the conv baseline and the DRQN).
It mirrors :class:`~repro.rl.dqn.DQNTrainer` -- same shaping, n-step
assembly, replay, and double-DQN targets -- with window arrays instead
of DBN feature sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import GRU, MLP, Adam, Module, Tensor, huber_loss, no_grad
from repro.rl.dqn import DQNConfig, EpisodeStats, valid_action_mask
from repro.rl.features import RawHistoryEncoder
from repro.rl.replay import (
    NStepAssembler,
    PrioritizedReplay,
    UniformReplay,
)
from repro.rl.schedules import ExponentialDecay, LinearSchedule
from repro.rl.shaping import PotentialShaper

__all__ = ["DRQNConfig", "RecurrentQNetwork", "WindowedDQNTrainer"]


@dataclass(frozen=True)
class DRQNConfig:
    window: int = 16
    encoder_hidden: int = 64
    gru_hidden: int = 64
    head_hidden: int = 128
    final_tanh: bool = True
    q_scale: float = 24.0


class RecurrentQNetwork(Module):
    """Per-step encoder -> GRU -> flat action-value head.

    Like the conv baseline, the output layer enumerates every action,
    so parameters grow with the protected network -- the recurrent
    architecture shares the conv baseline's scaling failure, which the
    architecture bench quantifies.
    """

    #: history array layout expected by forward(); RawHistoryEncoder
    #: produces (step_dim, window) = "fw", the GRU wants time first
    history_layout = "wf"

    def __init__(self, step_dim: int, n_actions: int,
                 config: DRQNConfig | None = None, seed: int = 0):
        self.config = config or DRQNConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.encoder = MLP([step_dim, cfg.encoder_hidden, cfg.encoder_hidden],
                           rng=rng)
        self.gru = GRU(cfg.encoder_hidden, cfg.gru_hidden, rng=rng)
        self.head = MLP([cfg.gru_hidden, cfg.head_hidden, n_actions], rng=rng)
        self.step_dim = step_dim
        self.n_actions = n_actions

    def forward(self, history) -> Tensor:
        """(B, window, step_dim) -> (B, n_actions)."""
        x = history if isinstance(history, Tensor) else Tensor(history)
        if x.ndim != 3:
            raise ValueError(f"expected (B, W, F), got {x.shape}")
        encoded = self.encoder(x)
        final = self.gru(encoded)
        q = self.head(final)
        cfg = self.config
        if cfg.final_tanh:
            q = (q * (1.0 / cfg.q_scale)).tanh() * cfg.q_scale
        return q


class WindowedDQNTrainer:
    """DQN trainer over raw observation windows (conv / DRQN baselines).

    The network must expose ``n_actions``, ``forward(batch_windows)``,
    and a ``history_layout`` attribute: ``"fw"`` for (step_dim, window)
    inputs (the conv net) or ``"wf"`` for (window, step_dim) (the DRQN).
    """

    def __init__(self, env, qnet, config: DQNConfig | None = None,
                 window: int | None = None):
        self.env = env
        self.qnet = qnet
        self.config = config or DQNConfig()
        self.gamma = env.config.reward.gamma
        cfg = self.config
        layout = getattr(qnet, "history_layout", "fw")
        if layout not in ("fw", "wf"):
            raise ValueError(f"unknown history layout {layout!r}")
        self._time_first = layout == "wf"
        if window is None:
            window = getattr(getattr(qnet, "config", None), "window", 16)
        self.encoder = RawHistoryEncoder(env.topology, window=window)
        if self.encoder.step_dim != qnet.step_dim:
            raise ValueError(
                f"network step_dim {qnet.step_dim} != encoder "
                f"step_dim {self.encoder.step_dim}"
            )
        if qnet.n_actions != env.n_actions:
            raise ValueError(
                f"network n_actions {qnet.n_actions} != env {env.n_actions}"
            )

        self.target = type(qnet)(qnet.step_dim, qnet.n_actions,
                                 config=qnet.config, seed=cfg.seed)
        self.target.copy_from(qnet)
        self.optimizer = Adam(qnet.named_parameters(), lr=cfg.lr,
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
    def _oriented(self, window: np.ndarray) -> np.ndarray:
        """Rotate a stored (step_dim, window) array to the net layout."""
        return window.T if self._time_first else window

    def q_values(self, window: np.ndarray) -> np.ndarray:
        with no_grad():
            batch = self._oriented(window)[None, ...]
            return self.qnet.forward(batch).data[0]

    def select_action(self, window: np.ndarray, obs, epsilon: float) -> int:
        mask = valid_action_mask(self.env.action_list, obs)
        if self.rng.random() < epsilon:
            return int(self.rng.choice(np.flatnonzero(mask)))
        q = np.where(mask, self.q_values(window), -np.inf)
        return int(np.argmax(q))

    # ------------------------------------------------------------------
    def train(self, episodes: int, seed: int = 0,
              max_steps: int | None = None) -> list[EpisodeStats]:
        for episode in range(episodes):
            stats = self.train_episode(seed + episode, episode, max_steps)
            self.history.append(stats)
        return self.history

    def train_episode(self, seed: int, episode: int = 0,
                      max_steps: int | None = None) -> EpisodeStats:
        cfg = self.config
        obs = self.env.reset(seed=seed)
        self.encoder.reset()
        self.nstep.reset()
        window = self.encoder.update(obs)
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
            action_idx = self.select_action(window, obs, epsilon)
            obs, reward, env_done, info = self.env.step(action_idx)
            t = info["t"]
            done = env_done or t >= horizon

            phi_next = self.shaper.potential_from_info(info)
            shaping = self.shaper.shape(phi, phi_next, done=done)
            phi = phi_next
            r_train = (reward + self.shaping_weight * shaping) * self.reward_scale

            env_return += discount_t * reward
            discount_t *= self.gamma
            shaped_return += r_train
            next_window = self.encoder.update(obs)
            for transition in self.nstep.push(
                window, action_idx, r_train, next_window, done
            ):
                self.replay.add(transition)
            window = next_window
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
    def update(self) -> float:
        cfg = self.config
        beta = self.beta_schedule(self.total_steps)
        indices, transitions, weights = self.replay.sample(cfg.batch_size, beta)
        states = np.stack([self._oriented(tr.state) for tr in transitions])
        next_states = np.stack(
            [self._oriented(tr.next_state) for tr in transitions]
        )
        actions = np.array([tr.action for tr in transitions], np.int64)
        rewards = np.array([tr.reward for tr in transitions])
        done = np.array([tr.done for tr in transitions], float)
        discount = np.array([tr.discount for tr in transitions])

        with no_grad():
            target_next = self.target.forward(next_states).data
            if cfg.double_dqn:
                best_next = self.qnet.forward(next_states).data.argmax(axis=1)
            else:
                best_next = target_next.argmax(axis=1)
            bootstrap = target_next[np.arange(len(transitions)), best_next]
        targets = rewards + discount * (1.0 - done) * bootstrap

        self.optimizer.zero_grad()
        q = self.qnet.forward(states)
        predicted = q.gather_rows(actions)
        loss = huber_loss(predicted, targets, delta=cfg.huber_delta,
                          weights=weights)
        loss.backward()
        self.optimizer.step()

        self.replay.update_priorities(indices, predicted.data - targets)
        return loss.item()
