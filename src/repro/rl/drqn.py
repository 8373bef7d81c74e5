"""Deep recurrent Q-network (DRQN) baseline.

The paper frames ACSO as a partially observable problem and handles the
hidden state with the DBN filter. The literature's standard alternative
(Hausknecht and Stone 2015, the paper's reference [11]) is to learn the
history summary with a recurrent network over raw observations.
:class:`RecurrentQNetwork` implements that design on the same raw
per-step encoding consumed by the paper's convolutional baseline
(Table 7), so all three history mechanisms -- DBN + attention, temporal
convolution, recurrence -- can be compared under one trainer:
``DQNTrainer(env, RecurrentQNetwork(...), RawHistoryEncoder(topology,
window), config)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import GRU, MLP
from repro.rl.qnetwork import WindowedQNetwork

__all__ = ["DRQNConfig", "RecurrentQNetwork"]


@dataclass(frozen=True)
class DRQNConfig:
    window: int = 16
    encoder_hidden: int = 64
    gru_hidden: int = 64
    head_hidden: int = 128
    final_tanh: bool = True
    q_scale: float = 24.0


class RecurrentQNetwork(WindowedQNetwork):
    """Per-step encoder -> GRU -> flat action-value head.

    Like the conv baseline, the output layer enumerates every action,
    so parameters grow with the protected network -- the recurrent
    architecture shares the conv baseline's scaling failure, which the
    architecture bench quantifies.
    """

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

    @staticmethod
    def stack_states(states: list[np.ndarray]) -> tuple:
        """Batch ``(step_dim, window)`` histories as ``(B, window,
        step_dim)``, the time-first layout :meth:`forward` reads."""
        return (np.stack([state.T for state in states]),)

    def forward_array(self, history: np.ndarray, tape=None) -> np.ndarray:
        """(B, window, step_dim) -> (B, n_actions)."""
        if history.ndim != 3:
            raise ValueError(f"expected (B, W, F), got {history.shape}")
        encoded = self.encoder.forward_array(history, tape)
        final = self.gru.forward_array(encoded, tape)
        return self._soft_clip_array(self.head.forward_array(final, tape), tape)
