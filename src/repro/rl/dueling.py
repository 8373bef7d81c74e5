"""Dueling network head (Wang et al. 2016), a Rainbow component.

The paper adopts three Rainbow extensions (double DQN, prioritized
replay, n-step loss). The dueling decomposition is a fourth:

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a')

Decoupling the state value from per-action advantages helps when most
actions leave the value nearly unchanged -- exactly the ACSO regime,
where in a healthy network almost every (node, action) pair is
irrelevant and only the state value ("is an intrusion under way?")
matters. The ablation bench compares this variant against the paper's
plain head.

The implementation reuses the attention trunk of
:class:`~repro.rl.qnetwork.AttentionQNetwork`, and with it the trunk's
single graph node: the per-type heads now produce advantages, a
separate value head reads the attended no-action token (the one token
that summarizes the whole network), and the value/advantage combination
is one more array step with its own backward.
"""

from __future__ import annotations

import numpy as np

from repro.rl.features import GLOBAL_FEATURE_DIM
from repro.rl.qnetwork import AttentionQNetwork, QNetConfig

__all__ = ["DuelingAttentionQNetwork"]


class DuelingAttentionQNetwork(AttentionQNetwork):
    """Attention Q-network with a dueling value/advantage split."""

    def __init__(self, config: QNetConfig | None = None, seed: int = 0):
        super().__init__(config, seed)
        rng = np.random.default_rng(seed + 7919)
        head_in = self.config.d_model + GLOBAL_FEATURE_DIM
        self.value_head = self._make_head(head_in, 1, rng)

    def _head_groups(self):
        # the value head reads the no-action token, after the advantages
        return super()._head_groups() + [(self.value_head,
                                          slice(self._n_nodes + self._n_plcs, None))]

    def _output_array(self, flat: np.ndarray, tape) -> np.ndarray:
        advantages, value = flat[:, :-1], flat[:, -1:]
        inv_n = 1.0 / float(advantages.shape[1])
        centered = advantages - advantages.sum(axis=1, keepdims=True) * inv_n
        if tape is not None:

            def backward(grad):
                total = grad.sum(axis=1, keepdims=True)
                return np.concatenate([grad - total * inv_n, total], axis=1)

            tape.record(backward)
        centered += value
        return self._soft_clip_array(centered, tape)
