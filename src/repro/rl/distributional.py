"""Distributional (C51) value learning (Bellemare et al. 2017), the
remaining Rainbow component not used by the paper.

Instead of the expected return, the network predicts a categorical
distribution over returns on a fixed support of atoms. Training
minimizes the cross-entropy between the predicted distribution of the
taken action and the Bellman-projected target distribution. Acting is
unchanged: greedy over the distribution means, so
:class:`DistributionalAttentionQNetwork` is a drop-in for the plain
network everywhere a policy is needed.

The support must cover the normalized shaped-return envelope (the
trainer scales rewards by ``1 - gamma``; shaping adds up to about
+/- (A*nW + B*nS) on a fully compromised network), mirroring the
``q_scale`` choice of the scalar networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Tensor, categorical_cross_entropy, no_grad
from repro.nn.tape import array_node
from repro.rl.dqn import DQNTrainer
from repro.rl.qnetwork import AttentionQNetwork, QNetConfig, in_row_blocks

__all__ = [
    "C51Config",
    "C51Trainer",
    "DistributionalAttentionQNetwork",
    "project_distribution",
]


@dataclass(frozen=True)
class C51Config:
    """Support of the categorical return distribution."""

    n_atoms: int = 51
    v_min: float = -24.0
    v_max: float = 24.0

    def __post_init__(self) -> None:
        if self.n_atoms < 2:
            raise ValueError("n_atoms must be >= 2")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be < v_max")

    @property
    def support(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.n_atoms)

    @property
    def delta_z(self) -> float:
        return (self.v_max - self.v_min) / (self.n_atoms - 1)


def project_distribution(
    next_probs: np.ndarray,
    rewards: np.ndarray,
    discounts: np.ndarray,
    c51: C51Config,
) -> np.ndarray:
    """Categorical projection of the Bellman-updated distribution.

    Parameters
    ----------
    next_probs : (B, Z)
        Atom probabilities of the bootstrap action at the next state.
    rewards : (B,)
        n-step discounted rewards.
    discounts : (B,)
        Bootstrap discount gamma^n, already zeroed for terminal
        transitions (so terminal targets collapse onto clip(r)).

    Returns the (B, Z) projected target distribution: each updated atom
    Tz = r + discount * z is clipped to the support and its mass split
    between the two neighbouring atoms in proportion to proximity.
    """
    support = c51.support
    batch, n_atoms = next_probs.shape
    if n_atoms != c51.n_atoms:
        raise ValueError(f"expected {c51.n_atoms} atoms, got {n_atoms}")
    tz = rewards[:, None] + discounts[:, None] * support[None, :]
    tz = np.clip(tz, c51.v_min, c51.v_max)
    b = (tz - c51.v_min) / c51.delta_z
    lower = np.floor(b).astype(np.int64)
    upper = np.ceil(b).astype(np.int64)
    # when b is integral, l == u and both proximity weights are zero;
    # widen one side at a time (the second test sees the updated l, so
    # exactly one neighbour receives the full mass)
    lower[(upper > 0) & (lower == upper)] -= 1
    upper[(lower == upper) & (lower < n_atoms - 1)] += 1

    target = np.zeros_like(next_probs)
    rows = np.repeat(np.arange(batch), n_atoms)
    np.add.at(
        target, (rows, lower.ravel()),
        (next_probs * (upper - b)).ravel(),
    )
    np.add.at(
        target, (rows, upper.ravel()),
        (next_probs * (b - lower)).ravel(),
    )
    # normalize away accumulated floating error
    return target / target.sum(axis=1, keepdims=True)


class DistributionalAttentionQNetwork(AttentionQNetwork):
    """Attention trunk with per-action categorical return heads."""

    def __init__(self, config: QNetConfig | None = None, seed: int = 0,
                 c51: C51Config | None = None):
        self.c51 = c51 or C51Config()
        super().__init__(config, seed)

    def clone(self, seed: int = 0) -> "DistributionalAttentionQNetwork":
        return type(self)(self.config, seed=seed, c51=self.c51)

    def _make_head(self, head_in: int, out_dim: int, rng):
        # each action gets n_atoms logits instead of one scalar
        return super()._make_head(head_in, out_dim * self.c51.n_atoms, rng)

    # ------------------------------------------------------------------
    def _output_array(self, flat: np.ndarray, tape) -> np.ndarray:
        """Flat atom logits -> (B, n_actions, n_atoms) log-probabilities
        (a log-softmax over each action's atoms)."""
        logits = flat.reshape(flat.shape[0], self.n_actions, self.c51.n_atoms)
        log_p = logits - logits.max(axis=-1, keepdims=True)  # shifted
        e = np.exp(log_p)
        log_p -= np.log(e.sum(axis=-1, keepdims=True))
        if tape is not None:
            probs = np.exp(log_p, out=e)

            def backward(grad):
                total = grad.sum(axis=-1, keepdims=True)
                return (grad - probs * total).reshape(flat.shape)

            tape.record(backward)
        return log_p

    @in_row_blocks
    def _expected_array(self, node, plc, glob, tape=None) -> np.ndarray:
        """Distribution mean per action: (B, n_actions)."""
        probs = np.exp(self._forward_array(node, plc, glob, tape))
        support = self.c51.support.reshape(1, 1, self.c51.n_atoms)
        if tape is not None:
            tape.record(lambda grad: np.broadcast_to(
                grad[..., None], probs.shape).copy() * support * probs)
        return (probs * support).sum(axis=-1)

    def log_probs(self, node_feats, plc_feats, glob_feats) -> Tensor:
        """(B, n_actions, n_atoms) per-atom log-probabilities, one graph
        node."""
        return array_node(self._forward_array,
                          (node_feats, plc_feats, glob_feats), self)

    def probs(self, node_feats, plc_feats, glob_feats) -> np.ndarray:
        """Inference-only atom probabilities."""
        with no_grad():
            return np.exp(self.log_probs(node_feats, plc_feats, glob_feats).data)

    def forward(self, node_feats, plc_feats, glob_feats) -> Tensor:
        """Expected Q-values (B, n_actions): distribution mean per action.

        Keeping ``forward`` scalar-valued makes this network a drop-in
        policy for every consumer of the plain Q-network (greedy
        argmax, action masking, evaluation). Like :meth:`log_probs`, it
        is one graph node.
        """
        return array_node(self._expected_array,
                          (node_feats, plc_feats, glob_feats), self)


class C51Trainer(DQNTrainer):
    """Distributional variant of the DQN trainer.

    Replaces the Huber TD update with the categorical projection +
    cross-entropy loss. Priorities are the per-sample cross-entropy,
    the distributional analogue of |TD error|. Everything else
    (exploration, n-step assembly, shaping, replay) is inherited.
    """

    def __init__(self, env, qnet, featurizer, config=None):
        if not isinstance(qnet, DistributionalAttentionQNetwork):
            raise TypeError(
                "C51Trainer requires a DistributionalAttentionQNetwork"
            )
        super().__init__(env, qnet, featurizer, config)

    def update(self) -> float:
        cfg = self.config
        c51 = self.qnet.c51
        (indices, weights, states, actions, rewards, done, discount,
         next_states) = self._sample_batch()
        batch = len(actions)

        with no_grad():
            target_probs_all = np.exp(self.target.log_probs(*next_states).data)
            if cfg.double_dqn:
                next_q = self.qnet.forward(*next_states).data
            else:
                next_q = (target_probs_all * c51.support).sum(axis=-1)
            best_next = next_q.argmax(axis=1)
        next_probs = target_probs_all[np.arange(batch), best_next]
        target_dist = project_distribution(
            next_probs, rewards, discount * (1.0 - done), c51
        )

        self.optimizer.zero_grad()
        loss, per_row = categorical_cross_entropy(
            self.qnet.log_probs(*states), actions, target_dist, weights=weights)
        loss.backward()
        self.optimizer.step()

        self.replay.update_priorities(indices, per_row)
        return loss.item()
