"""Fitted Q evaluation and the doubly-robust estimator.

Importance sampling degenerates over long horizons (the trajectory
weight is a product of thousands of ratios). Fitted Q evaluation (FQE,
Le et al. 2019) avoids ratios entirely: it regresses the *target*
policy's action-value function on logged transitions by iterating the
evaluation Bellman operator

    Q_{k+1}(s, a) <- r + gamma * sum_a' pi(a'|s') Q_k(s', a')

with the same attention network used for control. The value estimate
is the policy-weighted Q at logged episode starts.

The doubly-robust estimator (Jiang and Li 2016) then combines FQE's
low variance with per-decision IS's unbiasedness:

    V_DR = V(s_0) + sum_t gamma^t w_t (r_t + gamma V(s_{t+1})
                                        - Q(s_t, a_t))

where w_t is the cumulative ratio product. With a perfect Q model the
correction terms vanish; with broken importance weights the Q model
anchors the estimate. Both weight a ``(B, A)`` Q block by the target's
distributions in one batched row-dot (:func:`row_dot`).

Both estimators stream their episode source in fixed-size **episode
chunks** (:func:`~repro.validation.datasets.iter_episode_chunks`): a
chunk's :class:`~repro.validation.logging.LoggedEpisode` columns are
joined into one transition batch, regressed or scored by indexing its
rows, and dropped before the next chunk loads, so a million-transition
:class:`~repro.validation.datasets.TraceDataset` trains in bounded
memory. Chunk boundaries depend only on episode count — never on shard
layout — which makes the on-disk and in-memory paths numerically
identical on the same episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.nn import Adam, huber_loss
from repro.rl.features import FeatureSet
from repro.validation.datasets import iter_episode_chunks
from repro.validation.logging import (
    LoggedEpisode,
    concat_rows,
    q_batch,
    take_rows,
)
from repro.validation.ope import (
    OPEResult,
    _ratios_from_probs,
    effective_sample_size,
)

__all__ = ["FQEResult", "fitted_q_evaluation", "doubly_robust",
           "episode_dr_value"]


@dataclass
class FQEResult:
    """Outcome of a fitted-Q-evaluation run."""

    #: start-state value on the *return* scale (rescaled if the fit
    #: used reward normalization)
    value: float
    #: per-iteration mean regression loss
    losses: list[float] = field(default_factory=list)
    #: the fitted network (bound, trained in place); its outputs are on
    #: the normalized scale -- divide by ``reward_scale`` to compare
    #: with returns
    qnet: object = field(default=None, repr=False)
    #: the reward multiplier used during fitting
    reward_scale: float = 1.0
    #: per-episode start-state values on the return scale — the direct
    #: method's bootstrap population (``value`` is their mean computed
    #: before the per-element rescale, so use ``value`` as the point
    #: estimate)
    start_values: np.ndarray = field(default=None, repr=False)


@dataclass
class _TransitionBatch:
    """One chunk's episodes joined into a batch of transitions."""

    states: FeatureSet  # (n, ...) blocks
    actions: np.ndarray
    rewards: np.ndarray
    next_states: FeatureSet
    next_masks: np.ndarray
    dones: np.ndarray
    returns_to_go: np.ndarray


def _transition_batch(episodes: list[LoggedEpisode],
                      gamma: float) -> _TransitionBatch:
    """Join a chunk's columns; each episode's last step bootstraps from
    its final state (itself when none was logged)."""
    next_states, next_masks, dones, returns_to_go = [], [], [], []
    for episode in episodes:
        if episode.gamma != gamma:
            raise ValueError(
                f"FQE fits one discount: episode gamma {episode.gamma} != "
                f"first episode gamma {gamma}"
            )
        n = len(episode)
        tail = 0.0
        rtg = np.empty(n)
        for t in reversed(range(n)):
            tail = episode.rewards[t] + gamma * tail
            rtg[t] = tail
        returns_to_go.append(rtg)
        next_states.append(take_rows(episode.features, slice(1, None)))
        next_masks.append(episode.masks[1:])
        if episode.final_features is not None:
            next_states.append(take_rows(episode.final_features, np.newaxis))
            next_masks.append(episode.final_mask[np.newaxis])
        else:
            next_states.append(take_rows(episode.features, slice(-1, None)))
            next_masks.append(episode.masks[-1:])
        done = np.zeros(n)
        done[-1] = 1.0
        dones.append(done)
    return _TransitionBatch(
        states=concat_rows(episode.features for episode in episodes),
        actions=np.concatenate([episode.actions for episode in episodes]),
        rewards=np.concatenate([episode.rewards for episode in episodes]),
        next_states=concat_rows(next_states),
        next_masks=np.concatenate(next_masks),
        dones=np.concatenate(dones),
        returns_to_go=np.concatenate(returns_to_go),
    )


def row_dot(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``probs[i] @ q[i]`` for every row as one batched matmul, bitwise the
    per-row dot (``einsum`` and ``(probs * q).sum(1)`` are not)."""
    return (np.asarray(probs)[:, None, :] @ q[:, :, None])[:, 0, 0]


def _policy_values(qnet, target_policy, features, masks) -> np.ndarray:
    """V(s) = sum_a pi(a|s) Q(s, a) for a stacked batch of states."""
    q = q_batch(qnet, features)
    return row_dot(target_policy.action_probs_batch(features, masks), q)


def fitted_q_evaluation(
    episodes: Iterable[LoggedEpisode],
    target_policy,
    qnet,
    iterations: int = 5,
    epochs_per_iteration: int = 2,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    reward_scale: float | None = None,
    mc_epochs: int = 2,
    chunk_episodes: int = 64,
) -> FQEResult:
    """Fit Q^pi on logged transitions; returns the start-state value.

    ``qnet`` must already be bound to the logging topology; it is
    trained in place (pass a fresh network to keep the control policy
    untouched). ``target_policy.action_probs_batch`` supplies pi(a|s).

    ``episodes`` is any re-iterable episode source — a list or a
    :class:`~repro.validation.datasets.TraceDataset`. Each pass
    (warm-start, every Bellman iteration, the final start-state
    scoring) re-streams the source ``chunk_episodes`` episodes at a
    time; peak memory is one chunk's transitions, never the log's.

    ``reward_scale`` multiplies rewards during the regression and the
    returned value is divided back. The default (1 - gamma) keeps the
    regressed values O(1) -- INASIM's terminal bonus alone is
    1/(1-gamma) ~ 2000, far outside any tanh-bounded Q head. Pass 1.0
    for raw-scale fitting with an unbounded head.

    ``mc_epochs`` warm-start epochs first regress Q on the observed
    (behaviour-policy) returns-to-go. With gamma near 1 the Bellman
    operator contracts at ~gamma per iteration, so a cold-started FQE
    would keep its initialization bias for hundreds of iterations; the
    Monte-Carlo anchor fixes the value scale immediately and the
    Bellman iterations then bend the estimate toward the target policy.

    Every episode must share one discount: a log recorded over lanes
    with different discounts raises ``ValueError``.
    """
    if len(episodes) == 0:
        raise ValueError("need at least one logged episode")
    gamma = next(iter(episodes)).gamma
    if reward_scale is None:
        reward_scale = 1.0 - gamma
    if reward_scale <= 0:
        raise ValueError("reward_scale must be positive")
    optimizer = Adam(qnet.named_parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    losses: list[float] = []

    def _regress(batch: _TransitionBatch, targets_all: np.ndarray,
                 epochs: int) -> list[float]:
        n = len(batch.actions)
        epoch_losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                rows = order[start:start + batch_size]
                states = take_rows(batch.states, rows)
                optimizer.zero_grad()
                loss = huber_loss(
                    qnet.forward(states.node, states.plc, states.glob),
                    batch.actions[rows], targets_all[rows])
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
        return epoch_losses

    if mc_epochs > 0:
        pass_losses: list[float] = []
        for chunk in iter_episode_chunks(episodes, chunk_episodes):
            batch = _transition_batch(chunk, gamma)
            pass_losses += _regress(batch, batch.returns_to_go * reward_scale,
                                    mc_epochs)
        losses.append(float(np.mean(pass_losses)))

    for _ in range(iterations):
        pass_losses = []
        for chunk in iter_episode_chunks(episodes, chunk_episodes):
            batch = _transition_batch(chunk, gamma)
            # freeze the bootstrap values for this chunk
            next_values = _policy_values(qnet, target_policy,
                                         batch.next_states, batch.next_masks)
            targets_all = (batch.rewards * reward_scale
                           + gamma * (1.0 - batch.dones) * next_values)
            pass_losses += _regress(batch, targets_all, epochs_per_iteration)
        losses.append(float(np.mean(pass_losses)))

    start_chunks: list[np.ndarray] = []
    for chunk in iter_episode_chunks(episodes, chunk_episodes):
        start_chunks.append(_policy_values(
            qnet, target_policy,
            concat_rows(take_rows(ep.features, slice(0, 1)) for ep in chunk),
            np.stack([ep.masks[0] for ep in chunk])))
    start_values = np.concatenate(start_chunks)
    return FQEResult(value=float(start_values.mean()) / reward_scale,
                     losses=losses, qnet=qnet, reward_scale=reward_scale,
                     start_values=start_values / reward_scale)


def episode_dr_value(
    episode: LoggedEpisode,
    target_policy,
    qnet,
    clip: float | None = None,
    reward_scale: float = 1.0,
    label: int | str | None = None,
) -> tuple[float, float]:
    """One episode's doubly-robust value and its trajectory weight."""
    n = len(episode)
    q_all = q_batch(qnet, episode.features) / reward_scale
    q_taken = q_all[np.arange(n), episode.actions]
    probs = target_policy.action_probs_batch(episode.features, episode.masks)
    state_values = row_dot(probs, q_all)
    next_values = np.append(state_values[1:], 0.0)  # terminal V = 0

    ratios = _ratios_from_probs(episode, probs, clip, label=label)
    cumulative = np.cumprod(ratios)
    discounts = episode.gamma ** np.arange(n)
    corrections = cumulative * (
        episode.rewards + episode.gamma * next_values - q_taken
    )
    value = state_values[0] + float(np.sum(discounts * corrections))
    weight = float(cumulative[-1]) if len(cumulative) else 1.0
    return value, weight


def doubly_robust(
    episodes: Iterable[LoggedEpisode],
    target_policy,
    qnet,
    clip: float | None = None,
    reward_scale: float = 1.0,
) -> OPEResult:
    """Doubly-robust estimate using a fitted Q model.

    ``qnet`` is the (already fitted) evaluation network, e.g. the
    output of :func:`fitted_q_evaluation`; pass that fit's
    ``reward_scale`` so the model's normalized values are compared with
    raw rewards on a single scale. Streams the episode source one
    episode at a time.
    """
    if reward_scale <= 0:
        raise ValueError("reward_scale must be positive")
    values_list: list[float] = []
    weights_list: list[float] = []
    for index, episode in enumerate(episodes):
        value, weight = episode_dr_value(episode, target_policy, qnet,
                                         clip, reward_scale, label=index)
        values_list.append(value)
        weights_list.append(weight)
    if not values_list:
        raise ValueError("need at least one logged episode")
    values = np.array(values_list)
    final_weights = np.array(weights_list)

    if values.size > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    else:
        stderr = 0.0
    return OPEResult(float(values.mean()), stderr,
                     effective_sample_size(final_weights), len(values),
                     "DR")
