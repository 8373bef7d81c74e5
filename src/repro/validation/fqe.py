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

FQE streams its episode source in fixed-size **episode chunks**
(:func:`~repro.validation.datasets.iter_episode_chunks`) through a
:class:`PreparedLog`. A :class:`PreparedChunk` joins a chunk's
:class:`~repro.validation.logging.LoggedEpisode` columns into one
transition batch whose state block holds every logged state and each
episode's final state once; transitions, their successors and the
episode starts are rows of that block. A log of at most
``chunk_episodes`` episodes is prepared once: its chunk is kept, the
target's ``(rows, A)`` distributions come from one
``action_probs_batch`` call, and after the fit the fitted network's Q
over the same rows comes from one forward. The IS scalars, every
Bellman iteration's successor values, the start values and DR all
slice those blocks (:func:`~repro.validation.suite.run_ope_suite`
shares one prepared log among them). A longer log is prepared again on
every pass and scores only the rows that pass reads.

Memory holds one chunk, never the log: the decoded episodes and the
joined block, plus, for a kept chunk, ``rows x A`` floats of target
distributions and as many of fitted Q. On the paper network that is
329 floats a block against 780 feature floats a state, so each block
is under half the chunk's feature bytes. Slicing a block equals
scoring the rows alone because Q-network rows and target rows are
bitwise independent of the batch they are scored in
(``tests/test_rl_qnet.py::TestRowIndependence``). Chunk boundaries
depend only on episode count — never on shard layout — which makes
the on-disk and in-memory paths numerically identical on the same
episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

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

__all__ = ["FQEResult", "PreparedChunk", "PreparedLog",
           "fitted_q_evaluation", "doubly_robust", "episode_dr_value"]

#: episodes per chunk when streaming a log (FQE's default)
CHUNK_EPISODES = 64


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
    """One chunk's episodes joined into a batch of transitions.

    ``states`` stacks every state of the chunk once: each episode's
    logged states, then its final state when one was logged.
    Transitions read their states and successors by row.
    """

    states: FeatureSet  # (rows, ...) blocks
    masks: np.ndarray  # (rows, A)
    #: row of each transition's state, of its successor, and of each
    #: episode's first state
    state_rows: np.ndarray
    next_rows: np.ndarray
    start_rows: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    returns_to_go: np.ndarray


def _transition_batch(episodes: list[LoggedEpisode],
                      gamma: float) -> _TransitionBatch:
    """Join a chunk's columns; each episode's last step bootstraps from
    its final state (itself when none was logged)."""
    blocks, masks, state_rows, next_rows = [], [], [], []
    dones, returns_to_go = [], []
    row = 0  # the episode's first row in ``states``
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
        rows = np.arange(row, row + n)
        state_rows.append(rows)
        blocks.append(episode.features)
        masks.append(episode.masks)
        successors = rows + 1
        if episode.final_features is not None:
            blocks.append(take_rows(episode.final_features, np.newaxis))
            masks.append(episode.final_mask[np.newaxis])
            row += n + 1
        else:
            successors[-1] = rows[-1]
            row += n
        next_rows.append(successors)
        done = np.zeros(n)
        done[-1] = 1.0
        dones.append(done)
    return _TransitionBatch(
        states=concat_rows(blocks),
        masks=np.concatenate(masks),
        state_rows=np.concatenate(state_rows),
        next_rows=np.concatenate(next_rows),
        start_rows=np.array([rows[0] for rows in state_rows],
                            dtype=np.int64),
        actions=np.concatenate([episode.actions for episode in episodes]),
        rewards=np.concatenate([episode.rewards for episode in episodes]),
        dones=np.concatenate(dones),
        returns_to_go=np.concatenate(returns_to_go),
    )


def row_dot(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``probs[i] @ q[i]`` for every row as one batched matmul, bitwise the
    per-row dot (``einsum`` and ``(probs * q).sum(1)`` are not)."""
    return (np.asarray(probs)[:, None, :] @ q[:, :, None])[:, 0, 0]


class PreparedChunk:
    """One chunk of a log made ready for every estimator pass.

    Holds the chunk's decoded episodes and their joined
    :class:`_TransitionBatch`. A *kept* chunk (the whole log fits in one
    chunk) also holds ``probs``, the target's ``(rows, A)``
    distributions over every state of the batch from one
    ``action_probs_batch`` call, and, once FQE has fitted, ``q``, the
    fitted network's Q over the same rows from one forward. A chunk
    prepared for a single pass scores only the rows that pass reads.
    Both read the same values: network rows and target rows are bitwise
    independent of the batch they are scored in.
    """

    def __init__(self, episodes: list[LoggedEpisode], first: int,
                 gamma: float, target_policy, keep: bool):
        self.episodes = episodes
        #: log index of the chunk's first episode (error labels)
        self.first = first
        self.batch = _transition_batch(episodes, gamma)
        self.target_policy = target_policy
        self.probs = (target_policy.action_probs_batch(self.batch.states,
                                                       self.batch.masks)
                      if keep else None)
        #: the fitted network's Q over ``batch.states`` as of FQE's
        #: start-value pass (kept chunks only), and that network
        self.q = None
        self._q_net = None

    def target_probs(self, rows: np.ndarray) -> np.ndarray:
        """The target's ``(len(rows), A)`` distributions at state rows."""
        if self.probs is not None:
            return self.probs[rows]
        return self.target_policy.action_probs_batch(
            take_rows(self.batch.states, rows), self.batch.masks[rows])

    def policy_values(self, qnet, rows: np.ndarray) -> np.ndarray:
        """V(s) = sum_a pi(a|s) Q(s, a) of ``qnet`` at state rows."""
        q = q_batch(qnet, take_rows(self.batch.states, rows))
        return row_dot(self.target_probs(rows), q)

    def start_values(self, qnet) -> np.ndarray:
        """V of the fitted ``qnet`` at each episode's first state; a kept
        chunk scores all its states here and keeps them for DR."""
        rows = self.batch.start_rows
        if self.probs is None:
            return self.policy_values(qnet, rows)
        self.q, self._q_net = q_batch(qnet, self.batch.states), qnet
        return row_dot(self.probs[rows], self.q[rows])

    def scored_episodes(self, qnet=None) -> Iterator[tuple]:
        """``(log index, episode, target probs, Q of qnet)`` per episode,
        each block ``(T, A)`` over the episode's logged states; the Q
        block is ``None`` without ``qnet``."""
        rows = self.batch.state_rows
        probs = self.target_probs(rows)
        if qnet is None:
            q = None
        elif qnet is self._q_net:
            q = self.q[rows]
        else:
            q = q_batch(qnet, take_rows(self.batch.states, rows))
        offset = 0
        for index, episode in enumerate(self.episodes, self.first):
            span = slice(offset, offset + len(episode))
            offset = span.stop
            yield (index, episode, probs[span],
                   None if q is None else q[span])


class PreparedLog:
    """An episode source scored under one target policy, chunk by chunk.

    Iterating it yields the source's episodes; :meth:`chunks` yields
    :class:`PreparedChunk` objects of ``chunk_episodes`` episodes each.
    A log that fits in one chunk is decoded, joined and scored once and
    the chunk is kept for every later pass; a longer log is prepared
    again on each pass, so memory holds one chunk, never the log.
    Chunk boundaries depend only on episode count (see
    :func:`~repro.validation.datasets.iter_episode_chunks`).
    """

    def __init__(self, episodes: Iterable[LoggedEpisode], target_policy,
                 chunk_episodes: int = CHUNK_EPISODES):
        if chunk_episodes < 1:
            raise ValueError("chunk_episodes must be positive")
        self.episodes = episodes
        self.target_policy = target_policy
        self.chunk_episodes = chunk_episodes
        self._gamma: float | None = None
        self._kept: PreparedChunk | None = None

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self) -> Iterator[LoggedEpisode]:
        return iter(self.episodes)

    @property
    def gamma(self) -> float:
        """The log's one discount, its first episode's."""
        if self._gamma is None:
            if len(self) <= self.chunk_episodes:
                next(self.chunks())
            else:
                self._gamma = next(iter(self.episodes)).gamma
        return self._gamma

    def chunks(self) -> Iterator[PreparedChunk]:
        if self._kept is not None:
            yield self._kept
            return
        keep = len(self) <= self.chunk_episodes
        first = 0
        for episodes in iter_episode_chunks(self.episodes,
                                            self.chunk_episodes):
            if self._gamma is None:
                self._gamma = episodes[0].gamma
            chunk = PreparedChunk(episodes, first, self._gamma,
                                  self.target_policy, keep)
            if keep:
                self._kept = chunk
            yield chunk
            first += len(episodes)

    def scored_episodes(self, qnet=None) -> Iterator[tuple]:
        """:meth:`PreparedChunk.scored_episodes` over the whole log."""
        for chunk in self.chunks():
            yield from chunk.scored_episodes(qnet)


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
    chunk_episodes: int = CHUNK_EPISODES,
) -> FQEResult:
    """Fit Q^pi on logged transitions; returns the start-state value.

    ``qnet`` must already be bound to the logging topology; it is
    trained in place (pass a fresh network to keep the control policy
    untouched). ``target_policy.action_probs_batch`` supplies pi(a|s).

    ``episodes`` is any re-iterable episode source — a list, a
    :class:`~repro.validation.datasets.TraceDataset`, or a
    :class:`PreparedLog` of this target policy and chunk size, whose
    chunks the fit then shares with its other readers. Each pass
    (warm-start, every Bellman iteration, the final start-state
    scoring) streams the source ``chunk_episodes`` episodes at a time:
    a log of one chunk is prepared and scored once, a longer one again
    on every pass, so peak memory is one chunk's transitions, never the
    log's.

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
    if not (isinstance(episodes, PreparedLog)
            and episodes.target_policy is target_policy
            and episodes.chunk_episodes == chunk_episodes):
        episodes = PreparedLog(episodes, target_policy, chunk_episodes)
    if len(episodes) == 0:
        raise ValueError("need at least one logged episode")
    gamma = episodes.gamma
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
                states = take_rows(batch.states, batch.state_rows[rows])
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
        for chunk in episodes.chunks():
            batch = chunk.batch
            pass_losses += _regress(batch, batch.returns_to_go * reward_scale,
                                    mc_epochs)
        losses.append(float(np.mean(pass_losses)))

    for _ in range(iterations):
        pass_losses = []
        for chunk in episodes.chunks():
            batch = chunk.batch
            # freeze the bootstrap values for this chunk
            next_values = chunk.policy_values(qnet, batch.next_rows)
            targets_all = (batch.rewards * reward_scale
                           + gamma * (1.0 - batch.dones) * next_values)
            pass_losses += _regress(batch, targets_all, epochs_per_iteration)
        losses.append(float(np.mean(pass_losses)))

    start_values = np.concatenate([chunk.start_values(qnet)
                                   for chunk in episodes.chunks()])
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
    probs: np.ndarray | None = None,
    q: np.ndarray | None = None,
) -> tuple[float, float]:
    """One episode's doubly-robust value and its trajectory weight.

    ``probs`` (the target's ``(T, A)`` distributions) and ``q``
    (``qnet``'s ``(T, A)`` Q-values) at the episode's logged states are
    scored here unless the caller holds them already, as
    :meth:`PreparedLog.scored_episodes` does.
    """
    n = len(episode)
    if q is None:
        q = q_batch(qnet, episode.features)
    if probs is None:
        probs = target_policy.action_probs_batch(episode.features,
                                                 episode.masks)
    q_all = q / reward_scale
    q_taken = q_all[np.arange(n), episode.actions]
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
