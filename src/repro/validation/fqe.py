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
shares one prepared log among them); :func:`episode_dr_value` takes
an episode's slices as arguments and scores nothing itself. A longer
log is prepared again on every pass and scores only the rows that
pass reads, gathering them ``SCORE_ROWS`` at a time; its IS passes
never build the columns only the regression reads.

Memory holds one chunk, never the log: the decoded episodes and the
joined block, plus, for a kept chunk, ``rows x A`` floats of target
distributions and as many of fitted Q. On the paper network that is
329 floats a block against 780 feature floats a state, so each block
is under half the chunk's feature bytes. A forward over the chunk adds
only one row block of transient memory, never a copy of the chunk:
the Q-network scores a long batch in row blocks
(:data:`repro.rl.qnetwork.BLOCK_TOKENS`), and a chunk that is not kept
gathers its rows one ``SCORE_ROWS`` block at a time. Slicing a block
equals scoring the rows alone because Q-network rows and target rows are
bitwise independent of the batch they are scored in
(``tests/test_rl_qnet.py::TestRowIndependence``). Chunk boundaries
depend only on episode count — never on shard layout — which makes
the on-disk and in-memory paths numerically identical on the same
episodes.
"""

from __future__ import annotations

import functools
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
from repro.validation.ope import step_ratios

__all__ = ["FQEResult", "PreparedChunk", "PreparedLog",
           "fitted_q_evaluation", "episode_dr_value"]

#: episodes per chunk when streaming a log (FQE's default)
CHUNK_EPISODES = 64

#: state rows a chunk that is not kept gathers and scores at a time
SCORE_ROWS = 1024


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


class _TransitionBatch:
    """One chunk's episodes joined into a batch of transitions.

    ``states`` stacks every state of the chunk once: each episode's
    logged states, then its final state when one was logged.
    Transitions read their states and successors by row. The columns
    only FQE's regression reads (successor rows, dones, returns-to-go)
    are built on first read, so an importance-sampling pass never pays
    for them.
    """

    def __init__(self, episodes: list[LoggedEpisode], gamma: float):
        blocks, masks, state_rows = [], [], []
        #: whether each episode logged a final state
        self._finals = np.empty(len(episodes), dtype=bool)
        row = 0  # the episode's first row in ``states``
        for i, episode in enumerate(episodes):
            if episode.gamma != gamma:
                raise ValueError(
                    f"FQE fits one discount: episode gamma {episode.gamma} "
                    f"!= first episode gamma {gamma}"
                )
            n = len(episode)
            state_rows.append(np.arange(row, row + n))
            blocks.append(episode.features)
            masks.append(episode.masks)
            self._finals[i] = episode.final_features is not None
            if self._finals[i]:
                blocks.append(take_rows(episode.final_features, np.newaxis))
                masks.append(episode.final_mask[np.newaxis])
                row += n + 1
            else:
                row += n
        self.gamma = gamma
        self.states: FeatureSet = concat_rows(blocks)  # (rows, ...) blocks
        self.masks: np.ndarray = np.concatenate(masks)  # (rows, A)
        #: row of each transition's state and of each episode's first
        self.state_rows = np.concatenate(state_rows)
        self.start_rows = np.array([rows[0] for rows in state_rows],
                                   dtype=np.int64)
        #: each episode's transitions end here (exclusive)
        self._ends = np.cumsum([len(rows) for rows in state_rows])
        self.actions = np.concatenate([ep.actions for ep in episodes])
        self.rewards = np.concatenate([ep.rewards for ep in episodes])

    @functools.cached_property
    def next_rows(self) -> np.ndarray:
        """Row of each transition's successor: the next logged state, and
        for an episode's last step its final state (itself when none was
        logged)."""
        rows = self.state_rows + 1
        rows[self._ends[~self._finals] - 1] -= 1
        return rows

    @functools.cached_property
    def dones(self) -> np.ndarray:
        """1.0 at each episode's last transition, else 0.0."""
        dones = np.zeros(len(self.actions))
        dones[self._ends - 1] = 1.0
        return dones

    @functools.cached_property
    def returns_to_go(self) -> np.ndarray:
        """Discounted return from each transition to its episode's end."""
        # Python floats round as float64 does: the same sums, faster
        gamma, rewards = float(self.gamma), self.rewards.tolist()
        out = np.empty(len(rewards))
        start = 0
        for end in self._ends.tolist():
            tail = 0.0
            for t in range(end - 1, start - 1, -1):
                tail = rewards[t] + gamma * tail
                out[t] = tail
            start = end
        return out


def _transition_batch(episodes: list[LoggedEpisode],
                      gamma: float) -> _TransitionBatch:
    """Join a chunk's columns; each episode's last step bootstraps from
    its final state (itself when none was logged)."""
    return _TransitionBatch(episodes, gamma)


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

    def _row_blocks(self, rows: np.ndarray, score) -> np.ndarray:
        """``score(features, masks)`` over state ``rows``, gathered and
        scored ``SCORE_ROWS`` rows at a time and concatenated in order,
        so no second copy of the chunk's feature block is made."""
        states, masks = self.batch.states, self.batch.masks
        return np.concatenate([
            score(take_rows(states, block), masks[block])
            for block in np.split(rows, range(SCORE_ROWS, len(rows),
                                              SCORE_ROWS))])

    def target_probs(self, rows: np.ndarray) -> np.ndarray:
        """The target's ``(len(rows), A)`` distributions at state rows."""
        if self.probs is not None:
            return self.probs[rows]
        return self._row_blocks(rows, self.target_policy.action_probs_batch)

    def policy_values(self, qnet, rows: np.ndarray) -> np.ndarray:
        """V(s) = sum_a pi(a|s) Q(s, a) of ``qnet`` at state rows."""
        if self.probs is not None:
            return row_dot(self.probs[rows],
                           q_batch(qnet, take_rows(self.batch.states, rows)))
        score = self.target_policy.action_probs_batch
        return self._row_blocks(
            rows, lambda features, masks: row_dot(score(features, masks),
                                                  q_batch(qnet, features)))

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
            q = self._row_blocks(rows, lambda feats, _: q_batch(qnet, feats))
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
                    qnet.forward(states.node, states.plc, states.glob,
                                 grad=True),
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
    probs: np.ndarray,
    q: np.ndarray,
    clip: float | None = None,
    reward_scale: float = 1.0,
    label: int | str | None = None,
) -> tuple[float, float]:
    """One episode's doubly-robust value and its trajectory weight.

    ``probs`` (the target's ``(T, A)`` distributions) and ``q`` (the
    fitted network's ``(T, A)`` Q-values, on the fit's
    ``reward_scale``) are blocks at the episode's logged states, as
    :meth:`PreparedLog.scored_episodes` yields them.
    """
    n = len(episode)
    q_all = q / reward_scale
    q_taken = q_all[np.arange(n), episode.actions]
    state_values = row_dot(probs, q_all)
    next_values = np.append(state_values[1:], 0.0)  # terminal V = 0

    ratios = step_ratios(episode, probs, clip, label=label)
    cumulative = np.cumprod(ratios)
    discounts = episode.gamma ** np.arange(n)
    corrections = cumulative * (
        episode.rewards + episode.gamma * next_values - q_taken
    )
    value = state_values[0] + float(np.sum(discounts * corrections))
    weight = float(cumulative[-1]) if len(cumulative) else 1.0
    return value, weight
