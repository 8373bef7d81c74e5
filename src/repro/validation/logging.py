"""Behaviour policies and logged-episode recording for OPE.

Off-policy evaluation requires the probability the *behaviour* policy
assigned to every logged action. Deterministic policies (greedy ACSO,
playbook) have degenerate importance ratios, so logging is done with
stochastic wrappers: :class:`StochasticQPolicy` (softmax and/or
epsilon-greedy over masked Q-values) or :class:`UniformRandomPolicy`.

A logged episode is one column batch, :class:`LoggedEpisode`: the
actions, behaviour probabilities and rewards ``(T,)``, the featurized
states stacked into ``(T, N, d)`` / ``(T, M, d)`` / ``(T, G)`` blocks,
the valid-action masks ``(T, A)`` and the state after the final step.
The same shape runs from the recorder through the on-disk trace store
(:mod:`repro.validation.tracestore`, whose record columns it mirrors)
to the OPE suite's prepared log, which indexes the columns directly:
target-policy probabilities (one masked softmax per ``(B, A)`` block),
FQE regressions and doubly-robust corrections are all computed offline
from it.
Recording runs on :func:`~repro.sim.vec_env.drive_vec_episodes`;
:func:`recorder` builds its callbacks, and :func:`collect_logged_episodes`
is the one-lane call of them that keeps the episodes in a list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbn.filter import DBNTables
from repro.nn import no_grad
from repro.rl.dqn import valid_action_mask
from repro.rl.features import ACSOFeaturizer, FeatureSet
from repro.sim.vec_env import VectorEnv, drive_vec_episodes, fan_out
from repro.utils.stats import discounted_return

__all__ = [
    "LoggedEpisode",
    "StochasticQPolicy",
    "UniformRandomPolicy",
    "collect_logged_episodes",
    "recorder",
]

def take_rows(features: FeatureSet, index) -> FeatureSet:
    """Rows ``index`` of a stacked feature batch (one copy per block)."""
    return FeatureSet(node=features.node[index], plc=features.plc[index],
                      glob=features.glob[index])


def concat_rows(batches) -> FeatureSet:
    """Stacked feature batches joined along their leading axis."""
    batches = list(batches)
    return FeatureSet(*(np.concatenate([getattr(b, name) for b in batches])
                        for name in ("node", "plc", "glob")))


def valid_rows(masks) -> np.ndarray:
    """Boolean masks; a row with no valid action raises ``ValueError``."""
    valid = np.asarray(masks, dtype=bool)
    empty = np.flatnonzero(~valid.any(axis=-1))
    if len(empty):
        raise ValueError(f"mask row {empty[0]} allows no action")
    return valid


def q_batch(qnet, features: FeatureSet) -> np.ndarray:
    """Q-values ``(B, A)`` of a stacked feature batch, without a graph."""
    with no_grad():
        return qnet.forward(features.node, features.plc, features.glob).data


@dataclass
class LoggedEpisode:
    """A trajectory logged under a known behaviour policy, as columns.

    ``features`` holds the states stacked along a leading step axis and
    ``masks`` the ``(T, A)`` valid-action masks.
    ``final_features``/``final_mask`` are the single state after the
    final step (FQE's bootstrap anchor), ``None`` when not logged.
    """

    actions: np.ndarray
    behavior_probs: np.ndarray
    rewards: np.ndarray
    gamma: float
    features: FeatureSet
    masks: np.ndarray
    final_features: FeatureSet | None = None
    final_mask: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.behavior_probs = np.asarray(self.behavior_probs,
                                         dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def steps(self) -> np.recarray:
        """Read-only per-step view: ``steps[t].action``,
        ``.behavior_prob`` and ``.reward``."""
        steps = np.rec.fromarrays(
            [self.actions, self.behavior_probs, self.rewards],
            names="action,behavior_prob,reward")
        steps.flags.writeable = False
        return steps

    def discounted_return(self) -> float:
        return discounted_return(self.rewards, self.gamma)


class StochasticQPolicy:
    """Stochastic policy over masked Q-values.

    With ``temperature`` set, base probabilities are a softmax of
    Q / temperature over valid actions; otherwise the base is the
    greedy one-hot. An ``epsilon`` mixture with the uniform-over-valid
    distribution guarantees full support, which ordinary importance
    sampling needs from the behaviour policy.
    """

    name = "stochastic-q"

    def __init__(self, qnet, tables: DBNTables,
                 temperature: float | None = None, epsilon: float = 0.1,
                 seed: int = 0):
        if temperature is not None and temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.qnet = qnet
        self.tables = tables
        self.temperature = temperature
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)
        self.featurizer: ACSOFeaturizer | None = None

    # ------------------------------------------------------------------
    def reset(self, env) -> None:
        self.qnet.bind_topology(env.topology)
        self.featurizer = ACSOFeaturizer(env.topology, self.tables)
        self.featurizer.reset()

    def action_probs(self, features: FeatureSet, mask: np.ndarray) -> np.ndarray:
        """Full action distribution at one (featurized) state: the batch
        of one of :meth:`action_probs_batch`."""
        return self.action_probs_batch(take_rows(features, np.newaxis),
                                       np.asarray(mask)[np.newaxis])[0]

    def action_probs_batch(self, features: FeatureSet,
                           masks: np.ndarray) -> np.ndarray:
        """Distributions ``(B, A)`` for a stacked batch of states in one
        network forward.

        Works offline on logged columns, which is how target-policy
        probabilities are recovered during estimation. Each op runs once
        over the ``(B, A)`` block, reducing rows along the contiguous last
        axis, so every row is bitwise what it would be alone. A row with
        no valid action raises ``ValueError``.
        """
        valid = valid_rows(masks)
        if len(valid) == 0:
            return np.zeros(valid.shape)
        q = q_batch(self.qnet, features)
        if self.temperature is None:
            best = np.where(valid, q, -np.inf).argmax(axis=1, keepdims=True)
            probs = (np.arange(q.shape[1]) == best) * 1.0
        else:
            logits = np.where(valid, q / self.temperature, -np.inf)
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.where(valid, np.exp(logits), 0.0)
            probs = exp / exp.sum(axis=1, keepdims=True)
        if self.epsilon > 0:
            uniform = valid / valid.sum(axis=1, keepdims=True)
            probs = (1.0 - self.epsilon) * probs + self.epsilon * uniform
        return probs

    def decide(self, obs) -> tuple[int, float, FeatureSet, np.ndarray]:
        """Online decision: (action index, its probability, features, mask)."""
        features = self.featurizer.update(obs)
        mask = valid_action_mask(self.qnet.action_list, obs)
        probs = self.action_probs(features, mask)
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(probs[action]), features, mask


class UniformRandomPolicy(StochasticQPolicy):
    """Uniform over valid actions; the maximum-coverage behaviour: the
    epsilon = 1 :class:`StochasticQPolicy` without a network forward
    (the Q-network only supplies the action list and featurizer)."""

    name = "uniform-random"

    def __init__(self, qnet, tables: DBNTables, seed: int = 0):
        super().__init__(qnet, tables, epsilon=1.0, seed=seed)

    def action_probs_batch(self, features: FeatureSet | None,
                           masks: np.ndarray) -> np.ndarray:
        valid = valid_rows(masks)
        return valid / valid.sum(axis=1, keepdims=True)


def recorder(venv, behavior_for, sink, *, seed: int = 0) -> dict:
    """:func:`~repro.sim.vec_env.drive_vec_episodes` callbacks that log
    every lane's episodes under a behaviour policy.

    Episode ``ep`` runs under ``behavior_for(ep)``, reset on its lane,
    and is logged with its lane's discount and seed ``seed + ep``. When
    it ends, the post-episode state is featurized as FQE's bootstrap
    anchor and the finished :class:`LoggedEpisode` goes to
    ``sink(ep, lane, episode, infos)`` with the engine's step infos.
    Memory holds one in-flight episode per lane.
    """
    behaviors: list = [None] * venv.num_envs
    pending: list = [None] * venv.num_envs
    logs: list = [None] * venv.num_envs

    def on_episode_start(slot: int, ep: int, obs) -> None:
        behaviors[slot] = behavior_for(ep)
        behaviors[slot].reset(venv.policy_env(slot))
        logs[slot] = []

    def act(slots, observations):
        for slot, obs in zip(slots, observations):
            pending[slot] = behaviors[slot].decide(obs)
        return [pending[slot][0] for slot in slots]

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        logs[slot].append((*pending[slot], reward, info))

    def on_episode_end(slot: int, ep: int, obs) -> None:
        _, _, final_features, final_mask = behaviors[slot].decide(obs)
        actions, probs, features, masks, rewards, infos = zip(*logs[slot])
        logs[slot] = None
        episode = LoggedEpisode(
            actions=actions, behavior_probs=probs, rewards=rewards,
            gamma=venv.lane_config(slot).reward.gamma,
            features=concat_rows(take_rows(f, np.newaxis) for f in features),
            masks=np.stack(masks), final_features=final_features,
            final_mask=final_mask, seed=seed + ep)
        sink(ep, slot, episode, list(infos))

    return {"on_episode_start": on_episode_start, "act": act,
            "on_step": on_step, "on_episode_end": on_episode_end}


def collect_logged_episodes(
    env,
    behavior,
    episodes: int,
    seed: int = 0,
    max_steps: int | None = None,
) -> list[LoggedEpisode]:
    """Run the behaviour policy and log (action, probability, reward).

    One environment action index is taken per step (the DQN decision
    model); the resulting log supports every estimator in this package.
    The episodes run through :func:`recorder` on a one-lane
    :func:`~repro.sim.vec_env.drive_vec_episodes` with ``behavior``
    itself, so its RNG stream runs on across episodes.
    """
    logs: list[LoggedEpisode] = []
    venv = VectorEnv([env], auto_reset=False)
    drive_vec_episodes(venv, fan_out(episodes), seed=seed,
                       max_steps=max_steps,
                       **recorder(venv, lambda ep: behavior,
                                  lambda ep, lane, episode, infos:
                                  logs.append(episode), seed=seed))
    return logs
