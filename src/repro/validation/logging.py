"""Behaviour policies and logged-episode collection for OPE.

Off-policy evaluation requires the probability the *behaviour* policy
assigned to every logged action. Deterministic policies (greedy ACSO,
playbook) have degenerate importance ratios, so logging is done with
stochastic wrappers: :class:`StochasticQPolicy` (softmax and/or
epsilon-greedy over masked Q-values) or :class:`UniformRandomPolicy`.

Each logged step stores the featurized state and valid-action mask so
target-policy probabilities, FQE regressions, and doubly-robust
corrections can all be computed offline from the same log. Logging
runs on :func:`~repro.sim.vec_env.drive_vec_episodes`, one lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbn.filter import DBNTables
from repro.nn import no_grad
from repro.rl.dqn import valid_action_mask
from repro.rl.features import ACSOFeaturizer, FeatureSet, stack_features
from repro.sim.vec_env import VectorEnv, drive_vec_episodes, fan_out
from repro.utils.stats import discounted_return

__all__ = [
    "LoggedStep",
    "LoggedEpisode",
    "StochasticQPolicy",
    "UniformRandomPolicy",
    "collect_logged_episodes",
]


@dataclass(frozen=True)
class LoggedStep:
    """One decision in a logged episode."""

    action: int
    behavior_prob: float
    reward: float
    features: FeatureSet | None = None
    mask: np.ndarray | None = None


@dataclass
class LoggedEpisode:
    """A trajectory logged under a known behaviour policy."""

    steps: list[LoggedStep]
    gamma: float
    #: features/mask of the state after the final step (for bootstraps)
    final_features: FeatureSet | None = None
    final_mask: np.ndarray | None = None
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([s.reward for s in self.steps])

    @property
    def behavior_probs(self) -> np.ndarray:
        return np.array([s.behavior_prob for s in self.steps])

    @property
    def actions(self) -> np.ndarray:
        return np.array([s.action for s in self.steps], dtype=np.int64)

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
        """Full action distribution at a (featurized) state.

        Works offline on logged features, which is how target-policy
        probabilities are recovered during estimation.
        """
        q = self.qnet.q_values(features)
        return self._probs_from_q(q, mask)

    def action_probs_batch(self, features_list, masks) -> list[np.ndarray]:
        """Distributions for many logged states in one network forward.

        The estimators' fast path (see
        :func:`repro.validation.ope.target_action_probs`): one stacked
        forward replaces a forward per step.
        """
        features_list = list(features_list)
        if not features_list:
            return []
        with no_grad():
            q = self.qnet.forward(*stack_features(features_list)).data
        return [self._probs_from_q(q[i], mask)
                for i, mask in enumerate(masks)]

    def _probs_from_q(self, q: np.ndarray, mask: np.ndarray) -> np.ndarray:
        valid = np.asarray(mask, dtype=bool)
        probs = np.zeros(len(q))
        if self.temperature is None:
            best = int(np.argmax(np.where(valid, q, -np.inf)))
            probs[best] = 1.0
        else:
            logits = np.where(valid, q / self.temperature, -np.inf)
            logits -= logits.max()
            exp = np.where(valid, np.exp(logits), 0.0)
            probs = exp / exp.sum()
        if self.epsilon > 0:
            uniform = valid / valid.sum()
            probs = (1.0 - self.epsilon) * probs + self.epsilon * uniform
        return probs

    def decide(self, obs) -> tuple[int, float, FeatureSet, np.ndarray]:
        """Online decision: (action index, its probability, features, mask)."""
        features = self.featurizer.update(obs)
        mask = valid_action_mask(self.qnet.action_list, obs)
        probs = self.action_probs(features, mask)
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(probs[action]), features, mask


class UniformRandomPolicy:
    """Uniform over valid actions; the maximum-coverage behaviour."""

    name = "uniform-random"

    def __init__(self, qnet, tables: DBNTables, seed: int = 0):
        # the Q-network is only used for its action list / featurizer
        # plumbing, so logs stay compatible with Q-based targets
        self._inner = StochasticQPolicy(qnet, tables, epsilon=1.0, seed=seed)

    def reset(self, env) -> None:
        self._inner.reset(env)

    def action_probs(self, features: FeatureSet, mask: np.ndarray) -> np.ndarray:
        valid = np.asarray(mask, dtype=bool)
        return valid / valid.sum()

    def action_probs_batch(self, features_list, masks) -> list[np.ndarray]:
        return [self.action_probs(None, mask) for mask in masks]

    def decide(self, obs):
        return self._inner.decide(obs)


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
    The episodes run on a one-lane
    :func:`~repro.sim.vec_env.drive_vec_episodes` with ``behavior``
    itself, so its RNG stream runs on across episodes.
    """
    logs: list[LoggedEpisode] = []
    pending: list = []

    def on_episode_start(slot: int, ep: int, obs) -> None:
        behavior.reset(env)
        logs.append(LoggedEpisode(steps=[], gamma=env.config.reward.gamma,
                                  seed=seed + ep))

    def act(slots, observations):
        pending[:] = behavior.decide(observations[0])
        return [pending[0]]

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        action, prob, features, mask = pending
        logs[-1].steps.append(LoggedStep(action, prob, reward, features, mask))

    def on_episode_end(slot: int, ep: int, obs) -> None:
        # only the state snapshot of the final decision is needed
        _, _, features, mask = behavior.decide(obs)
        logs[-1].final_features, logs[-1].final_mask = features, mask

    drive_vec_episodes(VectorEnv([env], auto_reset=False), fan_out(episodes),
                       seed=seed, max_steps=max_steps,
                       on_episode_start=on_episode_start, act=act,
                       on_step=on_step, on_episode_end=on_episode_end)
    return logs
