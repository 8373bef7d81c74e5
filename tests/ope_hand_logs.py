"""Hand-built OPE logs and the test doubles that score them.

Estimator math is checked by running :func:`run_ope_suite` on logs
whose probabilities and rewards are chosen by hand, so every expected
value is exact arithmetic. Each logged state's ``node`` feature is its
row index in the episode; a :class:`TableQNet` turns that index into a
fixed Q row. With :data:`NO_FIT` the suite's FQE fits nothing, so DM
and DR read the table's Q-values as given.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Module, Parameter, Tensor
from repro.rl.features import FeatureSet
from repro.validation import LoggedEpisode, run_ope_suite

#: FQE options under which the evaluation network is not trained
NO_FIT = {"iterations": 0, "mc_epochs": 0, "reward_scale": 1.0}


class FixedPolicy:
    """A target with one constant action distribution at every state."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def action_probs_batch(self, features, masks):
        return np.tile(self.probs, (len(masks), 1))


class TableQNet(Module):
    """Fixed Q rows, looked up by each state's ``node`` feature.

    Holds one unused parameter because FQE's optimizer refuses a
    network without parameters.
    """

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.unused = Parameter(np.zeros(1))

    def forward(self, node, plc, glob):
        return Tensor(self.q[node])


def row_states(batch: int) -> FeatureSet:
    """``batch`` states whose ``node`` feature is their row index."""
    return FeatureSet(node=np.arange(batch), plc=np.zeros(batch),
                      glob=np.zeros(batch))


def hand_log(actions, behavior_probs, rewards, gamma: float = 1.0,
             seed: int | None = None) -> LoggedEpisode:
    """A hand-built log over two actions, both always valid."""
    return LoggedEpisode(actions=actions, behavior_probs=behavior_probs,
                         rewards=rewards, gamma=gamma,
                         features=row_states(len(actions)),
                         masks=np.ones((len(actions), 2), dtype=bool),
                         seed=seed)


def bandit_episode(action: int, behavior_prob: float, reward: float,
                   gamma: float = 1.0, seed: int | None = None
                   ) -> LoggedEpisode:
    return hand_log([action], [behavior_prob], [reward], gamma, seed)


def hand_suite(episodes, target, q=None, clip: float | None = None):
    """The suite's report over a hand log; the evaluation network's Q
    at step ``t`` of every episode is ``q[t]`` (zeros by default)."""
    if q is None:
        q = np.zeros((max((len(e) for e in episodes), default=1), 2))
    return run_ope_suite(episodes, target, TableQNet(q), clip=clip,
                         n_boot=100, fqe_options=NO_FIT)
