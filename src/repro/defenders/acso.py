"""The learned ACSO defender: attention Q-network over DBN beliefs.

At evaluation time the policy is the greedy argmax over valid actions
(Section 4): at most one investigation or mitigation per hour, with
"no action" an explicit choice. Because the Q-network's parameters are
independent of network size, the same weights can be bound to any
topology.
"""

from __future__ import annotations

import numpy as np

from repro.dbn.filter import DBNTables
from repro.defenders.base import DefenderPolicy
from repro.nn import load_state
from repro.rl.dqn import valid_action_mask
from repro.rl.features import ACSOFeaturizer
from repro.rl.qnetwork import AttentionQNetwork, QNetConfig
from repro.sim.observations import Observation
from repro.sim.orchestrator import DefenderAction

__all__ = ["ACSOPolicy"]


class ACSOPolicy(DefenderPolicy):
    name = "acso"

    def __init__(self, qnet: AttentionQNetwork, tables: DBNTables):
        self.qnet = qnet
        self.tables = tables
        self.featurizer: ACSOFeaturizer | None = None

    @classmethod
    def from_file(cls, path, tables: DBNTables,
                  config: QNetConfig | None = None, seed: int = 0) -> "ACSOPolicy":
        """Load trained weights saved with :func:`repro.nn.save_state`."""
        qnet = AttentionQNetwork(config, seed=seed)
        load_state(qnet, path)
        return cls(qnet, tables)

    def reset(self, env) -> None:
        """Bind the network and a featurizer to ``env.topology``; on the
        topology already bound only the DBN restarts, so the action list,
        and with it its cached busy-flag positions, lives across
        episodes."""
        self.qnet.bind_topology(env.topology)
        featurizer = self.featurizer
        if featurizer is None or featurizer.topology is not env.topology \
                or featurizer.dbn.tables is not self.tables:
            featurizer = self.featurizer = ACSOFeaturizer(env.topology,
                                                          self.tables)
        featurizer.reset()

    def act(self, obs: Observation) -> list[DefenderAction]:
        features = self.featurizer.update(obs)
        q = self.qnet.q_values(features)
        mask = valid_action_mask(self.qnet.action_list, obs)
        q = np.where(mask, q, -np.inf)
        action = self.qnet.action_list[int(np.argmax(q))]
        return [] if action.is_noop else [action]
