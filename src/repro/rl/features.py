"""Feature extraction for the Q-networks.

The attention network consumes the DBN belief of every computing node
plus static identity features, per-PLC status tokens, and a small
global summary vector (the paper concatenates the PLC state vector with
the contextualized node vectors -- Fig 5).

The convolutional baseline consumes a raw observation history window
(paper appendix, Table 7): no DBN, just stacked per-step encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbn.filter import DBNFilter, DBNTables
from repro.dbn.states import N_STATES
from repro.net.nodes import NodeType, ServerRole
from repro.net.topology import Topology
from repro.sim.observations import Observation

__all__ = ["FeatureSet", "ACSOFeaturizer", "RawHistoryEncoder", "stack_features"]

_NODE_TYPES = (NodeType.WORKSTATION, NodeType.SERVER, NodeType.HMI)
_ROLES = (
    ServerRole.NONE,
    ServerRole.OPC,
    ServerRole.HISTORIAN,
    ServerRole.DOMAIN_CONTROLLER,
)

#: per-node feature layout: belief + type one-hot + role one-hot +
#: quarantined + busy + normalized alert severity
NODE_FEATURE_DIM = N_STATES + len(_NODE_TYPES) + len(_ROLES) + 3
PLC_FEATURE_DIM = 3  # disrupted, destroyed, busy
GLOBAL_FEATURE_DIM = 3  # frac disrupted, frac destroyed, frac believed comp.


@dataclass(frozen=True)
class FeatureSet:
    """One decision step's model input."""

    node: np.ndarray  # (N, NODE_FEATURE_DIM)
    plc: np.ndarray  # (M, PLC_FEATURE_DIM)
    glob: np.ndarray  # (GLOBAL_FEATURE_DIM,)


def stack_features(features: list[FeatureSet]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch FeatureSets into (B,N,F), (B,M,F), (B,G) arrays (each one
    ``concatenate`` of the rows, reshaped; the bytes of ``np.stack``)."""
    batch, first = len(features), features[0]
    return (
        np.concatenate([f.node for f in features]).reshape(
            batch, *first.node.shape),
        np.concatenate([f.plc for f in features]).reshape(
            batch, *first.plc.shape),
        np.concatenate([f.glob for f in features]).reshape(
            batch, *first.glob.shape),
    )


class ACSOFeaturizer:
    """DBN-filtered features for the attention Q-network."""

    def __init__(self, topology: Topology, tables: DBNTables):
        self.topology = topology
        self.dbn = DBNFilter(tables, topology)
        n = topology.n_nodes
        self._static = np.zeros((n, len(_NODE_TYPES) + len(_ROLES)))
        for node in topology.nodes:
            self._static[node.node_id, _NODE_TYPES.index(node.ntype)] = 1.0
            self._static[
                node.node_id, len(_NODE_TYPES) + _ROLES.index(node.role)
            ] = 1.0

    def reset(self) -> None:
        self.dbn.reset()

    def update(self, obs: Observation) -> FeatureSet:
        """Advance the DBN with ``obs`` and return model features."""
        n = self.topology.n_nodes
        severities = obs.alert_severity_per_node(n)
        beliefs = self.dbn.update(obs, severities)
        node = np.concatenate(
            [
                beliefs,
                self._static,
                obs.quarantined[:, None].astype(float),
                obs.node_busy[:, None].astype(float),
                (severities / 3.0)[:, None],
            ],
            axis=1,
        )
        plc = np.stack(
            [
                obs.plc_disrupted.astype(float),
                obs.plc_destroyed.astype(float),
                obs.plc_busy.astype(float),
            ],
            axis=1,
        )
        m = max(1, self.topology.n_plcs)
        glob = np.array(
            [
                obs.plc_disrupted.sum() / m,
                obs.plc_destroyed.sum() / m,
                self.dbn.expected_compromised / max(1, n),
            ]
        )
        return FeatureSet(node=node, plc=plc, glob=glob)


class RawHistoryEncoder:
    """Sliding window of raw per-step observation encodings.

    Produces the (channels, window) input of the baseline convolutional
    network: per-node alert counts, scan results and busy flags, per-PLC
    status, and the global PLC fractions, with no belief filtering.
    """

    def __init__(self, topology: Topology, window: int = 64):
        self.topology = topology
        self.window = window
        self.step_dim = self.step_dim_for(topology)
        self._history = np.zeros((self.step_dim, window))

    @staticmethod
    def step_dim_for(topology: Topology) -> int:
        """Length of one step's encoding on ``topology``."""
        return 6 * topology.n_nodes + 2 * topology.n_plcs + 2

    def reset(self) -> None:
        self._history[:] = 0.0

    def encode_step(self, obs: Observation) -> np.ndarray:
        n = self.topology.n_nodes
        counts = obs.alert_counts_per_node(n).astype(float)  # (N, 3)
        scans = np.zeros(n)
        for result in obs.scan_results:
            scans[result.node_id] = 1.0 if result.detected else -1.0
        per_node = np.concatenate(
            [
                counts,
                scans[:, None],
                obs.node_busy[:, None].astype(float),
                obs.quarantined[:, None].astype(float),
            ],
            axis=1,
        ).ravel()
        per_plc = np.stack(
            [obs.plc_disrupted.astype(float), obs.plc_destroyed.astype(float)], axis=1
        ).ravel()
        m = max(1, self.topology.n_plcs)
        glob = np.array(
            [obs.plc_disrupted.sum() / m, obs.plc_destroyed.sum() / m]
        )
        return np.concatenate([per_node, per_plc, glob])

    def update(self, obs: Observation) -> np.ndarray:
        """Push a step and return the (step_dim, window) history."""
        self._history = np.roll(self._history, -1, axis=1)
        self._history[:, -1] = self.encode_step(obs)
        return self._history.copy()
