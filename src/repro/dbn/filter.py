"""Recursive Bayes filter over per-node compromise beliefs (eq 7).

For every node i the filter maintains a belief vector b_i over the
canonical states. Each step it applies

    b'_i(s') = eta * P(o_i | s', a_i) * sum_s P(s' | s, mu, a_i) b_i(s)

where a_i is the defender action category completing on node i this
step, o_i is the node's observation (max alert severity and any scan
result), and mu is a bucketed summary of the expected network-wide
compromise count -- the paper's tractable surrogate for conditioning on
the full joint state.

Each step runs the no-action transition as one matmul over all rows,
then re-runs only the rows of nodes whose defender action completed, by
category: the bytes of one masked matmul per category.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbn.states import (
    ActionCategory,
    CanonicalState,
    N_ACTION_CATEGORIES,
    N_MU_BUCKETS,
    N_SCAN_TYPES,
    N_STATES,
    SCAN_TYPE_INDEX,
    action_category,
    mu_bucket,
)
from repro.net.topology import Topology
from repro.sim.observations import Observation

__all__ = ["DBNTables", "DBNFilter"]

_EPS = 1e-12


@dataclass
class DBNTables:
    """Learned conditional probability tables.

    transition : (n_mu, n_action_categories, S, S)
        ``transition[mu, a, s, s']`` = P(s' | s, mu, a).
    alert_lik : (S, 4)
        P(max alert level | state); level 0 means no alert.
    scan_lik : (n_scan_types, S, 2)
        P(scan result | state, scan type); column 1 = detected.
    """

    transition: np.ndarray
    alert_lik: np.ndarray
    scan_lik: np.ndarray

    def __post_init__(self) -> None:
        expected_t = (N_MU_BUCKETS, N_ACTION_CATEGORIES, N_STATES, N_STATES)
        if self.transition.shape != expected_t:
            raise ValueError(f"transition shape {self.transition.shape} != {expected_t}")
        if self.alert_lik.shape != (N_STATES, 4):
            raise ValueError("alert_lik must be (S, 4)")
        if self.scan_lik.shape != (N_SCAN_TYPES, N_STATES, 2):
            raise ValueError("scan_lik must be (n_scan_types, S, 2)")

    def save(self, path) -> None:
        np.savez(
            path,
            transition=self.transition,
            alert_lik=self.alert_lik,
            scan_lik=self.scan_lik,
        )

    @classmethod
    def load(cls, path) -> "DBNTables":
        data = np.load(path)
        return cls(data["transition"], data["alert_lik"], data["scan_lik"])


class DBNFilter:
    """Vectorized per-node belief tracker."""

    def __init__(self, tables: DBNTables, topology: Topology):
        self.tables = tables
        self.topology = topology
        self.n_nodes = topology.n_nodes
        #: P(alert level | state) as contiguous rows, one per level
        self._alert_lik_rows = np.ascontiguousarray(tables.alert_lik.T)
        #: (beliefs, expected_compromised of them), computed once
        self._expected: tuple[np.ndarray, float] | None = None
        self.reset()

    def reset(self) -> None:
        beliefs = np.zeros((self.n_nodes, N_STATES))
        beliefs[:, CanonicalState.CLEAN] = 1.0
        #: the belief matrix; each update and reset replaces it, and
        #: none writes into a matrix it has returned
        self.beliefs = beliefs

    # ------------------------------------------------------------------
    @property
    def expected_compromised(self) -> float:
        """Expected number of compromised nodes under the current belief."""
        beliefs, cached = self.beliefs, self._expected
        if cached is None or cached[0] is not beliefs:
            cached = self._expected = (
                beliefs, float(beliefs[:, CanonicalState.COMP:].sum()))
        return cached[1]

    def prob_compromised(self) -> np.ndarray:
        """Per-node probability of APT command and control."""
        return self.beliefs[:, CanonicalState.COMP:].sum(axis=1)

    # ------------------------------------------------------------------
    def update(self, obs: Observation,
               severities: np.ndarray | None = None) -> np.ndarray:
        """Advance beliefs by one step given an observation.

        Uses ``obs.completed_actions`` (the defender's own completing
        actions) for the transition conditioning and the alerts / scan
        results for the likelihood update. ``severities`` is
        ``obs.alert_severity_per_node(n_nodes)`` if the caller has it.
        Returns the belief matrix.
        """
        transition = self.tables.transition[mu_bucket(self.expected_compromised)]

        # transition: every node by the category of the defender action
        # completing on it (the last one listed), NONE for the rest
        completing: dict[int, ActionCategory] = {}
        for action in obs.completed_actions:
            cat = action_category(action.atype)
            if cat is not ActionCategory.NONE and action.target is not None \
                    and action.target < self.n_nodes:
                completing[action.target] = cat
        # one matmul over every row gives the idle rows the bytes of the
        # matmul over the idle rows alone (BLAS rows do not depend on
        # the row count), unless one idle row would run as a one-row
        # matmul, which rounds otherwise; each category's rows, in node
        # order, then run as the matmul of those rows alone
        new_beliefs = self.beliefs @ transition[ActionCategory.NONE]
        if completing:
            groups: dict[ActionCategory, list[int]] = {}
            for node in sorted(completing):
                groups.setdefault(completing[node], []).append(node)
            if self.n_nodes - len(completing) == 1:
                groups[ActionCategory.NONE] = [
                    next(i for i in range(self.n_nodes) if i not in completing)]
            for cat, nodes in groups.items():
                rows = np.array(nodes)
                new_beliefs[rows] = self.beliefs[rows] @ transition[cat]

        # likelihood: max alert severity per node (0 = no alert)
        if severities is None:
            severities = obs.alert_severity_per_node(self.n_nodes)
        new_beliefs *= self._alert_lik_rows[severities]

        # likelihood: completed scans
        for result in obs.scan_results:
            scan_idx = SCAN_TYPE_INDEX.get(result.action_type)
            if scan_idx is None or result.node_id >= self.n_nodes:
                continue
            new_beliefs[result.node_id] *= self.tables.scan_lik[
                scan_idx, :, int(result.detected)
            ]

        # quarantined nodes are isolated: freeze their belief dynamics is
        # unnecessary -- the learned QUARANTINE transition covers them.

        sums = np.add.reduce(new_beliefs, axis=1, keepdims=True)
        degenerate = sums <= _EPS
        if degenerate.any():
            # a row no state explains restarts from the uniform belief
            new_beliefs[degenerate.ravel()] = 1.0 / N_STATES
            sums = np.add.reduce(new_beliefs, axis=1, keepdims=True)
        new_beliefs /= sums
        self.beliefs = new_beliefs
        return self.beliefs
