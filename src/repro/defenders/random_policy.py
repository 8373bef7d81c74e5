"""The semi-random baseline (Section 5.1).

"A random policy simulates independent security analysts and users
taking actions on the network. The random policy takes actions by
sampling action type from a static categorical distribution and a node
uniformly from the nodes of the appropriate type in the network."

The number of actions attempted per hour is Poisson distributed; the
default rate and type distribution are calibrated so the policy is the
most disruptive baseline, as in Table 2.
"""

from __future__ import annotations

import numpy as np

from repro.defenders.base import DefenderPolicy
from repro.sim.observations import Observation
from repro.sim.orchestrator import DefenderAction, DefenderActionType
from repro.utils.rng import ensure_rng

__all__ = ["SemiRandomPolicy"]

_T = DefenderActionType

#: static categorical over action types (scans dominate: users and
#: analysts investigate far more often than they wipe machines; a rare
#: mitigation models uncoordinated user reboots / IT re-images)
DEFAULT_TYPE_PROBS: dict[DefenderActionType, float] = {
    _T.SIMPLE_SCAN: 0.42,
    _T.ADVANCED_SCAN: 0.12,
    _T.HUMAN_ANALYSIS: 0.07,
    _T.REBOOT: 0.12,
    _T.RESET_PASSWORD: 0.06,
    _T.REIMAGE: 0.03,
    _T.QUARANTINE: 0.04,
    _T.RESET_PLC: 0.09,
    _T.REPLACE_PLC: 0.05,
}


class SemiRandomPolicy(DefenderPolicy):
    name = "semi-random"

    def __init__(self, rate: float = 5.0, type_probs=None, seed: int = 0):
        self.rate = rate
        probs = dict(DEFAULT_TYPE_PROBS if type_probs is None else type_probs)
        self._types = list(probs)
        weights = np.array([probs[t] for t in self._types], dtype=float)
        if not (np.isfinite(weights).all() and (weights >= 0).all()
                and weights.sum() > 0):
            raise ValueError(
                f"type_probs must be finite, non-negative weights with a "
                f"positive sum, got {weights.tolist()}")
        # ``Generator.choice(n, p=)``'s own arithmetic (cumsum, divide by
        # the last entry, one ``random()`` draw), built once: the same
        # draws without choice's per-call check of ``p``
        self._cdf = (weights / weights.sum()).cumsum()
        self._cdf /= self._cdf[-1]
        self._seed = seed
        self.rng = ensure_rng(seed)
        self._hosts: list[int] = []
        self._all_nodes: list[int] = []
        self._n_plcs = 0

    def reset(self, env) -> None:
        self.rng = ensure_rng(self._seed)
        topo = env.topology
        self._hosts = [n.node_id for n in topo.nodes if n.ntype.is_host]
        self._all_nodes = [n.node_id for n in topo.nodes]
        self._n_plcs = topo.n_plcs

    def act(self, obs: Observation) -> list[DefenderAction]:
        n_attempts = int(self.rng.poisson(self.rate))
        actions: list[DefenderAction] = []
        taken_nodes: set[int] = set()
        taken_plcs: set[int] = set()
        for _ in range(n_attempts):
            atype = self._types[int(self._cdf.searchsorted(self.rng.random(),
                                                           side="right"))]
            if atype in (_T.RESET_PLC, _T.REPLACE_PLC):
                if self._n_plcs == 0:
                    continue
                target = int(self.rng.integers(self._n_plcs))
                if target in taken_plcs or obs.plc_busy[target]:
                    continue
                taken_plcs.add(target)
            else:
                pool = self._hosts if atype is _T.QUARANTINE else self._all_nodes
                target = int(pool[int(self.rng.integers(len(pool)))])
                if target in taken_nodes or obs.node_busy[target]:
                    continue
                taken_nodes.add(target)
            actions.append(DefenderAction(atype, target))
        return actions
