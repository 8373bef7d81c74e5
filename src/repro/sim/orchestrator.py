"""Defender (ACSO) actions: investigations and mitigations.

Reproduces the paper's Tables 3 and 4:

* Investigations (Table 3) stochastically detect malware on the target
  node and never raise false alarms. Detection probabilities are
  ``detect_prob``; when the node carries the *Malware Cleaned*
  condition, the probability is multiplied by
  ``(1 - cleanup_effectiveness)`` -- at the nominal effectiveness of 0.5
  this halves detection, matching the paper's "with/without cleaned"
  columns (0.03/0.01 read as 0.03 base, ~0.015 cleaned; the PDF
  typography merges these digits with the duration column).
* Mitigations (Table 4) return the node to nominal unless the listed
  countermeasure condition is present. Re-imaging has no
  countermeasure. Quarantine toggles a workstation between its home
  VLAN and the level's quarantine VLAN.

Durations for mitigations are not printed in the paper; DESIGN.md
Section 5 documents the values chosen here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.net.nodes import Condition, NodeType
from repro.net.topology import Topology
from repro.sim.state import NetworkState

__all__ = [
    "DefenderActionType",
    "DefenderActionSpec",
    "DEFENDER_ACTION_SPECS",
    "DefenderAction",
    "HOST_ACTIONS",
    "SERVER_ACTIONS",
    "PLC_ACTIONS",
    "enumerate_actions",
    "action_busy_positions",
    "action_mask_from_busy",
    "scan_detection_prob",
    "apply_mitigation",
]


class DefenderActionType(enum.Enum):
    NOOP = "noop"
    SIMPLE_SCAN = "simple_scan"
    ADVANCED_SCAN = "advanced_scan"
    HUMAN_ANALYSIS = "human_analysis"
    REBOOT = "reboot"
    RESET_PASSWORD = "reset_password"
    REIMAGE = "reimage"
    QUARANTINE = "quarantine"
    RESET_PLC = "reset_plc"
    REPLACE_PLC = "replace_plc"


@dataclass(frozen=True)
class DefenderActionSpec:
    atype: DefenderActionType
    duration: int  # hours until the action completes
    cost_host: float
    cost_server: float
    detect_prob: float = 0.0  # investigations only; per completed action
    per_hour_detection: bool = False  # advanced scan draws each hour
    countermeasure: Condition | None = None  # mitigation blocked by this
    targets: str = "node"  # "node" | "plc" | "none"

    def cost(self, is_server: bool) -> float:
        return self.cost_server if is_server else self.cost_host

    @property
    def is_investigation(self) -> bool:
        return self.detect_prob > 0.0


_T = DefenderActionType

#: Tables 3 and 4 plus DESIGN.md Section 5 durations.
DEFENDER_ACTION_SPECS: dict[DefenderActionType, DefenderActionSpec] = {
    _T.NOOP: DefenderActionSpec(_T.NOOP, 0, 0.0, 0.0, targets="none"),
    _T.SIMPLE_SCAN: DefenderActionSpec(
        _T.SIMPLE_SCAN, 2, 0.01, 0.01, detect_prob=0.03
    ),
    _T.ADVANCED_SCAN: DefenderActionSpec(
        _T.ADVANCED_SCAN, 8, 0.03, 0.03, detect_prob=0.05, per_hour_detection=True
    ),
    _T.HUMAN_ANALYSIS: DefenderActionSpec(
        _T.HUMAN_ANALYSIS, 8, 0.05, 0.05, detect_prob=0.5
    ),
    _T.REBOOT: DefenderActionSpec(
        _T.REBOOT, 1, 0.01, 0.03, countermeasure=Condition.REBOOT_PERSIST
    ),
    _T.RESET_PASSWORD: DefenderActionSpec(
        _T.RESET_PASSWORD, 2, 0.03, 0.05, countermeasure=Condition.CRED_PERSIST
    ),
    _T.REIMAGE: DefenderActionSpec(_T.REIMAGE, 8, 0.05, 0.1),
    _T.QUARANTINE: DefenderActionSpec(_T.QUARANTINE, 1, 0.02, 0.02),
    _T.RESET_PLC: DefenderActionSpec(_T.RESET_PLC, 1, 0.02, 0.02, targets="plc"),
    _T.REPLACE_PLC: DefenderActionSpec(_T.REPLACE_PLC, 24, 0.04, 0.04, targets="plc"),
}

#: Action menus per target class; ordering fixes the Q-network layout.
HOST_ACTIONS = (
    _T.SIMPLE_SCAN, _T.ADVANCED_SCAN, _T.HUMAN_ANALYSIS,
    _T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE, _T.QUARANTINE,
)
SERVER_ACTIONS = (
    _T.SIMPLE_SCAN, _T.ADVANCED_SCAN, _T.HUMAN_ANALYSIS,
    _T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE,
)
PLC_ACTIONS = (_T.RESET_PLC, _T.REPLACE_PLC)


@dataclass(frozen=True)
class DefenderAction:
    """One defender decision; ``target`` indexes nodes or PLCs."""

    atype: DefenderActionType
    target: int | None = None

    @property
    def is_noop(self) -> bool:
        return self.atype is DefenderActionType.NOOP


NOOP = DefenderAction(DefenderActionType.NOOP)


def enumerate_actions(topology: Topology) -> list[DefenderAction]:
    """Full flat action list: NOOP, then per-node menus, then per-PLC.

    On the paper network this enumerates 329 actions -- matching the
    output dimension of the paper's baseline network (Table 7).
    """
    actions = [NOOP]
    for node in topology.nodes:
        menu = SERVER_ACTIONS if node.is_server else HOST_ACTIONS
        actions.extend(DefenderAction(a, node.node_id) for a in menu)
    for plc in topology.plcs:
        actions.extend(DefenderAction(a, plc.plc_id) for a in PLC_ACTIONS)
    return actions


#: id(action list) -> (the list, n_nodes, its positions); holding the
#: list keeps its id from being reused while the entry lives
_POSITIONS_CACHE: dict[int, tuple[object, int, np.ndarray]] = {}
_POSITIONS_CACHE_SIZE = 64
#: the always-free slot noop gathers from
_FREE_SLOT = np.zeros(1, dtype=bool)
_FREE_SLOT.flags.writeable = False


def action_busy_positions(actions: list[DefenderAction],
                          n_nodes: int) -> np.ndarray:
    """Where each action's target sits in ``[node_busy | plc_busy | free]``.

    A node action maps to its node, a PLC action to ``n_nodes + plc``,
    and noop to the trailing always-free slot (-1), so a validity mask
    over ``actions`` is one gather (:func:`action_mask_from_busy`).
    Shared by the environment's own mask and the RL stack's
    ``valid_action_mask``.

    Built once per action list: the cache is keyed by the list's
    identity, so action lists must not be mutated once built (none
    are: the env and ``bind_topology`` each build a fresh list). It
    holds at most 64 lists and is emptied when full.
    """
    entry = _POSITIONS_CACHE.get(id(actions))
    if entry is not None and entry[1] == n_nodes:
        return entry[2]
    positions = np.full(len(actions), -1, dtype=np.intp)
    for i, action in enumerate(actions):
        if action.is_noop:
            continue
        targets = DEFENDER_ACTION_SPECS[action.atype].targets
        if targets == "node":
            positions[i] = action.target
        elif targets == "plc":
            positions[i] = n_nodes + action.target
    positions.flags.writeable = False  # shared by every caller of the list
    if len(_POSITIONS_CACHE) >= _POSITIONS_CACHE_SIZE:
        _POSITIONS_CACHE.clear()
    _POSITIONS_CACHE[id(actions)] = (actions, n_nodes, positions)
    return positions


def action_mask_from_busy(positions: np.ndarray, node_busy: np.ndarray,
                          plc_busy: np.ndarray) -> np.ndarray:
    """Validity mask from :func:`action_busy_positions` and busy flags:
    an action is valid when its target is free (noop always is)."""
    busy = np.concatenate((node_busy, plc_busy, _FREE_SLOT))
    return np.logical_not(busy[positions])


def scan_detection_prob(
    spec: DefenderActionSpec,
    state: NetworkState,
    node_id: int,
    cleanup_effectiveness: float,
) -> float:
    """Detection probability of a completed investigation on a node.

    Zero when no malware is present (investigations never false-alarm).
    Advanced scans draw once per hour of their window; the equivalent
    completion-time probability 1 - (1-p)^duration is used.
    """
    if not state.is_compromised(node_id):
        return 0.0
    p = spec.detect_prob
    if state.has_condition(node_id, Condition.CLEANED):
        p *= 1.0 - cleanup_effectiveness
    if spec.per_hour_detection:
        p = 1.0 - (1.0 - p) ** spec.duration
    return p


def apply_mitigation(
    action: DefenderAction, state: NetworkState, topology: Topology
) -> bool:
    """Apply a completed mitigation. Returns True if state changed."""
    atype = action.atype
    if atype in (_T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE):
        node_id = action.target
        spec = DEFENDER_ACTION_SPECS[atype]
        if spec.countermeasure is not None and state.has_condition(
            node_id, spec.countermeasure
        ):
            return False
        # return the node to nominal: all compromise conditions are
        # removed except SCANNED, which models recon knowledge held by
        # the attacker rather than state on the machine (quarantine is
        # the action that invalidates recon, via the location change)
        had = bool(state.conditions[node_id, Condition.COMPROMISED])
        scanned = bool(state.conditions[node_id, Condition.SCANNED])
        state.clear_node(node_id)
        if scanned:
            state.conditions[node_id, Condition.SCANNED] = True
        return had

    if atype is _T.QUARANTINE:
        node_id = action.target
        node = topology.nodes[node_id]
        if node.ntype is NodeType.SERVER:
            return False  # servers cannot be quarantined
        if state.is_quarantined(node_id):
            state.move_node(node_id, node.home_vlan)
        else:
            state.move_node(node_id, topology.quarantine_vlan_for(node))
        return True

    if atype is _T.RESET_PLC:
        plc_id = action.target
        changed = bool(state.plc_disrupted[plc_id] or state.plc_firmware[plc_id])
        state.plc_disrupted[plc_id] = False
        state.plc_firmware[plc_id] = False
        return changed

    if atype is _T.REPLACE_PLC:
        plc_id = action.target
        changed = bool(
            state.plc_destroyed[plc_id]
            or state.plc_disrupted[plc_id]
            or state.plc_firmware[plc_id]
        )
        state.plc_destroyed[plc_id] = False
        state.plc_disrupted[plc_id] = False
        state.plc_firmware[plc_id] = False
        return changed

    raise ValueError(f"not a mitigation: {atype}")  # pragma: no cover
