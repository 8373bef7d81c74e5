"""Canonical compromise-state lattice for the DBN.

The six boolean conditions of Table 1 span 64 combinations, but the
prerequisite chain admits only a ladder of meaningful configurations.
The DBN tracks nine canonical states; reboot persistence is folded into
the cleaned states (a cleaned node is treated as needing re-imaging by
the expert policy, which is the conservative response).

The filter's transition model is conditioned on a defender action
category and on a bucketed summary statistic mu of the total number of
compromised nodes, approximating the intractable full joint update
(paper eq 7).
"""

from __future__ import annotations

import bisect
import enum

import numpy as np

from repro.net.nodes import Condition
from repro.sim.orchestrator import DefenderActionType

__all__ = [
    "CanonicalState",
    "N_STATES",
    "ActionCategory",
    "N_ACTION_CATEGORIES",
    "N_MU_BUCKETS",
    "SCAN_TYPE_INDEX",
    "canonical_states",
    "action_category",
    "mu_bucket",
]


class CanonicalState(enum.IntEnum):
    CLEAN = 0
    SCANNED = 1
    COMP = 2  # compromised, no persistence, no admin
    COMP_RB = 3  # compromised + reboot persistence
    ADMIN = 4  # admin access, no persistence beyond reboot=false
    ADMIN_RB = 5  # admin + reboot persistence
    ADMIN_CRED = 6  # credential persistence (reboot folded in)
    ADMIN_CLEANED = 7  # cleaned, no credential persistence
    ADMIN_CRED_CLEANED = 8  # cleaned + credential persistence


N_STATES = len(CanonicalState)

#: states whose compromise implies APT command and control
COMPROMISED_STATES = np.arange(CanonicalState.COMP, N_STATES)


class ActionCategory(enum.IntEnum):
    """Defender-action conditioning classes for the transition model."""

    NONE = 0
    INVESTIGATE = 1
    REBOOT = 2
    RESET_PASSWORD = 3
    REIMAGE = 4
    QUARANTINE = 5


N_ACTION_CATEGORIES = len(ActionCategory)

_CATEGORY_BY_TYPE = {
    DefenderActionType.SIMPLE_SCAN: ActionCategory.INVESTIGATE,
    DefenderActionType.ADVANCED_SCAN: ActionCategory.INVESTIGATE,
    DefenderActionType.HUMAN_ANALYSIS: ActionCategory.INVESTIGATE,
    DefenderActionType.REBOOT: ActionCategory.REBOOT,
    DefenderActionType.RESET_PASSWORD: ActionCategory.RESET_PASSWORD,
    DefenderActionType.REIMAGE: ActionCategory.REIMAGE,
    DefenderActionType.QUARANTINE: ActionCategory.QUARANTINE,
}

#: scan-likelihood table rows
SCAN_TYPE_INDEX = {
    DefenderActionType.SIMPLE_SCAN: 0,
    DefenderActionType.ADVANCED_SCAN: 1,
    DefenderActionType.HUMAN_ANALYSIS: 2,
}
N_SCAN_TYPES = len(SCAN_TYPE_INDEX)

#: mu (network compromise summary) bucket edges: 0, 1-2, 3-5, 6+
_MU_EDGES = (1, 3, 6)
N_MU_BUCKETS = len(_MU_EDGES) + 1


def action_category(atype: DefenderActionType) -> ActionCategory:
    return _CATEGORY_BY_TYPE.get(atype, ActionCategory.NONE)


def mu_bucket(n_compromised: float) -> int:
    """Bucket the (possibly expected) count of compromised nodes."""
    return bisect.bisect_right(_MU_EDGES, n_compromised)


def canonical_states(conditions: np.ndarray) -> np.ndarray:
    """Map a (nodes x conditions) boolean matrix to canonical state ids."""
    scanned = conditions[:, Condition.SCANNED]
    comp = conditions[:, Condition.COMPROMISED]
    rb = conditions[:, Condition.REBOOT_PERSIST]
    admin = conditions[:, Condition.ADMIN]
    cred = conditions[:, Condition.CRED_PERSIST]
    cleaned = conditions[:, Condition.CLEANED]

    out = np.zeros(conditions.shape[0], dtype=np.int64)
    out[scanned] = CanonicalState.SCANNED
    out[comp & ~rb] = CanonicalState.COMP
    out[comp & rb] = CanonicalState.COMP_RB
    out[admin & ~rb] = CanonicalState.ADMIN
    out[admin & rb] = CanonicalState.ADMIN_RB
    out[cred] = CanonicalState.ADMIN_CRED
    out[cleaned & ~cred] = CanonicalState.ADMIN_CLEANED
    out[cleaned & cred] = CanonicalState.ADMIN_CRED_CLEANED
    return out
