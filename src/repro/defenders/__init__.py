"""Defender policies: baselines from Section 5.1 plus the learned ACSO."""

from repro.defenders.base import DefenderPolicy, NoopPolicy
from repro.defenders.random_policy import SemiRandomPolicy
from repro.defenders.playbook import PlaybookPolicy
from repro.defenders.dbn_expert import DBNExpertPolicy
from repro.defenders.catalogue import POLICY_NAMES, TABLE_POLICIES, make_policy

__all__ = [
    "DefenderPolicy",
    "NoopPolicy",
    "SemiRandomPolicy",
    "PlaybookPolicy",
    "DBNExpertPolicy",
    "ACSOPolicy",
    "POLICY_NAMES",
    "TABLE_POLICIES",
    "make_policy",
]


def __getattr__(name):
    # ACSOPolicy pulls in the neural-network stack; import it lazily so
    # the light-weight baselines stay importable on their own.
    if name == "ACSOPolicy":
        from repro.defenders.acso import ACSOPolicy

        return ACSOPolicy
    raise AttributeError(name)
