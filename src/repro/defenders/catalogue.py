"""The defender policies built by name.

``repro simulate --policy`` and a served job's ``policy`` field name a
policy from one catalogue, :data:`POLICY_NAMES`, and both build it with
:func:`make_policy`. Where the DBN tables come from stays with the
caller, which hands over a loader: the CLI's fits them on the fly when
no file is given, a service job must name a ``dbn`` artifact.
"""

from __future__ import annotations

from repro.defenders.base import NoopPolicy
from repro.defenders.dbn_expert import DBNExpertPolicy
from repro.defenders.playbook import PlaybookPolicy
from repro.defenders.random_policy import SemiRandomPolicy

__all__ = ["POLICY_NAMES", "TABLE_POLICIES", "make_policy"]

#: every policy name the CLI and the evaluation service accept
POLICY_NAMES = ("noop", "playbook", "random", "expert", "acso")
#: the policies that act on DBN beliefs and so need fitted tables
TABLE_POLICIES = ("expert", "acso")


def make_policy(name: str, seed: int, load_tables=None,
                qnet_path: str | None = None):
    """Build the defender policy ``name`` of :data:`POLICY_NAMES`.

    ``load_tables`` is a zero-argument callable returning
    :class:`~repro.dbn.DBNTables`; it is called only for the
    :data:`TABLE_POLICIES`, which require it. ``acso`` runs a default
    :class:`~repro.rl.QNetConfig` network seeded ``seed``, with the
    weights at ``qnet_path`` loaded when one is given.
    """
    if name == "noop":
        return NoopPolicy()
    if name == "playbook":
        return PlaybookPolicy()
    if name == "random":
        return SemiRandomPolicy(seed=seed)
    if name not in TABLE_POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if load_tables is None:
        raise ValueError(f"policy {name!r} needs DBN tables")
    tables = load_tables()
    if name == "expert":
        return DBNExpertPolicy(tables, seed=seed)
    from repro.defenders.acso import ACSOPolicy
    from repro.rl import AttentionQNetwork, QNetConfig

    qnet = AttentionQNetwork(QNetConfig(), seed=seed)
    if qnet_path:
        from repro.nn import load_state

        load_state(qnet, qnet_path)
    return ACSOPolicy(qnet, tables)
