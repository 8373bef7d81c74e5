"""The CLI's ``--policy`` and a served job's ``policy`` build from one
catalogue (:func:`repro.defenders.make_policy`)."""

import numpy as np
import pytest

import repro
from repro.cli import _make_policy
from repro.defenders import POLICY_NAMES, make_policy
from repro.nn import save_state
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.features import ACSOFeaturizer
from repro.serve import parse_job
from repro.serve.jobs import build_policy

TINY = "inasim-tiny-v1"


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_cli_and_serve_build_the_same_policy(name, tiny_tables, tmp_path):
    dbn, qnet = str(tmp_path / "dbn.npz"), str(tmp_path / "qnet.npz")
    tiny_tables.save(dbn)
    # weights unlike the seeded default, so loading them is observable
    save_state(AttentionQNetwork(QNetConfig(), seed=123), qnet)

    config = repro.get_scenario(TINY).build_config()
    from_cli = _make_policy(name, config, 4, dbn, qnet)
    from_serve = build_policy(parse_job({"scenario": TINY, "policy": name,
                                         "seed": 4, "dbn": dbn,
                                         "qnet": qnet}))
    assert type(from_cli) is type(from_serve)
    if name != "acso":
        return
    env = repro.make(TINY, seed=0)
    features = ACSOFeaturizer(env.topology, tiny_tables).update(
        env.reset(seed=0))
    q_cli = from_cli.qnet.bind_topology(env.topology).q_values(features)
    q_serve = from_serve.qnet.bind_topology(env.topology).q_values(features)
    np.testing.assert_array_equal(q_cli, q_serve)
    unloaded = AttentionQNetwork(QNetConfig(), seed=4)
    assert not np.array_equal(
        q_cli, unloaded.bind_topology(env.topology).q_values(features))


@pytest.mark.parametrize("name", ("noop", "playbook", "random"))
def test_table_loader_runs_only_for_table_policies(name):
    def load_tables():
        raise AssertionError("tables loaded for a policy that needs none")

    make_policy(name, 0, load_tables)
