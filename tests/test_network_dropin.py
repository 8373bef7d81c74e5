"""Drop-in and serialization contracts for the attention Q-network.

The network must (a) serialize and reload bit-exactly, (b) plug into
the greedy ACSO policy unchanged, and (c) keep its parameter count
independent of the bound topology. These are the contracts the transfer
machinery silently relies on.
"""

import numpy as np
import pytest

import repro
from repro.config import small_network, tiny_network
from repro.defenders.acso import ACSOPolicy
from repro.eval import run_episode
from repro.net.topology import build_topology
from repro.nn import load_state, save_state
from repro.rl import AttentionQNetwork, QNetConfig

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)


def _variants():
    return [
        ("plain", AttentionQNetwork(SMALL_QNET, seed=0)),
    ]


class TestSerialization:
    @pytest.mark.parametrize("name,net", _variants(),
                             ids=[n for n, _ in _variants()])
    def test_state_roundtrip(self, tmp_path, name, net):
        path = tmp_path / f"{name}.npz"
        save_state(net, path)
        fresh = net.clone(seed=99)
        load_state(fresh, path)
        for key, value in net.state_dict().items():
            assert np.array_equal(fresh.state_dict()[key], value), key

    @pytest.mark.parametrize("name,net", _variants(),
                             ids=[n for n, _ in _variants()])
    def test_loaded_network_predicts_identically(self, tmp_path, name, net):
        topo = build_topology(tiny_network().topology)
        net.bind_topology(topo)
        path = tmp_path / f"{name}.npz"
        save_state(net, path)
        fresh = net.clone(seed=99)
        load_state(fresh, path)
        fresh.bind_topology(topo)
        rng = np.random.default_rng(0)
        from repro.rl.features import (
            GLOBAL_FEATURE_DIM,
            NODE_FEATURE_DIM,
            PLC_FEATURE_DIM,
        )

        node = rng.random((1, topo.n_nodes, NODE_FEATURE_DIM))
        plc = rng.random((1, topo.n_plcs, PLC_FEATURE_DIM))
        glob = rng.random((1, GLOBAL_FEATURE_DIM))
        assert np.allclose(
            net.forward(node, plc, glob).data,
            fresh.forward(node, plc, glob).data,
        )


class TestDropInPolicy:
    @pytest.mark.parametrize("name,net", _variants(),
                             ids=[n for n, _ in _variants()])
    def test_acso_policy_accepts_every_variant(self, tiny_tables, name, net):
        env = repro.make_env(tiny_network(tmax=15), seed=0)
        policy = ACSOPolicy(net, tiny_tables)
        metrics = run_episode(env, policy, seed=0, max_steps=15)
        assert np.isfinite(metrics.discounted_return)


class TestSizeInvariance:
    @pytest.mark.parametrize("name,net", _variants(),
                             ids=[n for n, _ in _variants()])
    def test_parameter_count_constant_across_topologies(self, name, net):
        net.bind_topology(build_topology(tiny_network().topology))
        count = net.n_parameters()
        net.bind_topology(build_topology(small_network().topology))
        assert net.n_parameters() == count

    def test_clone_has_same_shape_different_weights(self):
        net = AttentionQNetwork(SMALL_QNET, seed=0)
        clone = net.clone(seed=1)
        assert clone.n_parameters() == net.n_parameters()
        same = all(
            np.array_equal(a, clone.state_dict()[k])
            for k, a in net.state_dict().items()
        )
        assert not same  # different seeds must re-initialize
