"""Tests for the RL extensions: dueling heads, the conv baseline under
the DQN trainer, uniform replay, and the trainer ablation flags (noisy
heads among them)."""

import numpy as np
import pytest

import graph_oracle
import repro
from repro.config import tiny_network
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    ConvQNetwork,
    DQNConfig,
    DuelingAttentionQNetwork,
    DQNTrainer,
    QNetConfig,
    UniformReplay,
    stack_features,
)
from repro.rl.features import RawHistoryEncoder
from repro.rl.qnetwork import ConvNetConfig
from repro.rl.replay import Transition

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)
FAST_DQN = DQNConfig(batch_size=8, warmup=8, update_every=2,
                     target_update=20, buffer_size=500, n_step=3)
SMALL_CONV = ConvNetConfig(window=16, channels=(8, 8), mlp_hidden=16)


@pytest.fixture()
def env():
    return repro.make_env(tiny_network(tmax=60), seed=0)


@pytest.fixture()
def featurizer(env, tiny_tables):
    return ACSOFeaturizer(env.topology, tiny_tables)


def _features_batch(env, featurizer, batch=2, seed=0):
    obs = env.reset(seed=seed)
    featurizer.reset()
    return stack_features([featurizer.update(obs)] * batch)


class TestDuelingNetwork:
    def test_output_shape_matches_action_space(self, env, featurizer):
        net = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer, batch=3)
        q = net.forward(node, plc, glob)
        assert q.shape == (3, env.n_actions)

    def test_has_more_parameters_than_plain(self, env):
        plain = AttentionQNetwork(SMALL_QNET, seed=0)
        dueling = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        assert dueling.n_parameters() > plain.n_parameters()

    def test_parameter_count_independent_of_topology(self):
        from repro.config import paper_network
        from repro.net.topology import build_topology

        net = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        net.bind_topology(build_topology(tiny_network().topology))
        n_tiny = net.n_parameters()
        net.bind_topology(build_topology(paper_network().topology))
        assert net.n_parameters() == n_tiny

    def test_advantages_centered(self, env, featurizer):
        """Identical advantage across actions collapses to pure V."""
        net = DuelingAttentionQNetwork(
            QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                       head_hidden=16, final_tanh=False),
            seed=0,
        )
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer)
        q = net.forward(node, plc, glob).data
        # Q - V must be mean-zero per row by construction
        # V(s) from the per-op oracle's trunk (the network computes it
        # inside its single graph node)
        tokens, glob_t, batch = graph_oracle.contextualize(net, node, plc, glob)
        noop_ctx = graph_oracle.split_contexts(net, tokens)[3]
        value = graph_oracle.mlp(
            net.value_head, graph_oracle.with_global(noop_ctx, glob_t, batch)
        ).data.reshape(2, 1)
        assert np.allclose((q - value).mean(axis=1), 0.0, atol=1e-9)

    def test_gradients_reach_value_and_advantage_heads(self, env, featurizer):
        net = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer)
        q = net.forward(node, plc, glob)
        q.backward(2.0 * q.data)  # d/dq of sum(q * q)
        assert net.value_head.linears[0].weight.grad is not None
        assert net.host_head.linears[0].weight.grad is not None

    def test_trains_with_standard_trainer(self, env, featurizer):
        net = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        trainer = DQNTrainer(env, net, featurizer, FAST_DQN)
        stats = trainer.train(1, seed=0, max_steps=30)[-1]
        assert stats.steps == 30
        assert np.isfinite(stats.mean_loss)


class TestWindowedTrainer:
    """The conv baseline trains under ``DQNTrainer`` with a
    ``RawHistoryEncoder`` featurizer."""

    def _conv(self, env, step_dim=None, n_actions=None):
        encoder = RawHistoryEncoder(env.topology, window=SMALL_CONV.window)
        return ConvQNetwork(step_dim or encoder.step_dim,
                            n_actions or env.n_actions, SMALL_CONV)

    def _trainer(self, env, net):
        return DQNTrainer(env, net,
                          RawHistoryEncoder(env.topology, SMALL_CONV.window),
                          FAST_DQN)

    def test_conv_episode_runs(self, env):
        trainer = self._trainer(env, self._conv(env))
        stats = trainer.train(1, seed=0, max_steps=25)[-1]
        assert stats.steps == 25
        assert np.isfinite(stats.mean_loss)

    def test_rejects_step_dim_mismatch(self, env):
        with pytest.raises(ValueError, match="step_dim"):
            self._trainer(env, self._conv(env, step_dim=3))

    def test_rejects_action_count_mismatch(self, env):
        with pytest.raises(ValueError, match="n_actions"):
            self._trainer(env, self._conv(env, n_actions=3))

    def test_windowed_nets_use_the_env_action_order(self, env):
        trainer = self._trainer(env, self._conv(env))
        assert trainer.qnet.action_list == env.action_list
        assert trainer.target.action_list == env.action_list


class TestUniformReplay:
    def test_interface_parity_with_per(self):
        buf = UniformReplay(10, seed=0)
        tr = Transition(0, 0, 1.0, 1, False, 0.99)
        for _ in range(5):
            buf.add(tr)
        indices, transitions, weights = buf.sample(3)
        assert len(transitions) == 3
        assert np.allclose(weights, 1.0)
        buf.update_priorities(indices, [1.0, 2.0, 3.0])  # no-op

    def test_wraps_at_capacity(self):
        buf = UniformReplay(3, seed=0)
        for i in range(7):
            buf.add(Transition(i, 0, 0.0, 0, False, 1.0))
        assert len(buf) == 3
        kept = {buf._data[i].state for i in range(3)}
        assert kept == {4, 5, 6}

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            UniformReplay(4).sample(1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            UniformReplay(0)


class TestAblationFlags:
    def test_vanilla_dqn_flags(self, env, featurizer):
        cfg = DQNConfig(batch_size=8, warmup=8, update_every=2,
                        double_dqn=False, prioritized=False, n_step=1)
        net = AttentionQNetwork(SMALL_QNET, seed=0)
        trainer = DQNTrainer(env, net, featurizer, cfg)
        assert isinstance(trainer.replay, UniformReplay)
        stats = trainer.train(1, seed=0, max_steps=25)[-1]
        assert np.isfinite(stats.mean_loss)

    def test_noisy_exploration_episode(self, env, featurizer):
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        cfg = DQNConfig(batch_size=8, warmup=8, update_every=2)
        net = AttentionQNetwork(qcfg, seed=0)
        trainer = DQNTrainer(env, net, featurizer, cfg)
        stats = trainer.train(1, seed=0, max_steps=20)[-1]
        assert np.isfinite(stats.mean_loss)

    def test_noisy_network_explores_under_default_config(self, env,
                                                          featurizer):
        """The network decides the exploration: noisy heads under the
        default DQNConfig draw no epsilon coin from the trainer's RNG
        and act greedily under freshly resampled noise, even at
        epsilon 1."""
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        trainer = DQNTrainer(env, AttentionQNetwork(qcfg, seed=0),
                             featurizer, DQNConfig())
        obs = env.reset(seed=0)
        featurizer.reset()
        masks = env.action_mask()[None, :]
        layer = trainer.qnet.host_head.linears[0]
        noise = layer._eps_w.copy()
        rng_state = trainer.rng.bit_generator.state
        trainer.select_actions_vec([featurizer.update(obs)], masks,
                                   epsilon=1.0)
        assert trainer.rng.bit_generator.state == rng_state
        assert not np.array_equal(layer._eps_w, noise)

    def test_noisy_heads_have_sigma_parameters(self):
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        net = AttentionQNetwork(qcfg, seed=0)
        names = [n for n, _ in net.named_parameters()]
        assert any("weight_sigma" in n for n in names)

    def test_noisy_network_resets_noise(self, env, featurizer):
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        net = AttentionQNetwork(qcfg, seed=0)
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer)
        q1 = net.forward(node, plc, glob).data.copy()
        net.reset_noise()
        q2 = net.forward(node, plc, glob).data.copy()
        assert not np.allclose(q1, q2)

    def test_noise_disable_makes_deterministic(self, env, featurizer):
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        net = AttentionQNetwork(qcfg, seed=0)
        net.bind_topology(env.topology)
        net.set_noise_enabled(False)
        node, plc, glob = _features_batch(env, featurizer)
        q1 = net.forward(node, plc, glob).data.copy()
        net.reset_noise()
        q2 = net.forward(node, plc, glob).data.copy()
        assert np.allclose(q1, q2)

    def test_update_resamples_online_and_target_noise(self, env, featurizer):
        """Every update draws fresh parameter noise for both networks."""
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        cfg = DQNConfig(batch_size=8, warmup=8, update_every=1000)
        trainer = DQNTrainer(env, AttentionQNetwork(qcfg, seed=0), featurizer,
                             cfg)
        trainer.train(1, seed=0, max_steps=12)
        layers = [trainer.qnet.host_head.linears[0],
                  trainer.target.host_head.linears[0]]
        before = [layer._eps_w.copy() for layer in layers]
        trainer.update()
        for layer, eps in zip(layers, before):
            assert not np.array_equal(layer._eps_w, eps)

    def test_target_net_clones_subclass(self, env, featurizer):
        net = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        trainer = DQNTrainer(env, net, featurizer, FAST_DQN)
        assert type(trainer.target) is DuelingAttentionQNetwork
