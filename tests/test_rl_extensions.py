"""Tests for the RL extensions: dueling heads, distributional (C51)
learning, the DRQN baseline, windowed networks under the DQN trainer,
uniform replay, and the trainer ablation flags."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle
import repro
from repro.config import tiny_network
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    C51Config,
    C51Trainer,
    ConvQNetwork,
    DQNConfig,
    DRQNConfig,
    DistributionalAttentionQNetwork,
    DuelingAttentionQNetwork,
    DQNTrainer,
    QNetConfig,
    RecurrentQNetwork,
    UniformReplay,
    project_distribution,
    stack_features,
)
from repro.rl.features import RawHistoryEncoder
from repro.rl.replay import Transition

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)
FAST_DQN = DQNConfig(batch_size=8, warmup=8, update_every=2,
                     target_update=20, buffer_size=500, n_step=3)


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


class TestC51Projection:
    def test_identity_when_reward_zero_discount_one(self):
        c51 = C51Config(n_atoms=11, v_min=-5.0, v_max=5.0)
        probs = np.zeros((1, 11))
        probs[0, 3] = 1.0
        out = project_distribution(
            probs, np.zeros(1), np.ones(1), c51
        )
        assert np.allclose(out, probs)

    def test_terminal_collapses_to_reward_atom(self):
        c51 = C51Config(n_atoms=11, v_min=-5.0, v_max=5.0)
        probs = np.full((1, 11), 1.0 / 11)
        out = project_distribution(
            probs, np.array([2.0]), np.zeros(1), c51
        )
        # support spacing is 1.0; reward 2.0 sits exactly on atom 7
        assert out[0, 7] == pytest.approx(1.0)

    def test_mass_is_conserved(self):
        c51 = C51Config(n_atoms=21, v_min=-3.0, v_max=3.0)
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(21), size=16)
        out = project_distribution(
            probs, rng.normal(size=16), rng.uniform(0, 1, 16) ** 2, c51
        )
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()

    def test_rewards_beyond_support_clip_to_edges(self):
        c51 = C51Config(n_atoms=5, v_min=-1.0, v_max=1.0)
        probs = np.full((2, 5), 0.2)
        out = project_distribution(
            probs, np.array([100.0, -100.0]), np.zeros(2), c51
        )
        assert out[0, -1] == pytest.approx(1.0)
        assert out[1, 0] == pytest.approx(1.0)

    def test_mean_shifts_by_reward(self):
        """E[projected] ~ r + gamma E[next] inside the support."""
        c51 = C51Config(n_atoms=51, v_min=-10.0, v_max=10.0)
        probs = np.zeros((1, 51))
        probs[0, 25] = 1.0  # point mass at 0
        out = project_distribution(probs, np.array([1.5]), np.array([0.9]), c51)
        assert float((out @ c51.support)[0]) == pytest.approx(1.5, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_projection_always_simplex(self, seed):
        rng = np.random.default_rng(seed)
        c51 = C51Config(n_atoms=31, v_min=-8.0, v_max=8.0)
        probs = rng.dirichlet(np.ones(31), size=4)
        out = project_distribution(
            probs, rng.normal(scale=5, size=4),
            rng.uniform(0, 1, size=4), c51,
        )
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= -1e-12).all()


class TestC51Config:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            C51Config(v_min=1.0, v_max=-1.0)

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError):
            C51Config(n_atoms=1)

    def test_support_endpoints(self):
        c51 = C51Config(n_atoms=5, v_min=-2.0, v_max=2.0)
        assert c51.support[0] == -2.0
        assert c51.support[-1] == 2.0
        assert c51.delta_z == pytest.approx(1.0)


class TestDistributionalNetwork:
    def test_log_probs_shape_and_normalization(self, env, featurizer):
        c51 = C51Config(n_atoms=7, v_min=-3, v_max=3)
        net = DistributionalAttentionQNetwork(SMALL_QNET, seed=0, c51=c51)
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer)
        log_p = net.log_probs(node, plc, glob)
        assert log_p.shape == (2, env.n_actions, 7)
        assert np.allclose(np.exp(log_p.data).sum(axis=-1), 1.0)

    def test_forward_is_distribution_mean(self, env, featurizer):
        c51 = C51Config(n_atoms=7, v_min=-3, v_max=3)
        net = DistributionalAttentionQNetwork(SMALL_QNET, seed=0, c51=c51)
        net.bind_topology(env.topology)
        node, plc, glob = _features_batch(env, featurizer)
        q = net.forward(node, plc, glob).data
        probs = net.probs(node, plc, glob)
        assert np.allclose(q, (probs * c51.support).sum(axis=-1))
        assert (q >= c51.v_min - 1e-9).all() and (q <= c51.v_max + 1e-9).all()

    def test_clone_preserves_c51_config(self):
        c51 = C51Config(n_atoms=9, v_min=-1, v_max=1)
        net = DistributionalAttentionQNetwork(SMALL_QNET, seed=0, c51=c51)
        clone = net.clone(seed=5)
        assert clone.c51 == c51
        assert type(clone) is DistributionalAttentionQNetwork

    def test_trainer_rejects_scalar_network(self, env, featurizer):
        with pytest.raises(TypeError):
            C51Trainer(env, AttentionQNetwork(SMALL_QNET), featurizer, FAST_DQN)

    def test_c51_training_episode(self, env, featurizer):
        c51 = C51Config(n_atoms=11, v_min=-24, v_max=24)
        net = DistributionalAttentionQNetwork(SMALL_QNET, seed=0, c51=c51)
        trainer = C51Trainer(env, net, featurizer, FAST_DQN)
        stats = trainer.train(1, seed=0, max_steps=30)[-1]
        assert stats.steps == 30
        assert np.isfinite(stats.mean_loss)
        assert stats.mean_loss > 0  # cross-entropy is positive


class TestRecurrentQNetwork:
    def test_forward_shape(self):
        net = RecurrentQNetwork(10, 13, DRQNConfig(window=4, encoder_hidden=8,
                                                   gru_hidden=8, head_hidden=8))
        out = net.forward(np.zeros((3, 4, 10)))
        assert out.shape == (3, 13)

    def test_rejects_flat_input(self):
        net = RecurrentQNetwork(10, 13, DRQNConfig())
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 10)))

    def test_q_values_bounded_by_scale(self):
        cfg = DRQNConfig(window=4, encoder_hidden=8, gru_hidden=8,
                         head_hidden=8, q_scale=2.0)
        net = RecurrentQNetwork(6, 5, cfg)
        out = net.forward(np.random.default_rng(0).normal(size=(2, 4, 6)) * 50)
        assert (np.abs(out.data) <= 2.0).all()

    def test_history_order_matters(self):
        net = RecurrentQNetwork(6, 5, DRQNConfig(window=4, encoder_hidden=8,
                                                 gru_hidden=8, head_hidden=8))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 6))
        assert not np.allclose(
            net.forward(x).data, net.forward(x[:, ::-1, :].copy()).data
        )


class TestWindowedTrainer:
    """The conv and DRQN baselines train under ``DQNTrainer`` with a
    ``RawHistoryEncoder`` featurizer."""

    def _drqn(self, env, window=4):
        encoder = RawHistoryEncoder(env.topology, window=window)
        cfg = DRQNConfig(window=window, encoder_hidden=8, gru_hidden=8,
                         head_hidden=16)
        return RecurrentQNetwork(encoder.step_dim, env.n_actions, cfg)

    def _trainer(self, env, net, window=4):
        return DQNTrainer(env, net, RawHistoryEncoder(env.topology, window),
                          FAST_DQN)

    def test_drqn_episode_runs(self, env):
        trainer = self._trainer(env, self._drqn(env))
        stats = trainer.train(1, seed=0, max_steps=25)[-1]
        assert stats.steps == 25
        assert np.isfinite(stats.mean_loss)

    def test_conv_episode_runs(self, env):
        from repro.rl.qnetwork import ConvNetConfig

        encoder = RawHistoryEncoder(env.topology, window=16)
        net = ConvQNetwork(
            encoder.step_dim, env.n_actions,
            ConvNetConfig(window=16, channels=(8, 8), mlp_hidden=16),
        )
        trainer = self._trainer(env, net, window=16)
        stats = trainer.train(1, seed=0, max_steps=25)[-1]
        assert stats.steps == 25
        assert np.isfinite(stats.mean_loss)

    def test_rejects_step_dim_mismatch(self, env):
        net = RecurrentQNetwork(3, env.n_actions, DRQNConfig(window=4))
        with pytest.raises(ValueError, match="step_dim"):
            self._trainer(env, net)

    def test_rejects_action_count_mismatch(self, env):
        encoder = RawHistoryEncoder(env.topology, window=4)
        net = RecurrentQNetwork(encoder.step_dim, 3,
                                DRQNConfig(window=4))
        with pytest.raises(ValueError, match="n_actions"):
            self._trainer(env, net)

    def test_windowed_nets_use_the_env_action_order(self, env):
        trainer = self._trainer(env, self._drqn(env))
        assert trainer.qnet.action_list == env.action_list
        assert trainer.target.action_list == env.action_list

    def test_drqn_batches_time_first(self, env):
        net = self._drqn(env)
        windows = [np.arange(net.step_dim * 4, dtype=float).reshape(
            net.step_dim, 4) + k for k in range(2)]
        (batch,) = net.stack_states(windows)
        assert batch.shape == (2, 4, net.step_dim)
        assert np.array_equal(batch[1], windows[1].T)


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

    @pytest.mark.parametrize("trainer_cls", [DQNTrainer, C51Trainer])
    def test_update_resamples_online_and_target_noise(self, trainer_cls, env,
                                                      featurizer):
        """Every update draws fresh parameter noise for both networks,
        in the C51 trainer as in the DQN trainer."""
        qcfg = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                          head_hidden=16, noisy_heads=True)
        net_cls = (DistributionalAttentionQNetwork if trainer_cls is C51Trainer
                   else AttentionQNetwork)
        cfg = DQNConfig(batch_size=8, warmup=8, update_every=1000)
        trainer = trainer_cls(env, net_cls(qcfg, seed=0), featurizer, cfg)
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
