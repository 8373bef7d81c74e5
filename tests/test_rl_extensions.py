"""Tests for the RL extensions: the conv baseline under the DQN trainer,
uniform replay, and the trainer ablation flags."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    ConvQNetwork,
    DQNConfig,
    DQNTrainer,
    QNetConfig,
    UniformReplay,
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

    @pytest.mark.parametrize("kwargs", [{"alpha": 0.6}, {"sead": 1}])
    def test_rejects_unknown_keywords(self, kwargs):
        """A keyword it does not take (a prioritized-replay one, or a
        misspelling) is an error, not silently dropped."""
        with pytest.raises(TypeError):
            UniformReplay(4, **kwargs)


class TestAblationFlags:
    def test_vanilla_dqn_flags(self, env, featurizer):
        cfg = DQNConfig(batch_size=8, warmup=8, update_every=2,
                        double_dqn=False, prioritized=False, n_step=1)
        net = AttentionQNetwork(SMALL_QNET, seed=0)
        trainer = DQNTrainer(env, net, featurizer, cfg)
        assert isinstance(trainer.replay, UniformReplay)
        stats = trainer.train(1, seed=0, max_steps=25)[-1]
        assert np.isfinite(stats.mean_loss)

    def test_target_net_clones_subclass(self, env):
        encoder = RawHistoryEncoder(env.topology, window=SMALL_CONV.window)
        net = ConvQNetwork(encoder.step_dim, env.n_actions, SMALL_CONV)
        trainer = DQNTrainer(env, net, encoder, FAST_DQN)
        assert type(trainer.target) is ConvQNetwork
        assert trainer.target is not net
        assert trainer.target.config == net.config
