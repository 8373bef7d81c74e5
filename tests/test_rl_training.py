"""Tests for the DQN trainer, pretraining, and the ACSO policy."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.defenders import DBNExpertPolicy
from repro.defenders.acso import ACSOPolicy
from repro.nn import save_state
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    DQNConfig,
    DQNTrainer,
    QNetConfig,
    collect_demonstrations,
    pretrain,
)
from repro.rl.dqn import valid_action_mask
from repro.rl.features import stack_features
from repro.rl.pretrain import PretrainConfig
from repro.sim.orchestrator import DefenderActionType
from repro.sim.vec_env import VectorEnv

_T = DefenderActionType


@pytest.fixture()
def setup(tiny_tables):
    cfg = tiny_network(tmax=60)
    env = repro.make_env(cfg, seed=0)
    qnet = AttentionQNetwork(QNetConfig(), seed=1)
    feat = ACSOFeaturizer(env.topology, tiny_tables)
    return env, qnet, feat


class TestValidActionMask:
    def test_masks_busy_targets(self, setup):
        env, qnet, _ = setup
        qnet.bind_topology(env.topology)
        obs = env.reset(seed=0)
        obs.node_busy[0] = True
        obs.plc_busy[1] = True
        mask = valid_action_mask(qnet.action_list, obs)
        for i, action in enumerate(qnet.action_list):
            if action.is_noop:
                assert mask[i]
            elif action.atype in (_T.RESET_PLC, _T.REPLACE_PLC):
                assert mask[i] == (action.target != 1)
            else:
                assert mask[i] == (action.target != 0)

    def test_noop_always_valid(self, setup):
        env, qnet, _ = setup
        qnet.bind_topology(env.topology)
        obs = env.reset(seed=0)
        obs.node_busy[:] = True
        obs.plc_busy[:] = True
        mask = valid_action_mask(qnet.action_list, obs)
        assert mask[0]
        assert mask.sum() == 1


class TestDQNTrainer:
    def test_select_action_respects_mask(self, setup):
        env, qnet, feat = setup
        trainer = DQNTrainer(env, qnet, feat, DQNConfig(seed=0))
        obs = env.reset(seed=0)
        feat.reset()
        features = feat.update(obs)
        obs.node_busy[:] = True
        obs.plc_busy[:] = True
        masks = valid_action_mask(trainer.qnet.action_list, obs)[None]
        for eps in (0.0, 1.0):
            assert trainer.select_actions_vec([features], masks, eps) == [0]

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_full_exploration_runs_no_forward(self, setup, monkeypatch,
                                              lanes):
        """With epsilon 1 every lane explores, so collecting episodes
        never runs the Q-network (warm-up holds off the updates)."""
        env, qnet, feat = setup
        if lanes > 1:
            env = VectorEnv([env] + [repro.make_env(env.config, seed=i)
                                     for i in range(1, lanes)])
        trainer = DQNTrainer(env, qnet, feat,
                             DQNConfig(eps_start=1.0, eps_end=1.0,
                                       warmup=10_000, seed=0))
        calls = []
        forward = AttentionQNetwork.forward

        def counting(net, *args):
            calls.append(len(args[0]))
            return forward(net, *args)

        monkeypatch.setattr(AttentionQNetwork, "forward", counting)
        trainer.train(2, seed=0, max_steps=10)
        assert trainer.total_steps == 20
        assert calls == []

    def test_training_runs_and_records(self, setup):
        env, qnet, feat = setup
        cfg = DQNConfig(warmup=32, batch_size=16, update_every=8,
                        target_update=50, seed=0)
        trainer = DQNTrainer(env, qnet, feat, cfg)
        history = trainer.train(episodes=1, seed=5, max_steps=60)
        assert len(history) == 1
        stats = history[0]
        assert stats.steps == 60
        assert np.isfinite(stats.env_return)
        assert np.isfinite(stats.mean_loss)
        assert len(trainer.replay) > 0

    def test_update_returns_finite_loss_and_syncs_target(self, setup):
        env, qnet, feat = setup
        cfg = DQNConfig(warmup=16, batch_size=8, update_every=4,
                        target_update=20, seed=0)
        trainer = DQNTrainer(env, qnet, feat, cfg)
        trainer.train(episodes=1, seed=2, max_steps=40)
        loss = trainer.update()
        assert np.isfinite(loss)
        # after a manual sync the target matches the online net
        trainer.target.copy_from(trainer.qnet)
        for (_, a), (_, b) in zip(
            trainer.qnet.named_parameters(), trainer.target.named_parameters()
        ):
            assert np.allclose(a.data, b.data)

    def test_select_actions_vec_builds_no_graph(self, tiny_tables,
                                                monkeypatch):
        """Lockstep action selection is inference: it must record no
        autograd graph, and still pick the graph forward's greedy
        actions under the busy masks."""
        from repro.nn.tensor import Tensor

        venv = repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=20,
                              backend="sync")
        trainer = DQNTrainer(venv, AttentionQNetwork(QNetConfig(), seed=1),
                             ACSOFeaturizer(venv.topology, tiny_tables),
                             DQNConfig(seed=0))
        qnet = trainer.qnet
        features, masks = [], []
        for lane, obs in enumerate(venv.reset(seed=0)):
            obs.node_busy[lane::2] = True
            feat = ACSOFeaturizer(venv.topology, tiny_tables)
            feat.reset()
            features.append(feat.update(obs))
            masks.append(valid_action_mask(qnet.action_list, obs))
        masks = np.stack(masks)
        q = qnet.forward(*stack_features(features)).data
        expected = np.where(masks, q, -np.inf).argmax(axis=1)

        graph_tensors = []
        make = Tensor._make

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            if out.requires_grad:
                graph_tensors.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        chosen = trainer.select_actions_vec(features, masks, epsilon=0.0)
        assert len(graph_tensors) == 0
        np.testing.assert_array_equal(chosen, expected)
        venv.close()

    def test_shaping_weight_defaults_to_value_scale(self, setup):
        env, qnet, feat = setup
        trainer = DQNTrainer(env, qnet, feat, DQNConfig(seed=0))
        gamma = env.config.reward.gamma
        assert trainer.shaping_weight == pytest.approx(1.0 / (1.0 - gamma))
        trainer2 = DQNTrainer(env, AttentionQNetwork(QNetConfig(), seed=2),
                              feat, DQNConfig(seed=0, shaping_weight=3.0))
        assert trainer2.shaping_weight == 3.0


class TestPretraining:
    def test_demonstrations_collected(self, setup, tiny_tables):
        env, qnet, feat = setup
        expert = DBNExpertPolicy(tiny_tables, max_actions=1, seed=0)
        demos = collect_demonstrations(env, expert, feat, qnet, episodes=1,
                                       seed=0, max_steps=50)
        assert len(demos) == 50
        assert all(0 <= d.action < qnet.n_actions for d in demos)

    @pytest.mark.slow
    def test_pretrain_teaches_expert_actions(self, setup, tiny_tables):
        """After margin-heavy pretraining, the greedy action matches the
        demonstrated action on a majority of demo states."""
        env, qnet, feat = setup
        expert = DBNExpertPolicy(tiny_tables, max_actions=1, seed=0)
        demos = collect_demonstrations(env, expert, feat, qnet, episodes=2,
                                       seed=0, max_steps=60)
        cfg = PretrainConfig(iterations=300, lr=3e-3, margin_weight=4.0, seed=0)
        losses = pretrain(qnet, demos, cfg)
        assert len(losses) == 300
        from repro.rl import stack_features

        states = stack_features([d.state for d in demos])
        greedy = qnet.forward(*states).data.argmax(axis=1)
        actions = np.array([d.action for d in demos])
        agreement = (greedy == actions).mean()
        assert agreement > 0.5

    def test_pretrain_requires_demos(self, setup):
        _, qnet, _ = setup
        with pytest.raises(ValueError):
            pretrain(qnet, [], PretrainConfig(iterations=1))


class TestACSOPolicy:
    def test_act_returns_valid_actions(self, setup, tiny_tables):
        env, qnet, _ = setup
        policy = ACSOPolicy(qnet, tiny_tables)
        obs = env.reset(seed=0)
        policy.reset(env)
        for _ in range(10):
            actions = policy.act(obs)
            assert len(actions) <= 1
            obs, _, _, _ = env.step(actions)

    def test_from_file_roundtrip(self, setup, tiny_tables, tmp_path):
        env, qnet, _ = setup
        qnet.bind_topology(env.topology)
        path = tmp_path / "acso.npz"
        save_state(qnet, path)
        policy = ACSOPolicy.from_file(path, tiny_tables, QNetConfig())
        obs = env.reset(seed=0)
        policy.reset(env)
        reference = ACSOPolicy(qnet, tiny_tables)
        reference.reset(env)
        assert policy.act(obs) == reference.act(obs)

    def test_episodes_on_one_env_keep_the_binding(self, tiny_tables):
        """Episodes on the env already bound reuse its action list and
        featurizer (only the DBN restarts) and score as a fresh policy
        per episode does; binding the bound topology again keeps the
        binding, a network rebound to another topology elsewhere is
        bound back, and another topology binds afresh."""
        from repro.eval import evaluate_policy

        env = repro.make_env(tiny_network(tmax=40), seed=0)
        policy = ACSOPolicy(AttentionQNetwork(QNetConfig(), seed=1),
                            tiny_tables)
        _, reused = evaluate_policy(env, policy, 1, seed=3)
        actions, featurizer = policy.qnet.action_list, policy.featurizer
        _, second = evaluate_policy(env, policy, 1, seed=4)
        assert policy.qnet.action_list is actions
        assert policy.featurizer is featurizer
        fresh = [evaluate_policy(env, ACSOPolicy(
            AttentionQNetwork(QNetConfig(), seed=1), tiny_tables), 1,
            seed=seed)[1][0] for seed in (3, 4)]
        assert reused + second == fresh

        policy.qnet.bind_topology(env.topology)
        assert policy.qnet.action_list is actions
        other = repro.make_env(tiny_network(tmax=40), seed=0)
        policy.qnet.bind_topology(other.topology)  # rebound elsewhere
        policy.reset(env)
        assert policy.qnet.action_list is not actions
        assert policy.qnet.action_list == actions
        assert policy.featurizer is featurizer
        policy.reset(other)
        assert policy.featurizer is not featurizer
        assert policy.featurizer.topology is other.topology
