"""Tests for the vectorized environment and batched evaluation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.defenders import NoopPolicy, PlaybookPolicy
from repro.eval import evaluate_policy, evaluate_policy_vec
from repro.rl import AttentionQNetwork
from repro.rl.dqn import valid_action_mask
from repro.sim.observations import Observation
from repro.sim.orchestrator import DEFENDER_ACTION_SPECS
from repro.sim.vec_env import VectorEnv


def _tiny_vec(num_envs=3, seed=0, horizon=40, backend="sync", **kwargs):
    """The sync oracle (``VectorEnv``) unless a test names the engine."""
    return repro.make_vec("inasim-tiny-v1", num_envs, seed=seed,
                          horizon=horizon, backend=backend, **kwargs)


def _rollout(venv, steps, seed):
    venv.reset(seed=seed)
    rewards, dones = [], []
    for _ in range(steps):
        step = venv.step(None)
        rewards.append(step.rewards)
        dones.append(step.dones)
    return np.stack(rewards), np.stack(dones)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            VectorEnv([])

    def test_rejects_mixed_action_spaces(self):
        tiny = repro.make("inasim-tiny-v1")
        small = repro.make("inasim-small-v1")
        with pytest.raises(ValueError, match="action space"):
            VectorEnv([tiny, small])

    def test_delegating_properties(self):
        venv = _tiny_vec(2)
        assert venv.num_envs == len(venv) == 2
        assert venv.n_actions == venv.envs[0].n_actions
        assert venv.topology is venv.envs[0].topology
        assert venv.config.tmax == 40


class TestDeterminism:
    def test_same_seeds_same_batched_trajectories(self):
        r1, d1 = _rollout(_tiny_vec(3), steps=40, seed=5)
        r2, d2 = _rollout(_tiny_vec(3), steps=40, seed=5)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(d1, d2)

    def test_lanes_are_independent_episodes(self):
        venv = _tiny_vec(2, seed=0)
        venv.reset(seed=0)
        single = repro.make("inasim-tiny-v1", seed=0, horizon=40)
        # lane i is seeded seed + i: lane 1 must match a solo env run
        # with seed 1, stepped identically
        single.reset(seed=1)
        for _ in range(20):
            step = venv.step(None)
            _, r, _, _ = single.step(None)
            assert step.rewards[1] == r


class TestStepBatches:
    def test_shapes(self):
        venv = _tiny_vec(4)
        obs = venv.reset(seed=0)
        assert len(obs) == 4
        step = venv.step(None)
        assert step.rewards.shape == (4,)
        assert step.dones.shape == (4,)
        assert step.dones.dtype == bool
        assert len(step.observations) == len(step.infos) == 4

    def test_unpacks_like_gym(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        obs, rewards, dones, infos = venv.step(None)
        assert len(obs) == 2 and rewards.shape == (2,)

    def test_integer_action_batch(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        step = venv.step(np.array([1, 2]))
        launched = [info["launched"] for info in step.infos]
        assert launched[0] == [venv.action_list[1]]
        assert launched[1] == [venv.action_list[2]]

    def test_wrong_action_count_rejected(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        with pytest.raises(ValueError, match="expected 2 actions"):
            venv.step([None, None, None])

    def test_mask_skips_lanes(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        before = venv.envs[0].t
        step = venv.step(None, mask=[False, True])
        assert venv.envs[0].t == before  # lane 0 untouched
        assert venv.envs[1].t == before + 1
        assert step.dones[0] and step.rewards[0] == 0.0


class TestAutoReset:
    def test_auto_reset_on_done(self):
        venv = _tiny_vec(2, seed=0, horizon=10)
        venv.reset(seed=0)
        for _ in range(9):
            step = venv.step(None)
            assert not step.dones.any()
        step = venv.step(None)
        assert step.dones.all()
        for i in range(2):
            assert step.infos[i]["final_observation"].t == 10
            assert step.observations[i].t == 0  # fresh episode
        # the next episode advances from hour 0 again
        step = venv.step(None)
        assert not step.dones.any()
        assert all(obs.t == 1 for obs in step.observations)

    def test_auto_reset_seeds_are_fresh_and_deterministic(self):
        def returns_of(venv):
            venv.reset(seed=0)
            out = []
            for _ in range(25):
                out.append(venv.step(None).rewards.copy())
            return np.stack(out)

        a = returns_of(_tiny_vec(2, horizon=10))
        b = returns_of(_tiny_vec(2, horizon=10))
        np.testing.assert_array_equal(a, b)

    def test_auto_reset_disabled(self):
        venv = _tiny_vec(1, seed=0, horizon=10, auto_reset=False)
        venv.reset(seed=0)
        for _ in range(10):
            step = venv.step(None)
        assert step.dones[0]
        assert step.observations[0].t == 10  # terminal obs, no reset
        assert "final_observation" not in step.infos[0]


def _record_reset_seeds(venv):
    """Wrap each lane's env.reset so every seed it receives is logged."""
    log = [[] for _ in range(venv.num_envs)]

    def wrap(i, env):
        orig = env.reset

        def reset(seed=None):
            log[i].append(seed)
            return orig(seed=seed)

        env.reset = reset

    for i, env in enumerate(venv.envs):
        wrap(i, env)
    return log


class TestReseedSchedule:
    """Pin the ``seed + i + num_envs * episode`` schedule.

    Regression tests for the reseed bookkeeping: the initial reset,
    auto-resets and manual ``reset_env`` calls must all draw from one
    collision-free schedule, with manual resets advancing the same
    counter as auto-resets so the stream stays uninterrupted.
    """

    BASE, N, HORIZON = 100, 3, 10

    def _run(self, steps, backend="sync"):
        venv = _tiny_vec(self.N, seed=self.BASE, horizon=self.HORIZON,
                         backend=backend)
        log = _record_reset_seeds(venv)
        venv.reset(seed=self.BASE)
        for _ in range(steps):
            venv.step(None)
        return venv, log

    @pytest.mark.parametrize("backend", ["sync", "batched"])
    def test_auto_reset_schedule_formula(self, backend):
        # 25 steps with horizon 10 => episodes 0, 1 and part of 2
        _, log = self._run(25, backend=backend)
        for i in range(self.N):
            assert log[i] == [self.BASE + i + self.N * k for k in range(3)]

    def test_reset_env_stays_on_schedule(self):
        # a manual mid-run reset_env must slot into the same stream the
        # auto-resets draw from, not fork a parallel one
        venv, log = self._run(5)
        venv.reset_env(1, seed=None)           # episode 1, manual
        for _ in range(25):                    # episodes 2, 3 via auto-reset
            venv.step(None)
        assert log[1][:4] == [self.BASE + 1 + self.N * k for k in range(4)]
        # untouched lanes are unaffected by lane 1's manual reset
        assert log[0][:2] == [self.BASE + 0, self.BASE + 0 + self.N]

    def test_reset_env_explicit_seed_still_advances_schedule(self):
        venv, log = self._run(0)
        venv.reset_env(0, seed=9999)           # consumes episode slot 1
        venv.reset_env(0, seed=None)           # so this draws slot 2
        assert log[0] == [self.BASE, 9999, self.BASE + 2 * self.N]


@functools.lru_cache(maxsize=None)
def _mask_fixture(scenario):
    """A reset env of ``scenario`` and a Q-network action list for it."""
    env = repro.make(scenario)
    env.reset(seed=0)
    qnet = AttentionQNetwork().bind_topology(env.topology)
    return env, qnet.action_list


def _loop_mask(action_list, obs):
    """The per-action loop ``valid_action_mask`` used to be (oracle)."""
    mask = np.ones(len(action_list), dtype=bool)
    for i, action in enumerate(action_list):
        if action.is_noop:
            continue
        spec = DEFENDER_ACTION_SPECS[action.atype]
        if spec.targets == "node":
            mask[i] = not obs.node_busy[action.target]
        elif spec.targets == "plc":
            mask[i] = not obs.plc_busy[action.target]
    return mask


class TestActionMasks:
    def test_shape_and_noop_valid(self):
        venv = _tiny_vec(3)
        venv.reset(seed=0)
        masks = venv.action_masks()
        assert masks.shape == (3, venv.n_actions)
        assert masks.all()  # nothing busy at reset

    def test_busy_target_masked(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        venv.step(np.array([1, 0]))  # env 0 launches a real action
        masks = venv.action_masks()
        env_mask = venv.envs[0].action_mask()
        np.testing.assert_array_equal(masks[0], env_mask)
        assert not masks[0].all()

    @given(scenario=st.sampled_from(["inasim-tiny-v1", "inasim-small-v1",
                                     "inasim-paper-v1"]),
           density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_rl_stack_mask(self, scenario, density, seed):
        """The RL stack's gathered mask equals the env's own mask and
        the per-action loop it replaced, on random busy vectors, for
        the env's action list and the Q-network's (which orders hosts
        before servers)."""
        env, qnet_actions = _mask_fixture(scenario)
        state = env.sim.state
        rng = np.random.default_rng(seed)
        for until in (state.node_busy_until, state.plc_busy_until):
            busy = rng.random(len(until)) < density
            until[:] = state.t + busy * rng.integers(1, 24, len(until))
        obs = Observation(t=state.t, node_busy=state.node_busy_until > state.t,
                          plc_busy=state.plc_busy_until > state.t)

        env_mask = env.action_mask()
        for actions in (env.action_list, qnet_actions):
            mask = valid_action_mask(actions, obs)
            np.testing.assert_array_equal(mask, _loop_mask(actions, obs))
            np.testing.assert_array_equal(
                mask, env_mask[[env.action_index[a] for a in actions]]
            )

    def test_sample_actions_are_valid(self):
        venv = _tiny_vec(2)
        venv.reset(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            actions = venv.sample_actions(rng)
            masks = venv.action_masks()
            assert all(masks[i, a] for i, a in enumerate(actions))
            venv.step(actions)


class TestEvaluatePolicyVec:
    @pytest.mark.parametrize("num_envs", [1, 2, 3])
    def test_matches_single_env_playbook(self, num_envs):
        env = repro.make("inasim-tiny-v1", seed=0, horizon=40)
        agg_s, eps_s = evaluate_policy(env, PlaybookPolicy(), 4, seed=0)
        venv = _tiny_vec(num_envs, seed=0)
        agg_v, eps_v = evaluate_policy_vec(venv, PlaybookPolicy(), 4, seed=0)
        assert eps_s == eps_v
        assert agg_s.mean("discounted_return") == agg_v.mean("discounted_return")

    def test_matches_single_env_with_max_steps(self):
        env = repro.make("inasim-tiny-v1", seed=0, horizon=40)
        _, eps_s = evaluate_policy(env, NoopPolicy(), 3, seed=7, max_steps=15)
        venv = _tiny_vec(2, seed=0)
        _, eps_v = evaluate_policy_vec(venv, NoopPolicy(), 3, seed=7,
                                       max_steps=15)
        assert eps_s == eps_v

    def test_policy_factory_accepted(self):
        venv = _tiny_vec(2, seed=0)
        agg, eps = evaluate_policy_vec(venv, PlaybookPolicy, 2, seed=0,
                                       max_steps=10)
        assert len(eps) == 2

    def test_restores_auto_reset_flag(self):
        venv = _tiny_vec(2, seed=0)
        assert venv.auto_reset
        evaluate_policy_vec(venv, NoopPolicy(), 2, seed=0, max_steps=5)
        assert venv.auto_reset

    def test_rejects_non_policy(self):
        venv = _tiny_vec(1, seed=0)
        with pytest.raises(TypeError):
            evaluate_policy_vec(venv, object(), 1)


class TestVecDQNTraining:
    def test_collects_from_all_lanes(self, tiny_tables):
        from repro.rl import AttentionQNetwork, QNetConfig
        from repro.rl.dqn import DQNConfig, DQNTrainer
        from repro.rl.features import ACSOFeaturizer

        venv = _tiny_vec(2, seed=0, horizon=30)
        qnet = AttentionQNetwork(QNetConfig(), seed=0)
        trainer = DQNTrainer(
            venv, qnet, ACSOFeaturizer(venv.topology, tiny_tables),
            DQNConfig(warmup=16, batch_size=8, update_every=4, seed=0),
        )
        history = trainer.train(episodes=3, seed=0, max_steps=25)
        assert [s.episode for s in history] == [0, 1, 2]
        assert all(s.steps == 25 for s in history)
        assert trainer.total_steps == 75
        assert all(np.isfinite(s.env_return) for s in history)
        assert any(s.mean_loss != 0.0 for s in history)
