"""Tests for off-policy evaluation: logging, IS estimators, FQE,
doubly-robust, and confidence bounds.

Estimator math is verified through :func:`run_ope_suite` on hand-built
logs with known probabilities (exact arithmetic, see
``ope_hand_logs.py``), then integration-tested on the tiny network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from ope_hand_logs import (
    NO_FIT,
    FixedPolicy,
    bandit_episode,
    hand_log,
    hand_suite,
)
from repro.config import tiny_network
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.features import FeatureSet
from repro.validation import (
    BehaviorSupportError,
    LoggedEpisode,
    StochasticQPolicy,
    UniformRandomPolicy,
    bootstrap_ci,
    collect_logged_episodes,
    effective_sample_size,
    empirical_bernstein_lower_bound,
    fitted_q_evaluation,
    run_ope_suite,
)

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)


class TestStepRatios:
    """A one-step episode's OIS value is its ratio times its reward."""

    def test_ratio_values(self):
        episode = bandit_episode(action=0, behavior_prob=0.5, reward=1.0)
        report = hand_suite([episode], FixedPolicy([1.0, 0.0]))
        assert report["OIS"].estimate == 2.0

    def test_zero_behavior_prob_raises(self):
        episode = bandit_episode(action=0, behavior_prob=0.0, reward=1.0)
        with pytest.raises(BehaviorSupportError):
            hand_suite([episode], FixedPolicy([1.0, 0.0]))

    def test_clipping(self):
        episode = bandit_episode(action=0, behavior_prob=0.01, reward=1.0)
        report = hand_suite([episode], FixedPolicy([1.0, 0.0]), clip=5.0)
        assert report["OIS"].estimate == 5.0
        assert report.clip == 5.0


class TestOrdinaryIS:
    def test_exact_two_arm_bandit(self):
        """b uniform over 2 arms, pi always arm 0, r = 1[arm 0].
        OIS over one episode of each arm: (2*1 + 0*0)/2 = 1 = V(pi)."""
        episodes = [
            bandit_episode(0, 0.5, 1.0),
            bandit_episode(1, 0.5, 0.0),
        ]
        result = hand_suite(episodes, FixedPolicy([1.0, 0.0]))["OIS"]
        assert result.estimate == pytest.approx(1.0)
        assert result.method == "OIS"

    def test_on_policy_recovers_mean_return(self):
        """pi == b makes every weight 1: the estimate is the sample mean."""
        episodes = [
            bandit_episode(0, 0.5, 2.0),
            bandit_episode(1, 0.5, 4.0),
        ]
        result = hand_suite(episodes, FixedPolicy([0.5, 0.5]))["OIS"]
        assert result.estimate == pytest.approx(3.0)
        assert result.ess == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hand_suite([], FixedPolicy([1.0]))


class TestWeightedIS:
    def test_self_normalization(self):
        """WIS divides by the weight sum: only arm-0 episodes count."""
        episodes = [
            bandit_episode(0, 0.5, 1.0),
            bandit_episode(1, 0.5, 0.0),
            bandit_episode(0, 0.5, 1.0),
        ]
        result = hand_suite(episodes, FixedPolicy([1.0, 0.0]))["WIS"]
        assert result.estimate == pytest.approx(1.0)
        assert result.ess == pytest.approx(2.0)

    def test_all_zero_weights_gives_zero(self):
        episodes = [bandit_episode(1, 0.5, 5.0)]
        result = hand_suite(episodes, FixedPolicy([1.0, 0.0]))["WIS"]
        assert result.estimate == 0.0
        assert result.ess == 0.0

    def test_bounded_by_observed_returns(self):
        """WIS is a convex combination of observed returns."""
        rng = np.random.default_rng(0)
        episodes = [
            bandit_episode(int(rng.integers(2)), 0.5, float(rng.normal()))
            for _ in range(20)
        ]
        result = hand_suite(episodes, FixedPolicy([0.7, 0.3]))["WIS"]
        returns = [ep.discounted_return() for ep in episodes]
        assert min(returns) - 1e-9 <= result.estimate <= max(returns) + 1e-9


class TestPerDecisionIS:
    def test_two_step_hand_computation(self):
        """gamma=0.5, ratios (2, 0.5), rewards (1, 4):
        PDIS = 1*2*1 + 0.5*(2*0.5)*4 = 2 + 2 = 4."""
        episode = hand_log(actions=[0, 1], behavior_probs=[0.5, 0.8],
                           rewards=[1.0, 4.0], gamma=0.5)
        target = FixedPolicy([1.0, 0.4])
        result = hand_suite([episode], target)["PDIS"]
        assert result.estimate == pytest.approx(4.0)

    def test_matches_ois_for_single_step(self):
        episodes = [bandit_episode(0, 0.25, 3.0)]
        report = hand_suite(episodes, FixedPolicy([0.5, 0.5]))
        assert report["PDIS"].estimate == pytest.approx(report["OIS"].estimate)

    def test_later_ratio_does_not_affect_early_reward(self):
        """Unlike OIS, PDIS does not punish reward at t=0 with the
        ratio at t=1."""
        def make(behavior_second):
            return hand_log([0, 1], [0.5, behavior_second], [10.0, 0.0])

        target = FixedPolicy([0.5, 0.5])
        a = hand_suite([make(0.9)], target)["PDIS"]
        b = hand_suite([make(0.1)], target)["PDIS"]
        assert a.estimate == pytest.approx(b.estimate)


class TestEffectiveSampleSize:
    def test_uniform_weights_full_ess(self):
        assert effective_sample_size(np.ones(10)) == pytest.approx(10.0)

    def test_degenerate_weights_ess_one(self):
        weights = np.zeros(10)
        weights[3] = 5.0
        assert effective_sample_size(weights) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert effective_sample_size(np.zeros(4)) == 0.0

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_ess_bounded_by_n(self, weights):
        ess = effective_sample_size(np.array(weights))
        assert 1.0 - 1e-9 <= ess <= len(weights) + 1e-9


class TestConfidence:
    def test_bootstrap_brackets_the_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, size=200)
        mean, lower, upper = bootstrap_ci(values, alpha=0.05, seed=1)
        assert lower <= mean <= upper
        assert mean == pytest.approx(values.mean())

    def test_bootstrap_interval_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=10)
        large = np.concatenate([small] * 40)
        _, l1, u1 = bootstrap_ci(small, seed=2)
        _, l2, u2 = bootstrap_ci(large, seed=2)
        assert (u2 - l2) < (u1 - l1)

    def test_bootstrap_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bernstein_bound_below_mean(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=50)
        bound = empirical_bernstein_lower_bound(values, delta=0.05,
                                                value_range=1.0)
        assert bound < values.mean()

    def test_bernstein_bound_tightens_with_n(self):
        rng = np.random.default_rng(4)
        small = rng.uniform(0, 1, size=20)
        large = np.tile(small, 50)
        b_small = empirical_bernstein_lower_bound(small, value_range=1.0)
        b_large = empirical_bernstein_lower_bound(large, value_range=1.0)
        assert b_large > b_small

    def test_bernstein_needs_two_values(self):
        with pytest.raises(ValueError):
            empirical_bernstein_lower_bound([1.0])

    def test_bernstein_zero_variance_constant_values(self):
        values = np.full(100, 5.0)
        bound = empirical_bernstein_lower_bound(values, value_range=0.0)
        assert bound == pytest.approx(5.0)


@pytest.fixture()
def logged_setup(tiny_tables):
    cfg = tiny_network(tmax=30)
    env = repro.make_env(cfg, seed=0)
    qnet = AttentionQNetwork(SMALL_QNET, seed=1)
    qnet.bind_topology(env.topology)
    behavior = StochasticQPolicy(qnet, tiny_tables, temperature=1.0,
                                 epsilon=0.3, seed=5)
    episodes = collect_logged_episodes(env, behavior, episodes=3, seed=0,
                                       max_steps=30)
    return env, qnet, behavior, episodes, tiny_tables


def first_state(episode: LoggedEpisode):
    """The first logged state and its mask, unstacked."""
    return (FeatureSet(node=episode.features.node[0],
                       plc=episode.features.plc[0],
                       glob=episode.features.glob[0]),
            episode.masks[0])


class TestLogging:
    def test_episode_structure(self, logged_setup):
        _, _, _, episodes, _ = logged_setup
        assert len(episodes) == 3
        for episode in episodes:
            assert len(episode) == 30
            assert episode.final_features is not None
            assert (episode.behavior_probs > 0).all()
            assert (episode.behavior_probs <= 1.0 + 1e-12).all()

    def test_logged_prob_is_the_policys_probability(self, logged_setup):
        _, _, behavior, episodes, _ = logged_setup
        features, mask = first_state(episodes[0])
        action = episodes[0].actions[0]
        assert behavior.action_probs(features, mask)[action] \
            == episodes[0].behavior_probs[0]

    def test_steps_is_a_read_only_view_of_the_columns(self, logged_setup):
        _, _, _, episodes, _ = logged_setup
        steps = episodes[0].steps
        assert [(s.action, s.behavior_prob, s.reward) for s in steps] \
            == list(zip(episodes[0].actions, episodes[0].behavior_probs,
                        episodes[0].rewards))
        with pytest.raises(ValueError):
            steps[0].reward = 0.0

    def test_probs_are_normalized_distributions(self, logged_setup):
        _, _, behavior, episodes, _ = logged_setup
        features, mask = first_state(episodes[0])
        probs = behavior.action_probs(features, mask)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs[~mask] == pytest.approx(0.0, abs=1e-12))

    def test_epsilon_guarantees_support(self, logged_setup):
        _, _, behavior, episodes, _ = logged_setup
        features, mask = first_state(episodes[0])
        probs = behavior.action_probs(features, mask)
        n_valid = int(mask.sum())
        floor = behavior.epsilon / n_valid
        assert (probs[mask] >= floor - 1e-12).all()

    def test_greedy_policy_without_epsilon_is_degenerate(self, logged_setup):
        env, qnet, _, episodes, tables = logged_setup
        greedy = StochasticQPolicy(qnet, tables, temperature=None, epsilon=0.0)
        features, mask = first_state(episodes[0])
        probs = greedy.action_probs(features, mask)
        assert probs.max() == pytest.approx(1.0)
        assert (probs > 0).sum() == 1

    def test_uniform_policy_probs(self, logged_setup):
        env, qnet, _, episodes, tables = logged_setup
        uniform = UniformRandomPolicy(qnet, tables)
        features, mask = first_state(episodes[0])
        probs = uniform.action_probs(features, mask)
        n_valid = int(mask.sum())
        assert probs[mask] == pytest.approx(1.0 / n_valid)

    def test_rejects_bad_temperature(self, logged_setup):
        _, qnet, _, _, tables = logged_setup
        with pytest.raises(ValueError):
            StochasticQPolicy(qnet, tables, temperature=-1.0)

    def test_rejects_bad_epsilon(self, logged_setup):
        _, qnet, _, _, tables = logged_setup
        with pytest.raises(ValueError):
            StochasticQPolicy(qnet, tables, epsilon=1.5)


class TestOPEIntegration:
    @staticmethod
    def suite(logged_setup, target):
        env, _, _, episodes, _ = logged_setup
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(env.topology)
        return run_ope_suite(episodes, target, eval_net, n_boot=100,
                             fqe_options=NO_FIT)

    def test_on_policy_is_recovers_behavior_value(self, logged_setup):
        """Evaluating the behaviour policy itself: all ratios are 1, so
        OIS equals the empirical mean return exactly."""
        _, _, behavior, episodes, _ = logged_setup
        result = self.suite(logged_setup, behavior)["OIS"]
        returns = np.array([ep.discounted_return() for ep in episodes])
        assert result.estimate == pytest.approx(float(returns.mean()))
        assert result.ess == pytest.approx(len(episodes))

    def test_wis_equals_ois_on_policy(self, logged_setup):
        _, _, behavior, _, _ = logged_setup
        report = self.suite(logged_setup, behavior)
        assert report["WIS"].estimate == pytest.approx(report["OIS"].estimate)

    def test_off_policy_target_changes_weights(self, logged_setup):
        _, qnet, _, episodes, tables = logged_setup
        target = StochasticQPolicy(qnet, tables, temperature=0.1, epsilon=0.05)
        result = self.suite(logged_setup, target)["OIS"]
        assert np.isfinite(result.estimate)
        assert result.ess < len(episodes)  # weights are no longer flat


class TestFQE:
    def test_fqe_value_finite_and_plausible(self, logged_setup):
        env, qnet, behavior, episodes, tables = logged_setup
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(env.topology)
        result = fitted_q_evaluation(
            episodes, behavior, eval_net, iterations=2,
            epochs_per_iteration=1, batch_size=16, lr=1e-3,
        )
        assert np.isfinite(result.value)
        # one MC warm-start entry plus one per Bellman iteration
        assert len(result.losses) == 3
        # default normalization is (1 - gamma)
        assert result.reward_scale == pytest.approx(
            1.0 - episodes[0].gamma
        )
        # the tanh-bounded head caps the rescaled value envelope
        assert abs(result.value) <= (
            eval_net.config.q_scale / result.reward_scale
        )

    def test_fqe_requires_episodes(self, logged_setup):
        _, qnet, behavior, _, _ = logged_setup
        with pytest.raises(ValueError):
            fitted_q_evaluation([], behavior, qnet)

    def test_dr_estimate_runs(self, logged_setup):
        env, qnet, behavior, episodes, tables = logged_setup
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(env.topology)
        report = run_ope_suite(episodes, behavior, eval_net, n_boot=100,
                               fqe_options={"iterations": 1,
                                            "epochs_per_iteration": 1})
        result = report["DR"]
        assert np.isfinite(result.estimate)
        assert result.method == "DR"

    def test_dr_with_perfect_q_has_zero_correction(self):
        """If Q(s,a) = r + gamma V(s') exactly on-policy, the DR
        corrections cancel and DR equals V(s_0).

        Two-state chain, gamma = 0.5: reward 1 then terminal, so
        Q(s0, .) = 1 + 0.5 * 0 = 1 and Q(s1, .) = 0."""
        episode = hand_log([0, 1], [0.5, 0.5], [1.0, 0.0], gamma=0.5)
        report = hand_suite([episode], FixedPolicy([0.5, 0.5]),
                            q=[[1.0, 1.0], [0.0, 0.0]])
        assert report["DM"].estimate == pytest.approx(1.0)
        # V(s0) = 1, corrections: t=0: 1*(1 + 0.5*0 - 1) = 0;
        # t=1: 1*(0 + 0 - 0) = 0
        assert report["DR"].estimate == pytest.approx(1.0)
