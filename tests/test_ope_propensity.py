"""Target-policy scoring as ``(B, A)`` blocks, bitwise against the
per-row oracle (``tests/ope_oracle.py``), and on-policy ground truth."""

from __future__ import annotations

import numpy as np
import pytest

import ope_oracle
import repro
from ope_hand_logs import NO_FIT, TableQNet, row_states
from repro.config import tiny_network
from repro.rl import AttentionQNetwork, QNetConfig
from repro.validation import (
    LoggedEpisode,
    PreparedLog,
    StochasticQPolicy,
    TraceDataset,
    UniformRandomPolicy,
    collect_logged_episodes,
    run_ope_suite,
    write_episodes,
)
from repro.validation.fqe import PreparedChunk, episode_dr_value, row_dot
from repro.validation.ope import step_ratios

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)
#: action counts of the tiny and the paper network
ACTION_COUNTS = (49, 329)


def assert_bitwise(actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def q_block(batch: int, n_actions: int) -> np.ndarray:
    """Random Q-values; every fourth row is rounded so argmax sees ties."""
    rng = np.random.default_rng(1000 * n_actions + batch)
    q = rng.normal(scale=2.0, size=(batch, n_actions))
    q[::4] = np.round(q[::4])
    return q


def mask_block(kind: str, batch: int, n_actions: int) -> np.ndarray:
    """``all`` valid, ``one`` valid action per row, or the two mixed
    with random rows."""
    rng = np.random.default_rng(7 * n_actions + batch)
    all_valid = np.ones((batch, n_actions), dtype=bool)
    one_valid = np.zeros((batch, n_actions), dtype=bool)
    one_valid[np.arange(batch), rng.integers(n_actions, size=batch)] = True
    if kind == "all":
        return all_valid
    if kind == "one":
        return one_valid
    masks = rng.random((batch, n_actions)) < 0.5
    masks[:, 0] = True  # the environment always allows noop
    masks[0::3] = all_valid[0::3]
    masks[1::3] = one_valid[1::3]
    return masks


class TestActionProbsBatch:
    @pytest.mark.parametrize("n_actions", ACTION_COUNTS)
    @pytest.mark.parametrize("batch", [0, 1, 7, 150])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("temperature", [None, 0.25, 1.0])
    def test_bitwise_equal_to_per_row_oracle(self, temperature, epsilon,
                                             batch, n_actions):
        policy = StochasticQPolicy(TableQNet(q_block(batch, n_actions)),
                                   None, temperature=temperature,
                                   epsilon=epsilon)
        for kind in ("all", "one", "mixed"):
            masks = mask_block(kind, batch, n_actions)
            assert_bitwise(
                policy.action_probs_batch(row_states(batch), masks),
                ope_oracle.action_probs_batch(policy, row_states(batch),
                                              masks))

    @pytest.mark.parametrize("temperature, epsilon",
                             [(None, 0.0), (None, 0.1), (1.0, 0.0)])
    def test_row_without_valid_action_raises(self, temperature, epsilon):
        masks = mask_block("all", 5, 49)
        masks[3] = False
        policy = StochasticQPolicy(TableQNet(q_block(5, 49)), None,
                                   temperature=temperature, epsilon=epsilon)
        with pytest.raises(ValueError, match="mask row 3 allows no action"):
            policy.action_probs_batch(row_states(5), masks)
        with pytest.raises(ValueError, match="mask row 0 allows no action"):
            policy.action_probs(row_states(1), masks[3])

    def test_uniform_policy_rejects_row_without_valid_action(self):
        masks = mask_block("all", 4, 49)
        masks[2] = False
        uniform = UniformRandomPolicy(TableQNet(q_block(4, 49)), None)
        with pytest.raises(ValueError, match="mask row 2 allows no action"):
            uniform.action_probs_batch(None, masks)


class TestRowDot:
    @pytest.mark.parametrize("n_actions", [1, 2, 7, 49, 128, 329, 513])
    @pytest.mark.parametrize("batch", [1, 7, 150])
    def test_bitwise_equal_to_per_row_dot(self, batch, n_actions):
        q = q_block(batch, n_actions)
        policy = StochasticQPolicy(TableQNet(q), None, temperature=1.0,
                                   epsilon=0.05)
        probs = policy.action_probs_batch(
            row_states(batch), mask_block("mixed", batch, n_actions))
        assert_bitwise(row_dot(probs, q), ope_oracle.row_dot(probs, q))

    @pytest.mark.parametrize("n_actions", ACTION_COUNTS)
    def test_policy_values_bitwise_equal_to_oracle(self, monkeypatch,
                                                   n_actions):
        """A prepared chunk's V(s), read from its kept probability block
        or scored for the rows alone."""
        qnet = TableQNet(q_block(150, n_actions))
        target = StochasticQPolicy(qnet, None, temperature=0.25, epsilon=0.05)
        episode = LoggedEpisode(
            actions=np.zeros(150), behavior_probs=np.ones(150),
            rewards=np.zeros(150), gamma=1.0, features=row_states(150),
            masks=mask_block("mixed", 150, n_actions))
        rows = np.arange(150)

        def values(keep):
            chunk = PreparedChunk([episode], 0, 1.0, target, keep)
            return chunk.policy_values(qnet, rows)

        kept, alone = values(True), values(False)
        ope_oracle.install(monkeypatch)
        assert_bitwise(kept, values(True))
        assert_bitwise(alone, values(False))


@pytest.fixture(scope="module")
def tiny_log(tiny_tables):
    env = repro.make_env(tiny_network(tmax=30), seed=0)
    qnet = AttentionQNetwork(SMALL_QNET, seed=1)
    qnet.bind_topology(env.topology)
    behavior = StochasticQPolicy(qnet, tiny_tables, temperature=1.0,
                                 epsilon=0.3, seed=5)
    episodes = collect_logged_episodes(env, behavior, episodes=3, seed=0,
                                       max_steps=30)
    return qnet, tiny_tables, episodes


@pytest.fixture(params=["memory", "disk"])
def episode_source(request, tiny_log, tmp_path):
    _, _, episodes = tiny_log
    if request.param == "memory":
        return episodes
    return TraceDataset(write_episodes(episodes, tmp_path / "trace"))


class TestDoublyRobustStateValues:
    def test_episode_dr_value_bitwise_equal_to_oracle(self, monkeypatch,
                                                      tiny_log):
        qnet, tables, episodes = tiny_log
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(repro.make_env(tiny_network(tmax=30)).topology)
        target = StochasticQPolicy(qnet, tables, temperature=0.25,
                                   epsilon=0.05)

        def dr_values():
            prepared = PreparedLog(episodes, target)
            return [episode_dr_value(episode, probs, q, clip=10.0,
                                     reward_scale=0.05)
                    for _, episode, probs, q
                    in prepared.scored_episodes(eval_net)]

        block = dr_values()
        ope_oracle.install(monkeypatch)
        assert_bitwise(block, dr_values())


class TestOnPolicyGroundTruth:
    """Scoring the behaviour policy itself (another RNG seed) must give
    ratio 1.0 at every step: the B = T estimator pass reproduces the
    B = 1 recorder's probabilities exactly."""

    def test_ratios_are_exactly_one(self, tiny_log, episode_source):
        qnet, tables, _ = tiny_log
        target = StochasticQPolicy(qnet, tables, temperature=1.0,
                                   epsilon=0.3, seed=11)
        for _, episode, probs, _ in PreparedLog(episode_source,
                                                target).scored_episodes():
            ratios = step_ratios(episode, probs)
            assert len(ratios) == 30
            assert (ratios == 1.0).all()

    def test_importance_sampling_recovers_mean_return(self, tiny_log,
                                                      episode_source):
        qnet, tables, _ = tiny_log
        target = StochasticQPolicy(qnet, tables, temperature=1.0,
                                   epsilon=0.3, seed=11)
        mean_return = float(np.mean([ep.discounted_return()
                                     for ep in episode_source]))
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(repro.make_env(tiny_network(tmax=30)).topology)
        report = run_ope_suite(episode_source, target, eval_net, n_boot=100,
                               fqe_options=NO_FIT)
        ois, wis, pdis = report["OIS"], report["WIS"], report["PDIS"]
        assert ois.estimate == mean_return
        # WIS sums r_i / 3 where OIS divides the sum by 3: equal up to
        # rounding, not bit for bit
        assert wis.estimate == pytest.approx(ois.estimate, rel=1e-15)
        assert pdis.estimate == pytest.approx(mean_return, rel=1e-12)
