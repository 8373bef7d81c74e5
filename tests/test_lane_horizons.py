"""Heterogeneous lanes: every lockstep loop honours each lane's own
horizon and discount (``lane_config(i)``), in either lane order.

Two tiny-network lanes differ in ``tmax`` (20 and 40) and, for the
evaluation and trace loops, in ``gamma``. With two episodes over two
lanes, episode ``i`` runs on lane ``i``.
"""

import dataclasses

import pytest

import repro
from repro.config import tiny_network
from repro.defenders import PlaybookPolicy
from repro.eval.runner import evaluate_policy, evaluate_policy_vec
from repro.rl import ACSOFeaturizer, AttentionQNetwork, DQNConfig, DQNTrainer
from repro.rl.qnetwork import QNetConfig
from repro.sim.vec_env import VectorEnv
from repro.validation import (
    StochasticQPolicy,
    TraceDataset,
    TraceWriter,
    fitted_q_evaluation,
    record_episodes_vec,
)

LANES = ((20, 0.99), (40, 0.9))
ORDERS = [LANES, LANES[::-1]]
SEED = 7
QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16, head_hidden=16)


def _config(tmax: int, gamma: float):
    config = tiny_network(tmax=tmax)
    return dataclasses.replace(
        config, reward=dataclasses.replace(config.reward, gamma=gamma))


def _venv(lanes):
    return VectorEnv([repro.make_env(_config(*lane), seed=i)
                      for i, lane in enumerate(lanes)])


@pytest.mark.parametrize("lanes", ORDERS, ids=["20-40", "40-20"])
class TestLaneHorizons:
    def test_trainer_ends_each_lane_at_its_tmax(self, lanes, tiny_tables):
        tiny = repro.scenarios.get_scenario("inasim-tiny-v1")
        venv = repro.make_vec_from_specs(
            [tiny.with_overrides(horizon=tmax) for tmax, _ in lanes], seed=0,
            backend="sync")
        trainer = DQNTrainer(
            venv, AttentionQNetwork(QNET, seed=0),
            ACSOFeaturizer(venv.topology, tiny_tables),
            DQNConfig(batch_size=8, warmup=16, update_every=4, seed=0))
        history = trainer.train(2, seed=SEED)
        steps = [s.steps for s in sorted(history, key=lambda s: s.episode)]
        assert steps == [tmax for tmax, _ in lanes]
        assert trainer.total_steps == sum(steps)

    def test_trainer_rejects_mixed_discounts(self, lanes, tiny_tables):
        venv = _venv(lanes)
        trainer = DQNTrainer(
            venv, AttentionQNetwork(QNET, seed=0),
            ACSOFeaturizer(venv.topology, tiny_tables), DQNConfig(seed=0))
        with pytest.raises(ValueError, match="gamma"):
            trainer.train(2, seed=SEED)

    def test_evaluation_uses_each_lanes_horizon_and_discount(self, lanes):
        _, episodes = evaluate_policy_vec(_venv(lanes), PlaybookPolicy(), 2,
                                          seed=SEED)
        for ep, (tmax, gamma) in enumerate(lanes):
            assert episodes[ep].steps == tmax
            # the same episode alone on that lane's environment
            _, (alone,) = evaluate_policy(
                repro.make_env(_config(tmax, gamma)), PlaybookPolicy(), 1,
                seed=SEED + ep)
            assert episodes[ep] == alone

    def _record(self, lanes, tables, path):
        qnet = AttentionQNetwork(QNET, seed=1)

        def behavior(ep: int):
            return StochasticQPolicy(qnet, tables, epsilon=0.3, seed=ep)

        with TraceWriter(path) as writer:
            record_episodes_vec(_venv(lanes), behavior, 2, writer, seed=SEED)
        return qnet, TraceDataset(path)

    def test_trace_stores_each_lanes_discount(self, lanes, tiny_tables,
                                              tmp_path):
        _, dataset = self._record(lanes, tiny_tables, tmp_path / "trace")
        episodes = list(dataset)
        assert [len(e) for e in episodes] == [tmax for tmax, _ in lanes]
        assert [e.gamma for e in episodes] == [gamma for _, gamma in lanes]

    def test_fqe_rejects_mixed_discounts(self, lanes, tiny_tables, tmp_path):
        qnet, dataset = self._record(lanes, tiny_tables, tmp_path / "trace")
        target = StochasticQPolicy(qnet, tiny_tables, epsilon=0.3)
        eval_qnet = AttentionQNetwork(QNET, seed=2)
        eval_qnet.bind_topology(_venv(lanes).topology)
        first, second = (str(gamma) for _, gamma in lanes)
        with pytest.raises(ValueError, match=f"{second}.*{first}"):
            fitted_q_evaluation(dataset, target, eval_qnet, iterations=1,
                                epochs_per_iteration=1)
