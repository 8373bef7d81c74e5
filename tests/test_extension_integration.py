"""Cross-module integration tests for the extension stack.

Each test exercises a realistic pipeline spanning several extension
packages -- the combinations a downstream user would actually run, not
just the modules in isolation.
"""

import numpy as np

import repro
from repro.config import tiny_network
from repro.defenders.acso import ACSOPolicy
from repro.eval import run_table2
from repro.eval.analysis import action_counts, dwell_time
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    C51Config,
    C51Trainer,
    DQNConfig,
    DistributionalAttentionQNetwork,
    DuelingAttentionQNetwork,
    QNetConfig,
    collect_demonstrations,
    pretrain,
)
from repro.rl.pretrain import PretrainConfig
from repro.sim.trace import record_episode

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)
FAST_DQN = DQNConfig(batch_size=8, warmup=8, update_every=4,
                     target_update=40, buffer_size=400, n_step=3)


class TestPretrainedVariantPipelines:
    def test_dueling_net_pretrains_from_demonstrations(self, tiny_tables):
        """DQfD margin pretraining works for the dueling head too."""
        from repro.defenders import DBNExpertPolicy

        cfg = tiny_network(tmax=30)
        env = repro.make_env(cfg, seed=0)
        qnet = DuelingAttentionQNetwork(SMALL_QNET, seed=0)
        qnet.bind_topology(env.topology)
        featurizer = ACSOFeaturizer(env.topology, tiny_tables)
        expert = DBNExpertPolicy(tiny_tables, seed=0, max_actions=1)
        demos = collect_demonstrations(env, expert, featurizer, qnet,
                                       episodes=1, seed=0, max_steps=20)
        losses = pretrain(qnet, demos,
                          PretrainConfig(iterations=5, batch_size=8, seed=0))
        assert len(losses) == 5
        assert all(np.isfinite(loss) for loss in losses)

    def test_c51_policy_through_table2_driver(self, tiny_tables):
        """A distributional network drives the paper's experiment
        harness unchanged (forward() returns expected Q)."""
        cfg = tiny_network(tmax=20)
        net = DistributionalAttentionQNetwork(
            SMALL_QNET, seed=0, c51=C51Config(n_atoms=7))
        results = run_table2(
            cfg, {"C51 ACSO": ACSOPolicy(net, tiny_tables)},
            episodes=1, seed=0, max_steps=20,
        )
        assert np.isfinite(results["C51 ACSO"].mean("discounted_return"))

    def test_c51_trainer_then_greedy_eval(self, tiny_tables):
        cfg = tiny_network(tmax=25)
        env = repro.make_env(cfg, seed=0)
        net = DistributionalAttentionQNetwork(
            SMALL_QNET, seed=0, c51=C51Config(n_atoms=11))
        trainer = C51Trainer(env, net,
                             ACSOFeaturizer(env.topology, tiny_tables),
                             FAST_DQN)
        trainer.train(1, seed=0, max_steps=20)
        from repro.eval import run_episode

        metrics = run_episode(env, ACSOPolicy(net, tiny_tables), seed=1,
                              max_steps=20)
        assert np.isfinite(metrics.discounted_return)


class TestOPEOfGreedyTarget:
    def test_greedy_target_estimated_from_exploratory_log(self, tiny_tables):
        """The deployment question end to end: estimate the *greedy*
        policy's value from data logged by its epsilon-soft version."""
        from ope_hand_logs import NO_FIT
        from repro.validation import (
            StochasticQPolicy,
            collect_logged_episodes,
            run_ope_suite,
        )

        cfg = tiny_network(tmax=20)
        env = repro.make_env(cfg, seed=0)
        qnet = AttentionQNetwork(SMALL_QNET, seed=0)
        qnet.bind_topology(env.topology)
        behavior = StochasticQPolicy(qnet, tiny_tables, temperature=None,
                                     epsilon=0.5, seed=2)
        # a near-greedy target: pure greedy has zero probability on any
        # exploratory logged action, which zeroes every 20-step weight
        target = StochasticQPolicy(qnet, tiny_tables, temperature=None,
                                   epsilon=0.05)
        logged = collect_logged_episodes(env, behavior, episodes=3,
                                         seed=0, max_steps=20)
        eval_net = AttentionQNetwork(SMALL_QNET, seed=9)
        eval_net.bind_topology(env.topology)
        wis = run_ope_suite(logged, target, eval_net, n_boot=100,
                            fqe_options=NO_FIT)["WIS"]
        returns = [ep.discounted_return() for ep in logged]
        # WIS is a convex combination of logged returns
        assert min(returns) - 1e-9 <= wis.estimate <= max(returns) + 1e-9
        assert wis.ess > 0


class TestTraceAnalysisOfLearnedPolicy:
    def test_acso_trace_end_to_end(self, tiny_tables, tmp_path):
        from repro.sim.trace import EpisodeTrace

        cfg = tiny_network(tmax=40)
        env = repro.make_env(cfg, seed=0)
        policy = ACSOPolicy(AttentionQNetwork(SMALL_QNET, seed=0),
                            tiny_tables)
        trace = record_episode(env, policy, seed=0, max_steps=40)
        assert trace.policy == "acso"
        path = tmp_path / "acso.jsonl"
        trace.to_jsonl(path)
        loaded = EpisodeTrace.from_jsonl(path)
        dwell = dwell_time(loaded)
        assert 0.0 <= dwell.fraction <= 1.0
        counts = action_counts(loaded)
        assert counts["total_investigations"] >= 0


class TestScriptedAttackVsDefenders:
    def test_playbook_recovers_scripted_disruption(self):
        """Stage a deterministic disruption; the playbook's PLC-repair
        rule must bring the process back online."""
        from repro.attacker.scripted import ScriptedAttacker, beachhead_rush
        from repro.defenders import PlaybookPolicy
        from repro.net.nodes import Condition

        cfg = tiny_network(tmax=80)
        probe = repro.make_env(cfg, seed=0)
        probe.reset(seed=0)
        beachhead = int(np.flatnonzero(
            probe.sim.state.conditions[:, Condition.COMPROMISED]
        )[0])
        env = repro.make_env(
            cfg, seed=0,
            attacker=ScriptedAttacker(
                beachhead_rush(beachhead, target_plcs=[0, 1], spacing=3)
            ),
        )
        obs = env.reset(seed=0)
        policy = PlaybookPolicy()
        policy.reset(env)
        ever_offline, end_offline = 0, 0
        done = False
        while not done:
            obs, _, done, info = env.step(policy.act(obs))
            ever_offline = max(ever_offline, info["n_plcs_offline"])
            end_offline = info["n_plcs_offline"]
        assert ever_offline >= 1  # the scripted attack landed
        assert end_offline == 0  # and the playbook repaired it
