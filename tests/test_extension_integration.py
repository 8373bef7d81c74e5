"""Cross-module integration tests for the extension stack.

Each test exercises a realistic pipeline spanning several extension
packages -- the combinations a downstream user would actually run, not
just the modules in isolation.
"""

import numpy as np

import repro
from repro.config import tiny_network
from repro.defenders.acso import ACSOPolicy
from repro.eval.analysis import action_counts, dwell_time
from repro.rl import AttentionQNetwork, QNetConfig
from repro.sim.trace import record_episode

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)


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
