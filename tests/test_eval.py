"""Tests for the evaluation harness and experiment drivers."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.defenders import NoopPolicy, PlaybookPolicy, SemiRandomPolicy
from repro.eval import (
    aggregate,
    evaluate_policy,
    format_aggregate_table,
    format_sweep_table,
    run_episode,
    run_fig6,
    run_fig10,
    run_table2,
)
from repro.eval.metrics import EpisodeMetrics


@pytest.fixture()
def env():
    return repro.make_env(tiny_network(tmax=50), seed=0)


class TestRunEpisode:
    def test_metrics_fields(self, env):
        metrics = run_episode(env, NoopPolicy(), seed=1)
        assert metrics.steps == 50
        assert metrics.seed == 1
        assert metrics.avg_it_cost == 0.0
        assert np.isfinite(metrics.discounted_return)

    def test_max_steps_truncates(self, env):
        metrics = run_episode(env, NoopPolicy(), seed=1, max_steps=10)
        assert metrics.steps == 10

    def test_deterministic_given_seed(self, env):
        a = run_episode(env, PlaybookPolicy(), seed=3)
        b = run_episode(env, PlaybookPolicy(), seed=3)
        assert a == b

    def test_active_policy_incurs_cost(self, env):
        metrics = run_episode(env, SemiRandomPolicy(rate=5.0), seed=1)
        assert metrics.avg_it_cost > 0


class TestAggregate:
    def test_mean_and_stderr(self):
        episodes = [
            EpisodeMetrics(10.0, 0, 0.1, 1.0, 50),
            EpisodeMetrics(20.0, 2, 0.3, 3.0, 50),
        ]
        agg = aggregate(episodes)
        assert agg.episodes == 2
        assert agg.mean("discounted_return") == pytest.approx(15.0)
        assert agg.mean("final_plcs_offline") == pytest.approx(1.0)
        assert agg.stderr("avg_it_cost") > 0

    def test_evaluate_policy(self, env):
        agg, episodes = evaluate_policy(env, NoopPolicy(), episodes=3, seed=0)
        assert agg.episodes == 3
        assert len(episodes) == 3
        assert {e.seed for e in episodes} == {0, 1, 2}


class TestTables:
    def test_aggregate_table_contains_policies_and_metrics(self, env):
        agg, _ = evaluate_policy(env, NoopPolicy(), episodes=2, seed=0)
        text = format_aggregate_table({"noop": agg, "other": agg}, title="T2")
        assert "T2" in text
        assert "noop" in text and "other" in text
        assert "Discounted Return" in text
        assert "+/-" in text

    def test_sweep_table(self, env):
        agg, _ = evaluate_policy(env, NoopPolicy(), episodes=2, seed=0)
        sweep = {0.1: {"noop": agg}, 0.9: {"noop": agg}}
        text = format_sweep_table(sweep, "final_plcs_offline", "effectiveness")
        assert "0.1" in text and "0.9" in text and "noop" in text


class TestExperiments:
    def test_run_table2(self):
        cfg = tiny_network(tmax=40)
        results = run_table2(cfg, {"noop": NoopPolicy()}, episodes=2, seed=0)
        assert set(results) == {"noop"}
        assert results["noop"].episodes == 2

    def test_run_fig6_sweeps_effectiveness(self):
        cfg = tiny_network(tmax=30)
        sweep = run_fig6(cfg, {"noop": NoopPolicy()},
                         effectiveness_values=(0.1, 0.9), episodes=1, seed=0)
        assert set(sweep) == {0.1, 0.9}

    def test_run_fig10_has_both_attackers(self):
        cfg = tiny_network(tmax=30)
        out = run_fig10(cfg, {"noop": NoopPolicy()}, episodes=1, seed=0)
        assert set(out) == {"APT1", "APT2"}

    def test_fig10_apt2_preserves_perturbations(self):
        """APT2 must inherit cleanup effectiveness and time scale."""
        from repro.attacker import apt2

        cfg = tiny_network()
        derived = apt2(cleanup_effectiveness=cfg.apt.cleanup_effectiveness,
                       time_scale=cfg.apt.time_scale)
        assert derived.time_scale == cfg.apt.time_scale
        assert derived.lateral_threshold == 1


class TestEpisodeTelemetry:
    """Every evaluation path surfaces per-episode seed and wall time,
    and the telemetry stays out of metric equality."""

    def test_run_episode_records_wall_time(self, env):
        metrics = run_episode(env, NoopPolicy(), seed=0, max_steps=5)
        assert metrics.wall_time is not None and metrics.wall_time > 0
        assert metrics.seed == 0

    def test_wall_time_excluded_from_equality(self):
        a = EpisodeMetrics(1.0, 0, 0.0, 0.0, steps=5, seed=1, wall_time=0.1)
        b = EpisodeMetrics(1.0, 0, 0.0, 0.0, steps=5, seed=1, wall_time=9.9)
        assert a == b

    def test_single_env_seeds_and_wall_times(self, env):
        _, records = evaluate_policy(env, NoopPolicy(), episodes=3, seed=7,
                                     max_steps=5)
        assert [r.seed for r in records] == [7, 8, 9]
        assert all(r.wall_time > 0 for r in records)

    def test_vec_seeds_and_wall_times(self):
        from repro.eval import evaluate_policy_vec

        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=8,
                              backend="sync")
        with venv:
            _, records = evaluate_policy_vec(venv, NoopPolicy(), episodes=4,
                                             seed=3)
        assert [r.seed for r in records] == [3, 4, 5, 6]
        assert all(r.wall_time > 0 for r in records)

    def test_on_episode_callback_order_and_abort(self, env):
        seen = []
        evaluate_policy(env, NoopPolicy(), episodes=3, seed=0, max_steps=5,
                        on_episode=lambda i, m: seen.append((i, m.seed)))
        assert seen == [(0, 0), (1, 1), (2, 2)]

        class Stop(Exception):
            pass

        def abort(i, metrics):
            raise Stop()

        with pytest.raises(Stop):
            evaluate_policy(env, NoopPolicy(), episodes=3, seed=0,
                            max_steps=5, on_episode=abort)

    def test_vec_on_episode_callback(self):
        from repro.eval import evaluate_policy_vec

        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=8,
                              backend="sync")
        seen = []
        with venv:
            evaluate_policy_vec(venv, NoopPolicy(), episodes=4, seed=0,
                                on_episode=lambda i, m: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]
