"""Engine parity, scenario serialization, and vector-env fixes.

The core guarantee of the two vector engines: the same scenario and
seed produce bit-identical observation/reward/done trajectories on the
batched engine (``repro.make_vec``'s pick for two or more lanes) and on
the sync oracle (``backend="sync"``); every other name is rejected. Plus
round-trip tests for ScenarioSpec JSON and regression tests for the
vectorized ``sample_actions`` and the ``reset_env`` episode accounting.
"""

import json

import numpy as np
import pytest

import repro
from repro.scenarios import (
    ScenarioSpec,
    load_registry,
    load_spec,
    save_registry,
    save_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from repro.scenarios.registry import REGISTRY
from repro.sim.batched_engine import BatchedVectorEnv
from repro.sim.vec_env import VectorEnv


def _obs_fingerprint(obs):
    return (
        obs.t,
        tuple((a.t, a.severity, a.node_id, a.source) for a in obs.alerts),
        tuple((s.t, s.node_id, s.detected) for s in obs.scan_results),
        obs.plc_disrupted.tolist(),
        obs.plc_destroyed.tolist(),
        obs.node_busy.tolist(),
        obs.quarantined.tolist(),
    )


def _rollout(venv, steps, seed, action_seed=7):
    """Seeded rollout under random valid actions; full fingerprints."""
    rng = np.random.default_rng(action_seed)
    observations = venv.reset(seed=seed)
    trace = [tuple(_obs_fingerprint(o) for o in observations)]
    rewards, dones = [], []
    for _ in range(steps):
        actions = venv.sample_actions(rng)
        step = venv.step(actions)
        trace.append(tuple(_obs_fingerprint(o) for o in step.observations))
        rewards.append(step.rewards.copy())
        dones.append(step.dones.copy())
    return trace, np.stack(rewards), np.stack(dones)


class TestBackendParity:
    """Batched-vs-sync cells for the cases the batched suites in
    ``tests/test_batched_engine.py`` do not spell out."""

    def test_parity_spans_auto_reset_boundaries(self):
        """The seed+i+N*episode schedule survives lane rollover."""
        sync = repro.make_vec("inasim-tiny-v1", 5, seed=0, horizon=8,
                              backend="sync")
        _, rew_s, done_s = _rollout(sync, 30, seed=2)
        assert done_s.any()  # episodes rolled over mid-run
        venv = repro.make_vec("inasim-tiny-v1", 5, seed=0, horizon=8,
                              backend="batched")
        _, rew_b, done_b = _rollout(venv, 30, seed=2)
        np.testing.assert_array_equal(rew_s, rew_b)
        np.testing.assert_array_equal(done_s, done_b)

    def test_action_masks_match(self):
        sync = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=20,
                              backend="sync")
        sync.reset(seed=0)
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=20,
                              backend="batched")
        venv.reset(seed=0)
        for _ in range(5):
            np.testing.assert_array_equal(
                sync.action_masks(), venv.action_masks()
            )
            sync.step(np.array([1, 2]))
            venv.step(np.array([1, 2]))

    def test_custom_registered_scenario_matches_sync(self):
        spec = ScenarioSpec(
            scenario_id="test-custom-batched", network="tiny",
            reward_variant="availability", horizon=12, tags=("test",),
        )
        repro.register(spec, overwrite=True)
        try:
            sync = repro.make_vec("test-custom-batched", 2, seed=0,
                                  backend="sync")
            _, rew_s, _ = _rollout(sync, 12, seed=0)
            venv = repro.make_vec("test-custom-batched", 2, seed=0,
                                  backend="batched")
            assert venv.config.tmax == 12
            _, rew_b, _ = _rollout(venv, 12, seed=0)
            np.testing.assert_array_equal(rew_s, rew_b)
        finally:
            REGISTRY.unregister("test-custom-batched")


class TestBackendLifecycle:
    def test_metadata_and_policy_env(self):
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                              backend="batched")
        sync = repro.make_vec("inasim-tiny-v1", 1, seed=0, horizon=10,
                              backend="sync")
        assert venv.n_actions == sync.n_actions
        assert venv.action_list == sync.action_list
        assert venv.config.tmax == 10
        assert venv.topology.n_nodes == sync.topology.n_nodes
        assert venv.policy_env(0).n_actions == venv.n_actions
        assert len(venv) == 2

    def test_reset_infos_populated(self):
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                              backend="batched")
        # populated at construction, before any explicit reset
        assert len(venv.reset_infos) == 2
        venv.reset(seed=0)
        for info in venv.reset_infos:
            # exactly the beachhead workstation is compromised
            assert info["n_compromised"] == 1
            assert info["n_ws_compromised"] == 1
            assert info["n_srv_compromised"] == 0

    def test_reset_infos_track_auto_resets(self):
        """Auto-resets refresh reset_infos exactly as on sync."""
        sync = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=4,
                              backend="sync")
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=4,
                              backend="batched")
        sync.reset(seed=0)
        venv.reset(seed=0)
        for _ in range(4):
            step_s = sync.step(None)
            step_b = venv.step(None)
        assert step_s.dones.all() and step_b.dones.all()
        assert venv.reset_infos == sync.reset_infos
        for info in venv.reset_infos:
            assert info["n_compromised"] == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.make_vec("inasim-tiny-v1", 2, backend="threads")


class TestSampleActionsVectorized:
    def test_samples_are_valid(self):
        venv = repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=30)
        venv.reset(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            actions = venv.sample_actions(rng)
            masks = venv.action_masks()
            assert actions.shape == (3,)
            assert actions.dtype == np.int64
            assert all(masks[i, a] for i, a in enumerate(actions))
            venv.step(actions)

    def test_uniform_over_valid_actions(self):
        """Every valid action is reachable; invalid ones never drawn."""
        venv = repro.make_vec("inasim-tiny-v1", 1, seed=0, horizon=30)
        venv.reset(seed=0)
        venv.step(np.array([1]))  # occupy a target -> mask out actions
        mask = venv.action_masks()[0]
        assert not mask.all()
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(400):
            seen.add(int(venv.sample_actions(rng)[0]))
        assert seen == set(np.flatnonzero(mask).tolist())

    def test_deterministic_given_rng(self):
        venv = repro.make_vec("inasim-tiny-v1", 4, seed=0, horizon=30)
        venv.reset(seed=0)
        a = venv.sample_actions(np.random.default_rng(11))
        b = venv.sample_actions(np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)


class TestResetEnvEpisodeAccounting:
    def test_reset_env_advances_episode_count(self):
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10)
        venv.reset(seed=0)
        assert venv._episode_counts == [0, 0]
        venv.reset_env(0)
        assert venv._episode_counts == [1, 0]

    def test_manual_reset_follows_reseed_schedule(self):
        """reset_env(i) draws seed + i + num_envs * episode_count."""
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=40)
        venv.reset(seed=0)
        obs = venv.reset_env(1)  # episode 1 on lane 1 -> seed 0 + 1 + 2*1
        solo = repro.make("inasim-tiny-v1", seed=3, horizon=40)
        solo.reset(seed=3)
        for _ in range(15):
            step = venv.step(None)
            _, r, _, _ = solo.step(None)
            assert step.rewards[1] == r

    def test_no_seed_collision_with_auto_reset(self):
        """A manual reset no longer replays the next auto-reset seed."""
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=5)
        venv.reset(seed=0)
        venv.reset_env(0)  # consumes episode 1 of lane 0
        for _ in range(5):
            step = venv.step(None)
        # lane 0's auto reset must now use episode count 2, not replay 1
        assert venv._episode_counts[0] == 2


class TestScenarioSpecSerialization:
    @pytest.mark.parametrize("scenario_id", [
        "inasim-tiny-v1", "inasim-paper-v1", "paper-apt2-v1",
    ])
    def test_builtin_round_trip(self, scenario_id):
        spec = repro.get_scenario(scenario_id)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_round_trip_preserves_every_field(self):
        spec = ScenarioSpec(
            scenario_id="rt-full", network="small", attacker="scripted",
            reward_variant="cost_sensitive", horizon=77,
            cleanup_effectiveness=0.25, description="round trip",
            tags=("a", "b"),
        )
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec
        assert restored.tags == ("a", "b")

    def test_dict_is_json_native(self):
        data = spec_to_dict(repro.get_scenario("inasim-paper-v1"))
        assert json.loads(json.dumps(data)) == data

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec"):
            spec_from_dict({"scenario_id": "x", "flux_capacitor": 1})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError, match="network"):
            spec_from_dict({"scenario_id": "x", "network": "mega"})

    def test_file_round_trip(self, tmp_path):
        spec = repro.get_scenario("inasim-small-v1")
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_registry_round_trip_with_custom_scenario(self, tmp_path):
        custom = ScenarioSpec(
            scenario_id="test-registry-io", network="tiny",
            horizon=9, tags=("custom",),
        )
        repro.register(custom, overwrite=True)
        path = tmp_path / "registry.json"
        try:
            save_registry(path)
            specs = load_registry(path, register=False)
            by_id = {s.scenario_id: s for s in specs}
            assert by_id["test-registry-io"] == custom
            assert len(specs) == len(REGISTRY)
        finally:
            REGISTRY.unregister("test-registry-io")
        # loading with register=True restores the custom entry
        load_registry(path, register=True, overwrite=True)
        try:
            assert repro.get_scenario("test-registry-io") == custom
        finally:
            REGISTRY.unregister("test-registry-io")

    def test_restored_spec_builds_identical_env(self):
        spec = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=20)
        clone = spec_from_json(spec_to_json(spec))
        env_a = spec.build_env(seed=5)
        env_b = clone.build_env(seed=5)
        env_a.reset(seed=5)
        env_b.reset(seed=5)
        for _ in range(20):
            _, ra, _, _ = env_a.step(None)
            _, rb, _, _ = env_b.step(None)
            assert ra == rb


class TestAutoBackend:
    """The engine is chosen in ``lockstep_env`` alone: by lane count
    unless a caller names ``sync`` or ``batched``, every other name
    (``auto`` and the retired worker-pool names included) rejected.
    Neither the CLI nor a served job can name an engine."""

    def test_lane_count_picks_the_engine(self):
        assert type(repro.make_vec("inasim-tiny-v1", 2)) is BatchedVectorEnv
        assert type(repro.make_vec("inasim-tiny-v1", 1)) is VectorEnv
        tiny = ["inasim-tiny-v1"]
        assert type(repro.make_vec_from_specs(tiny)) is VectorEnv
        assert type(repro.make_vec_from_specs(tiny * 3)) is BatchedVectorEnv

    def test_named_engine_wins_over_lane_count(self):
        venv = repro.make_vec("inasim-tiny-v1", 1, backend="batched")
        assert type(venv) is BatchedVectorEnv
        venv = repro.make_vec("inasim-tiny-v1", 4, backend="sync")
        assert type(venv) is VectorEnv

    @pytest.mark.parametrize("name", ["process", "shm", "auto"])
    def test_retired_backend_name_rejected(self, name, capsys):
        from repro.cli import main as cli_main
        from repro.serve import parse_job
        from repro.serve.jobs import JobError

        with pytest.raises(ValueError, match="unknown backend"):
            repro.make_vec("inasim-tiny-v1", 2, seed=0, backend=name)
        with pytest.raises(JobError, match="unknown job fields"):
            parse_job({"scenario": "inasim-tiny-v1", "backend": name})
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--scenario", "inasim-tiny-v1",
                      "--backend", "batched"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestHeterogeneousLanes:
    """make_vec_from_specs: one scenario per lane, both backends."""

    def _specs(self):
        base = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=15)
        variant = base.with_overrides(
            scenario_id="tiny-het-variant",
            apt_overrides={"lateral_threshold": 1, "labor_rate": 3},
        )
        return [base, variant, base]

    def test_lane_config_reports_per_lane_attackers(self):
        venv = repro.make_vec_from_specs(self._specs(), seed=0)
        assert venv.lane_config(0).apt.lateral_threshold == 2  # tiny preset
        assert venv.lane_config(1).apt.lateral_threshold == 1
        assert venv.lane_config(1).apt.labor_rate == 3
        assert venv.config == venv.lane_config(0)

    def test_batched_matches_sync(self):
        """Per-lane attackers run the same on the batched engine."""
        sync = repro.make_vec_from_specs(self._specs(), seed=0,
                                         backend="sync")
        trace_s, rew_s, done_s = _rollout(sync, 20, seed=3)
        venv = repro.make_vec_from_specs(self._specs(), seed=0,
                                         backend="batched")
        assert venv.lane_config(1).apt.labor_rate == 3
        trace_b, rew_b, done_b = _rollout(venv, 20, seed=3)
        assert trace_s == trace_b
        np.testing.assert_array_equal(rew_s, rew_b)
        np.testing.assert_array_equal(done_s, done_b)

    def test_lanes_actually_diverge(self):
        """The variant lane runs a different attacker than the base
        lanes (otherwise the heterogeneity is cosmetic)."""
        venv = repro.make_vec_from_specs(self._specs(), seed=0)
        _, rewards, _ = _rollout(venv, 30, seed=5)
        assert not np.array_equal(rewards[:, 0], rewards[:, 1])
        # identical specs on identical seeds stay identical: lanes 0 and
        # 2 differ only through their seed offsets, so compare lane 0
        # against a fresh env of the same spec and seed
        again = repro.make_vec_from_specs(self._specs(), seed=0)
        _, rewards2, _ = _rollout(again, 30, seed=5)
        np.testing.assert_array_equal(rewards, rewards2)

    def test_registered_ids_resolve(self):
        venv = repro.make_vec_from_specs(
            ["inasim-tiny-v1", "inasim-tiny-v1"], seed=0)
        assert venv.num_envs == 2

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            repro.make_vec_from_specs([])

    def test_mismatched_topologies_rejected(self):
        specs = [repro.get_scenario("inasim-tiny-v1"),
                 repro.get_scenario("inasim-small-v1")]
        with pytest.raises(ValueError):
            repro.make_vec_from_specs(specs, seed=0)
