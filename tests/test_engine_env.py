"""Tests for the simulation engine and the gym-style environment."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.net import Condition
from repro.sim.orchestrator import DefenderAction, DefenderActionType

_T = DefenderActionType


@pytest.fixture()
def env():
    return repro.make_env(tiny_network(tmax=100), seed=1, sample_qualitative=False)


class TestReset:
    def test_beachhead_established(self, env):
        env.reset(seed=3)
        state = env.sim.state
        assert state.n_compromised() == 1
        beachhead = int(np.flatnonzero(state.compromised_mask())[0])
        assert env.topology.nodes[beachhead].level == 2

    def test_reset_returns_clean_observation(self, env):
        obs = env.reset(seed=3)
        assert obs.t == 0
        assert obs.alerts == []
        assert not obs.plc_disrupted.any()

    def test_determinism(self):
        def trajectory(seed):
            e = repro.make_env(tiny_network(tmax=60), seed=seed)
            e.reset(seed=seed)
            out = []
            for _ in range(60):
                _, r, _, info = e.step(None)
                out.append((r, info["n_compromised"], info["apt_phase"]))
            return out

        assert trajectory(9) == trajectory(9)
        assert trajectory(9) != trajectory(10)


class TestStepMechanics:
    def test_time_advances_one_hour(self, env):
        env.reset(seed=0)
        _, _, _, info = env.step(None)
        assert info["t"] == 1

    def test_done_at_tmax(self):
        env = repro.make_env(tiny_network(tmax=5), seed=0)
        env.reset(seed=0)
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(None)
            steps += 1
        assert steps == 5
        assert info["reward_breakdown"].r_term > 0

    def test_action_occupies_node(self, env):
        obs = env.reset(seed=0)
        action = DefenderAction(_T.REIMAGE, 0)  # duration 8
        obs, _, _, info = env.step(action)
        assert action in info["launched"]
        assert obs.node_busy[0]
        # a second action on the same node is rejected while busy
        obs, _, _, info = env.step(DefenderAction(_T.REBOOT, 0))
        assert info["launched"] == []

    def test_cost_charged_at_completion(self, env):
        env.reset(seed=0)
        # duration-1 reboot completes at the end of the same step
        _, _, _, info = env.step(DefenderAction(_T.REBOOT, 0))
        assert info["it_cost"] == pytest.approx(0.01)
        # duration-2 scan charges one step later
        _, _, _, info = env.step(DefenderAction(_T.SIMPLE_SCAN, 1))
        assert info["it_cost"] == 0.0
        _, _, _, info = env.step(None)
        assert info["it_cost"] == pytest.approx(0.01)

    def test_completed_actions_visible_to_defender(self, env):
        env.reset(seed=0)
        obs, _, _, _ = env.step(DefenderAction(_T.REBOOT, 0))
        assert DefenderAction(_T.REBOOT, 0) in obs.completed_actions

    def test_scan_produces_result(self, env):
        env.reset(seed=0)
        env.step(DefenderAction(_T.SIMPLE_SCAN, 0))  # duration 2, done at t=2
        obs, _, _, _ = env.step(None)
        assert any(r.node_id == 0 for r in obs.scan_results)

    def test_reboot_clears_beachhead(self, env):
        env.reset(seed=4)
        state = env.sim.state
        beachhead = int(np.flatnonzero(state.compromised_mask())[0])
        # act before the APT sets reboot persistence (takes ~4h at scale 10)
        env.step(DefenderAction(_T.REBOOT, beachhead))
        _, _, _, info = env.step(None)
        persisted = state.has_condition(beachhead, Condition.REBOOT_PERSIST)
        assert persisted or not state.is_compromised(beachhead)

    def test_labor_budget_limits_concurrency(self, env):
        env.reset(seed=0)
        for _ in range(30):
            env.step(None)
            assert len(env.sim.in_flight) <= env.config.apt.labor_rate


class TestInfoChannel:
    def test_info_fields(self, env):
        env.reset(seed=0)
        _, _, _, info = env.step(None)
        for key in ("t", "it_cost", "n_compromised", "n_ws_compromised",
                    "n_srv_compromised", "n_plcs_offline", "apt_phase",
                    "conditions", "reward_breakdown"):
            assert key in info


class TestActionCoercion:
    def test_single_action(self, env):
        env.reset(seed=0)
        _, _, _, info = env.step(DefenderAction(_T.REBOOT, 0))
        assert len(info["launched"]) == 1

    def test_index_action(self, env):
        env.reset(seed=0)
        idx = env.action_index[DefenderAction(_T.REBOOT, 0)]
        _, _, _, info = env.step(idx)
        assert info["launched"] == [DefenderAction(_T.REBOOT, 0)]

    def test_list_and_none(self, env):
        env.reset(seed=0)
        _, _, _, info = env.step([DefenderAction(_T.REBOOT, 0),
                                  DefenderAction(_T.SIMPLE_SCAN, 1)])
        assert len(info["launched"]) == 2
        _, _, _, info = env.step(None)
        assert info["launched"] == []

    def test_noop_launches_nothing(self, env):
        env.reset(seed=0)
        _, _, _, info = env.step(DefenderAction(_T.NOOP))
        assert info["launched"] == []

    def test_numpy_integer_action(self, env):
        """np.int64 indices (rng.integers / argmax output) must coerce
        like builtin ints -- regression for isinstance(action, (int,))."""
        env.reset(seed=0)
        idx = env.action_index[DefenderAction(_T.REBOOT, 0)]
        for np_idx in (np.int64(idx), np.int32(idx), np.intp(idx)):
            env.reset(seed=0)
            _, _, _, info = env.step(np_idx)
            assert info["launched"] == [DefenderAction(_T.REBOOT, 0)]

    def test_sampled_numpy_action_accepted(self, env):
        env.reset(seed=0)
        rng = np.random.default_rng(0)
        action = rng.integers(env.n_actions)  # np.int64, not int
        assert isinstance(action, np.integer)
        env.step(action)  # must not raise

    def test_sample_action_in_range(self, env):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert 0 <= env.sample_action(rng) < env.n_actions

    def test_action_mask_tracks_busy_targets(self, env):
        env.reset(seed=0)
        assert env.action_mask().all()
        idx = env.action_index[DefenderAction(_T.SIMPLE_SCAN, 0)]
        env.step(idx)  # 2h scan keeps node 0 busy through the next step
        mask = env.action_mask()
        assert not mask[idx]
        assert not mask[env.action_index[DefenderAction(_T.REBOOT, 0)]]
        assert mask[env.action_index[DefenderAction(_T.NOOP)]]
        assert mask[env.action_index[DefenderAction(_T.SIMPLE_SCAN, 1)]]
