"""Tests for the baseline defender policies."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.defenders import (
    DBNExpertPolicy,
    NoopPolicy,
    PlaybookPolicy,
    SemiRandomPolicy,
)
from repro.defenders.random_policy import DEFAULT_TYPE_PROBS
from repro.sim.observations import Alert, Observation, ScanResult
from repro.sim.orchestrator import DefenderAction, DefenderActionType

_T = DefenderActionType


def _obs(n_nodes=7, n_plcs=4, t=1, alerts=(), scans=(), completed=(),
         plc_disrupted=None, plc_destroyed=None):
    return Observation(
        t=t,
        alerts=list(alerts),
        scan_results=list(scans),
        plc_disrupted=plc_disrupted if plc_disrupted is not None
        else np.zeros(n_plcs, bool),
        plc_destroyed=plc_destroyed if plc_destroyed is not None
        else np.zeros(n_plcs, bool),
        node_busy=np.zeros(n_nodes, bool),
        plc_busy=np.zeros(n_plcs, bool),
        quarantined=np.zeros(n_nodes, bool),
        completed_actions=list(completed),
    )


@pytest.fixture()
def env():
    return repro.make_env(tiny_network(tmax=60), seed=0)


class TestNoop:
    def test_never_acts(self, env):
        policy = NoopPolicy()
        policy.reset(env)
        assert policy.act(env.reset(seed=0)) == []


class TestSemiRandom:
    def test_actions_target_valid_objects(self, env):
        policy = SemiRandomPolicy(rate=8.0, seed=1)
        obs = env.reset(seed=0)
        policy.reset(env)
        n, m = env.topology.n_nodes, env.topology.n_plcs
        for _ in range(20):
            for action in policy.act(obs):
                if action.atype in (_T.RESET_PLC, _T.REPLACE_PLC):
                    assert 0 <= action.target < m
                else:
                    assert 0 <= action.target < n

    def test_no_duplicate_targets_within_step(self, env):
        policy = SemiRandomPolicy(rate=30.0, seed=2)
        obs = env.reset(seed=0)
        policy.reset(env)
        actions = policy.act(obs)
        node_targets = [a.target for a in actions
                        if a.atype not in (_T.RESET_PLC, _T.REPLACE_PLC)]
        assert len(node_targets) == len(set(node_targets))

    def test_respects_busy_mask(self, env):
        policy = SemiRandomPolicy(rate=30.0, seed=3)
        obs = env.reset(seed=0)
        policy.reset(env)
        obs.node_busy[:] = True
        obs.plc_busy[:] = True
        assert policy.act(obs) == []

    def test_quarantine_only_on_hosts(self, env):
        policy = SemiRandomPolicy(rate=50.0, seed=4)
        obs = env.reset(seed=0)
        policy.reset(env)
        servers = {n.node_id for n in env.topology.nodes if n.is_server}
        for _ in range(30):
            for action in policy.act(obs):
                if action.atype is _T.QUARANTINE:
                    assert action.target not in servers

    def test_reset_restores_seed(self, env):
        policy = SemiRandomPolicy(rate=5.0, seed=9)
        obs = env.reset(seed=0)
        policy.reset(env)
        first = policy.act(obs)
        policy.reset(env)
        assert policy.act(obs) == first

    @pytest.mark.parametrize("type_probs", [
        None,
        {_T.SIMPLE_SCAN: 3.0, _T.REBOOT: 0.0, _T.RESET_PLC: 1.0},
        {_T.REIMAGE: 1.0},
    ])
    def test_type_draws_equal_generator_choice(self, type_probs):
        """The precomputed CDF draws what ``Generator.choice(p=)`` draws
        from the same stream, and leaves the stream where choice does."""
        policy = SemiRandomPolicy(type_probs=type_probs, seed=11)
        probs = dict(DEFAULT_TYPE_PROBS if type_probs is None else type_probs)
        weights = np.array(list(probs.values()))
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        drawn = [int(policy._cdf.searchsorted(ours.random(), side="right"))
                 for _ in range(10_000)]
        expected = [int(theirs.choice(len(weights), p=weights / weights.sum()))
                    for _ in range(10_000)]
        assert drawn == expected
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("weight", [-0.1, np.nan, np.inf])
    def test_bad_type_weight_raises_at_construction(self, weight):
        with pytest.raises(ValueError, match="type_probs"):
            SemiRandomPolicy(type_probs={_T.SIMPLE_SCAN: 1.0,
                                         _T.REBOOT: weight})

    def test_all_zero_type_weights_raise_at_construction(self):
        with pytest.raises(ValueError, match="positive sum"):
            SemiRandomPolicy(type_probs={_T.SIMPLE_SCAN: 0.0,
                                         _T.REBOOT: 0.0})


class TestPlaybook:
    def test_alert_triggers_scan(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        actions = policy.act(_obs(alerts=[Alert(1, 1, 0)]))
        assert DefenderAction(_T.SIMPLE_SCAN, 0) in actions

    def test_severity3_triggers_human_analysis(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        actions = policy.act(_obs(alerts=[Alert(1, 3, 0)]))
        assert DefenderAction(_T.HUMAN_ANALYSIS, 0) in actions

    def test_server_alert_uses_advanced_scan(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        server = next(n.node_id for n in env.topology.nodes if n.is_server)
        actions = policy.act(_obs(alerts=[Alert(1, 1, server)]))
        assert DefenderAction(_T.ADVANCED_SCAN, server) in actions

    def test_coa_ladder_escalates_on_detection(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        policy.act(_obs(t=1, alerts=[Alert(1, 1, 0)]))  # launch scan
        # scan detects -> reboot
        actions = policy.act(_obs(t=3, scans=[ScanResult(3, 0, True, _T.SIMPLE_SCAN)]))
        assert DefenderAction(_T.REBOOT, 0) in actions
        # reboot completes -> re-scan
        actions = policy.act(_obs(t=4, completed=[DefenderAction(_T.REBOOT, 0)]))
        assert DefenderAction(_T.SIMPLE_SCAN, 0) in actions
        # detect again -> password reset
        actions = policy.act(_obs(t=6, scans=[ScanResult(6, 0, True, _T.SIMPLE_SCAN)]))
        assert DefenderAction(_T.RESET_PASSWORD, 0) in actions
        # and again -> re-image
        actions = policy.act(_obs(t=8, completed=[DefenderAction(_T.RESET_PASSWORD, 0)]))
        assert DefenderAction(_T.SIMPLE_SCAN, 0) in actions
        actions = policy.act(_obs(t=10, scans=[ScanResult(10, 0, True, _T.SIMPLE_SCAN)]))
        assert DefenderAction(_T.REIMAGE, 0) in actions

    def test_clean_scan_terminates_coa(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        policy.act(_obs(t=1, alerts=[Alert(1, 1, 0)]))
        actions = policy.act(_obs(t=3, scans=[ScanResult(3, 0, False, _T.SIMPLE_SCAN)]))
        assert all(a.target != 0 for a in actions)
        # no further actions without a new alert
        assert policy.act(_obs(t=4)) == []

    def test_one_coa_per_node(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        first = policy.act(_obs(t=1, alerts=[Alert(1, 1, 0), Alert(1, 2, 0)]))
        assert len([a for a in first if a.target == 0]) == 1

    def test_plc_repairs(self, env):
        policy = PlaybookPolicy()
        policy.reset(env)
        disrupted = np.zeros(4, bool)
        disrupted[1] = True
        destroyed = np.zeros(4, bool)
        destroyed[2] = True
        actions = policy.act(_obs(plc_disrupted=disrupted, plc_destroyed=destroyed))
        assert DefenderAction(_T.RESET_PLC, 1) in actions
        assert DefenderAction(_T.REPLACE_PLC, 2) in actions


class TestDBNExpert:
    def test_acts_on_suspicious_nodes(self, env, tiny_tables):
        policy = DBNExpertPolicy(tiny_tables, seed=0)
        policy.reset(env)
        obs = _obs()
        # hammer node 0 with alerts until the expert responds
        responded = False
        for t in range(30):
            actions = policy.act(_obs(t=t, alerts=[Alert(t, 2, 0)] * 2))
            if any(a.target == 0 for a in actions):
                responded = True
                break
        assert responded

    def test_max_actions_limits_output(self, env, tiny_tables):
        policy = DBNExpertPolicy(tiny_tables, seed=0, max_actions=1)
        policy.reset(env)
        for t in range(20):
            alerts = [Alert(t, 2, n) for n in range(4)]
            assert len(policy.act(_obs(t=t, alerts=alerts))) <= 1

    def test_plc_repair_prioritized(self, env, tiny_tables):
        policy = DBNExpertPolicy(tiny_tables, seed=0, max_actions=1)
        policy.reset(env)
        destroyed = np.zeros(4, bool)
        destroyed[0] = True
        actions = policy.act(_obs(plc_destroyed=destroyed,
                                  alerts=[Alert(1, 2, 0)]))
        assert actions == [DefenderAction(_T.REPLACE_PLC, 0)]

    def test_mitigation_mapping_follows_belief(self, env, tiny_tables):
        from repro.dbn import CanonicalState as S

        policy = DBNExpertPolicy(tiny_tables, seed=0)
        belief = np.zeros(9)
        belief[S.COMP] = 1.0
        assert policy._sample_mitigation(belief) is _T.REBOOT
        belief[:] = 0.0
        belief[S.COMP_RB] = 1.0
        assert policy._sample_mitigation(belief) is _T.RESET_PASSWORD
        belief[:] = 0.0
        belief[S.ADMIN_CRED] = 1.0
        assert policy._sample_mitigation(belief) is _T.REIMAGE
