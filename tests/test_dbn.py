"""Tests for the dynamic Bayes network: states, filter, learning,
validation."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.dbn import (
    ActionCategory,
    CanonicalState,
    DBNFilter,
    DBNTables,
    N_MU_BUCKETS,
    N_STATES,
    action_category,
    canonical_states,
    collect_episode,
    fit_tables,
    mu_bucket,
    validate_dbn,
)
from repro.dbn.learning import EpisodeLog
from repro.dbn.states import N_ACTION_CATEGORIES, N_SCAN_TYPES, SCAN_TYPE_INDEX
from repro.defenders import SemiRandomPolicy
from repro.net.nodes import Condition
from repro.sim.observations import Alert, Observation, ScanResult
from repro.sim.orchestrator import DefenderAction, DefenderActionType

_S = CanonicalState
_T = DefenderActionType


def _conditions(*conds, n=3):
    row = np.zeros((n, len(Condition)), dtype=bool)
    for cond in conds:
        row[0, cond] = True
    return row


class TestCanonicalStates:
    @pytest.mark.parametrize("conds,expected", [
        ((), _S.CLEAN),
        ((Condition.SCANNED,), _S.SCANNED),
        ((Condition.SCANNED, Condition.COMPROMISED), _S.COMP),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.REBOOT_PERSIST),
         _S.COMP_RB),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN), _S.ADMIN),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN,
          Condition.REBOOT_PERSIST), _S.ADMIN_RB),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN,
          Condition.CRED_PERSIST), _S.ADMIN_CRED),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN,
          Condition.CLEANED), _S.ADMIN_CLEANED),
        ((Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN,
          Condition.CRED_PERSIST, Condition.CLEANED), _S.ADMIN_CRED_CLEANED),
    ])
    def test_mapping(self, conds, expected):
        states = canonical_states(_conditions(*conds))
        assert states[0] == expected
        assert states[1] == _S.CLEAN  # untouched node stays clean

    def test_vectorized_over_nodes(self):
        conds = np.zeros((5, len(Condition)), dtype=bool)
        conds[2, Condition.SCANNED] = True
        states = canonical_states(conds)
        assert list(states) == [0, 0, 1, 0, 0]


class TestBuckets:
    def test_mu_buckets(self):
        assert mu_bucket(0) == 0
        assert mu_bucket(1) == 1
        assert mu_bucket(2) == 1
        assert mu_bucket(3) == 2
        assert mu_bucket(5) == 2
        assert mu_bucket(6) == 3
        assert mu_bucket(50) == 3
        assert mu_bucket(50) == N_MU_BUCKETS - 1

    def test_mu_buckets_of_expected_counts(self):
        """Fractional expected counts bucket as ``np.digitize`` over the
        edges 1, 3, 6 does."""
        counts = [0.0, 0.999, 1.0, 1.5, 2.999, 3.0, 5.999, 6.0, 6.5, 40.25,
                  np.nextafter(3.0, 0.0), np.float64(3.0), np.nan]
        assert [mu_bucket(c) for c in counts] \
            == [int(np.digitize(c, [1, 3, 6])) for c in counts]

    def test_action_categories(self):
        assert action_category(_T.SIMPLE_SCAN) is ActionCategory.INVESTIGATE
        assert action_category(_T.ADVANCED_SCAN) is ActionCategory.INVESTIGATE
        assert action_category(_T.REBOOT) is ActionCategory.REBOOT
        assert action_category(_T.REIMAGE) is ActionCategory.REIMAGE
        assert action_category(_T.QUARANTINE) is ActionCategory.QUARANTINE
        assert action_category(_T.NOOP) is ActionCategory.NONE
        assert action_category(_T.RESET_PLC) is ActionCategory.NONE


def _uniform_tables() -> DBNTables:
    # mostly-identity dynamics with a small leak so likelihood evidence
    # can move belief mass between states
    trans = np.zeros((N_MU_BUCKETS, N_ACTION_CATEGORIES, N_STATES, N_STATES))
    trans[..., :, :] = 0.9 * np.eye(N_STATES) + 0.1 / N_STATES
    alert = np.full((N_STATES, 4), 0.25)
    scan = np.full((N_SCAN_TYPES, N_STATES, 2), 0.5)
    return DBNTables(trans, alert, scan)


def _informative_tables() -> DBNTables:
    tables = _uniform_tables()
    # clean nodes rarely alert; compromised nodes alert often
    tables.alert_lik[:] = 0.02
    tables.alert_lik[_S.CLEAN, 0] = 0.94
    tables.alert_lik[_S.SCANNED, 0] = 0.94
    for s in range(int(_S.COMP), N_STATES):
        tables.alert_lik[s] = (0.55, 0.25, 0.15, 0.05)
    # scans detect compromised nodes
    tables.scan_lik[:, :int(_S.COMP), 1] = 0.01
    tables.scan_lik[:, :int(_S.COMP), 0] = 0.99
    tables.scan_lik[:, int(_S.COMP):, 1] = 0.6
    tables.scan_lik[:, int(_S.COMP):, 0] = 0.4
    return tables


class TestDBNTables:
    def test_shape_validation(self):
        good = _uniform_tables()
        with pytest.raises(ValueError):
            DBNTables(good.transition[:1], good.alert_lik, good.scan_lik)
        with pytest.raises(ValueError):
            DBNTables(good.transition, good.alert_lik[:, :2], good.scan_lik)

    def test_save_load_roundtrip(self, tmp_path):
        tables = _informative_tables()
        path = tmp_path / "dbn.npz"
        tables.save(path)
        loaded = DBNTables.load(path)
        assert np.allclose(loaded.transition, tables.transition)
        assert np.allclose(loaded.alert_lik, tables.alert_lik)
        assert np.allclose(loaded.scan_lik, tables.scan_lik)


class TestDBNFilter:
    def _obs(self, topo_n, alerts=(), scans=(), completed=()):
        return Observation(
            t=1,
            alerts=list(alerts),
            scan_results=list(scans),
            node_busy=np.zeros(topo_n, bool),
            plc_busy=np.zeros(0, bool),
            quarantined=np.zeros(topo_n, bool),
            completed_actions=list(completed),
        )

    @pytest.fixture()
    def topo(self):
        from repro.net import build_topology

        return build_topology(tiny_network().topology)

    def test_starts_clean(self, topo):
        dbn = DBNFilter(_uniform_tables(), topo)
        assert np.allclose(dbn.beliefs[:, _S.CLEAN], 1.0)
        assert dbn.expected_compromised == 0.0

    def test_beliefs_stay_normalized(self, topo):
        dbn = DBNFilter(_informative_tables(), topo)
        rng = np.random.default_rng(0)
        for t in range(50):
            alerts = [Alert(t, int(rng.integers(1, 4)), int(rng.integers(topo.n_nodes)))]
            dbn.update(self._obs(topo.n_nodes, alerts=alerts))
            assert np.allclose(dbn.beliefs.sum(axis=1), 1.0)
            assert (dbn.beliefs >= 0).all()

    def test_given_severities_match_computed_ones(self, topo):
        tables = _informative_tables()
        computed, given = DBNFilter(tables, topo), DBNFilter(tables, topo)
        rng = np.random.default_rng(1)
        for t in range(30):
            alerts = [Alert(t, int(rng.integers(1, 4)),
                            int(rng.integers(topo.n_nodes)))
                      for _ in range(int(rng.integers(0, 4)))]
            obs = self._obs(topo.n_nodes, alerts=alerts)
            computed.update(obs)
            given.update(obs, obs.alert_severity_per_node(topo.n_nodes))
            assert computed.beliefs.tobytes() == given.beliefs.tobytes()

    def test_alerts_raise_suspicion(self, topo):
        dbn = DBNFilter(_informative_tables(), topo)
        baseline = dbn.prob_compromised()[0]
        for t in range(5):
            dbn.update(self._obs(topo.n_nodes, alerts=[Alert(t, 2, 0)]))
        assert dbn.prob_compromised()[0] > baseline
        # nodes without alerts get *less* suspicious than the alerted one
        assert dbn.prob_compromised()[0] > dbn.prob_compromised()[1]

    def test_detected_scan_raises_clean_scan_lowers(self, topo):
        tables = _informative_tables()
        dbn = DBNFilter(tables, topo)
        for t in range(3):
            dbn.update(self._obs(topo.n_nodes, alerts=[Alert(t, 2, 0), Alert(t, 2, 1)]))
        p0 = dbn.prob_compromised()[0]
        p1 = dbn.prob_compromised()[1]
        detect = ScanResult(4, 0, True, _T.SIMPLE_SCAN)
        clean = ScanResult(4, 1, False, _T.SIMPLE_SCAN)
        dbn.update(self._obs(topo.n_nodes, scans=[detect, clean]))
        assert dbn.prob_compromised()[0] > p0
        assert dbn.prob_compromised()[1] < p1

    def test_reset(self, topo):
        dbn = DBNFilter(_informative_tables(), topo)
        dbn.update(self._obs(topo.n_nodes, alerts=[Alert(0, 3, 0)]))
        dbn.reset()
        assert np.allclose(dbn.beliefs[:, _S.CLEAN], 1.0)

    def test_completed_reimage_uses_reimage_transition(self, topo):
        tables = _informative_tables()
        # re-image deterministically returns nodes to CLEAN
        tables.transition[:, ActionCategory.REIMAGE, :, :] = 0.0
        tables.transition[:, ActionCategory.REIMAGE, :, _S.CLEAN] = 1.0
        dbn = DBNFilter(tables, topo)
        for t in range(5):
            dbn.update(self._obs(topo.n_nodes, alerts=[Alert(t, 3, 0)]))
        assert dbn.prob_compromised()[0] > 0.1
        reimage = DefenderAction(_T.REIMAGE, 0)
        dbn.update(self._obs(topo.n_nodes, completed=[reimage]))
        assert dbn.prob_compromised()[0] < 0.1


class TestLearning:
    def test_collect_episode_shapes(self):
        cfg = tiny_network(tmax=40)
        env = repro.make_env(cfg, seed=0)
        log = collect_episode(env, SemiRandomPolicy(rate=2.0), seed=0)
        steps = log.action_cats.shape[0]
        assert log.states.shape == (steps + 1, env.topology.n_nodes)
        assert log.alert_levels.shape == (steps, env.topology.n_nodes)
        assert steps == 40

    @staticmethod
    def _loop_tables(logs, smoothing=0.5):
        """``fit_tables`` as a per-step loop: the reference its one
        ``np.add.at`` per table must match bit for bit."""
        trans = np.full((N_MU_BUCKETS, N_ACTION_CATEGORIES, N_STATES,
                         N_STATES), smoothing)
        trans += 10.0 * smoothing * np.eye(N_STATES)
        alert = np.full((N_STATES, 4), smoothing)
        scan = np.full((N_SCAN_TYPES, N_STATES, 2), smoothing)
        for log in logs:
            for t in range(log.action_cats.shape[0]):
                s_prev, s_next = log.states[t], log.states[t + 1]
                mu = mu_bucket(int((s_prev >= 2).sum()))
                np.add.at(trans, (mu, log.action_cats[t], s_prev, s_next), 1.0)
                np.add.at(alert, (s_next, log.alert_levels[t]), 1.0)
            for t, node, scan_idx, detected in log.scans:
                scan[scan_idx, log.states[t][node], int(detected)] += 1.0
        return [table / table.sum(axis=-1, keepdims=True)
                for table in (trans, alert, scan)]

    def test_fit_tables_equals_the_per_step_loop(self):
        cfg = tiny_network(tmax=60)
        logs = [collect_episode(repro.make_env(cfg, seed=0),
                                SemiRandomPolicy(rate=rate), seed=seed)
                for seed, rate in ((0, 2.0), (1, 5.0), (2, 0.0))]
        # every mu bucket, and a log without steps or scans
        rng = np.random.default_rng(0)
        # fewer nodes at states >= 2 early on, more later
        states = rng.integers(0, N_STATES, size=(41, 12)) \
            * (rng.random((41, 12)) < np.linspace(0.0, 1.0, 41)[:, None])
        assert {mu_bucket(int((row >= 2).sum())) for row in states[:-1]} \
            == set(range(N_MU_BUCKETS))
        logs.append(EpisodeLog(
            states=states,
            action_cats=rng.integers(0, N_ACTION_CATEGORIES, size=(40, 12)),
            alert_levels=rng.integers(0, 4, size=(40, 12)),
            scans=[(t, t % 12, t % N_SCAN_TYPES, bool(t % 2))
                   for t in range(0, 40, 3)]))
        logs.append(EpisodeLog(states=states[:1], action_cats=np.zeros((0, 12)),
                               alert_levels=np.zeros((0, 12)), scans=[]))
        assert any(log.scans for log in logs[:3])
        tables = fit_tables(logs)
        got = [tables.transition, tables.alert_lik, tables.scan_lik]
        for table, want in zip(got, self._loop_tables(logs)):
            assert table.tobytes() == want.tobytes()

    def test_fit_tables_are_distributions(self, tiny_tables):
        assert np.allclose(tiny_tables.transition.sum(axis=-1), 1.0)
        assert np.allclose(tiny_tables.alert_lik.sum(axis=-1), 1.0)
        assert np.allclose(tiny_tables.scan_lik.sum(axis=-1), 1.0)

    def test_fitted_dynamics_are_sensible(self, tiny_tables):
        # a clean node under no action stays mostly clean
        stay_clean = tiny_tables.transition[0, 0, _S.CLEAN, _S.CLEAN]
        assert stay_clean > 0.5
        # compromised nodes alert more often than clean nodes
        p_alert_comp = 1 - tiny_tables.alert_lik[_S.COMP_RB, 0]
        p_alert_clean = 1 - tiny_tables.alert_lik[_S.CLEAN, 0]
        assert p_alert_comp > p_alert_clean

    def test_validation_scores_fitted_dbn(self, tiny_tables):
        cfg = tiny_network(tmax=80)
        result = validate_dbn(
            lambda: repro.make_env(cfg),
            lambda: SemiRandomPolicy(rate=3.0),
            tiny_tables,
            episodes=2,
            seed=50,
        )
        assert result.steps > 0
        # smoke threshold: the tiny fit faces a stealthy (cleaned) APT,
        # so accuracy is well below the paper-network figure (~0.75)
        assert result.accuracy > 0.45
        assert result.mean_kl < 2.5
        assert np.isfinite(result.max_kl)


# ----------------------------------------------------------------------
# the filter and featurizer against their earlier form, byte for byte
# ----------------------------------------------------------------------
_EPS = 1e-12


def _oracle_update(tables: DBNTables, beliefs: np.ndarray, obs: Observation,
                   severities: np.ndarray):
    """``DBNFilter.update`` as it was before the no-action fast path: one
    masked matmul per completing category (no action included), then a
    normalization into a new array. Returns (beliefs, degenerate rows)."""
    n = len(beliefs)
    mu = mu_bucket(float(beliefs[:, _S.COMP:].sum()))
    categories = np.zeros(n, dtype=np.int64)
    for action in obs.completed_actions:
        cat = action_category(action.atype)
        if cat is not ActionCategory.NONE and action.target is not None \
                and action.target < n:
            categories[action.target] = int(cat)
    new_beliefs = np.empty_like(beliefs)
    for cat in np.unique(categories):
        mask = categories == cat
        new_beliefs[mask] = beliefs[mask] @ tables.transition[mu, cat]
    new_beliefs *= np.ascontiguousarray(tables.alert_lik.T)[severities]
    for result in obs.scan_results:
        scan_idx = SCAN_TYPE_INDEX.get(result.action_type)
        if scan_idx is None or result.node_id >= n:
            continue
        new_beliefs[result.node_id] *= tables.scan_lik[
            scan_idx, :, int(result.detected)]
    sums = new_beliefs.sum(axis=1, keepdims=True)
    degenerate = (sums <= _EPS).ravel()
    if degenerate.any():
        new_beliefs[degenerate] = 1.0 / N_STATES
        sums = new_beliefs.sum(axis=1, keepdims=True)
    return new_beliefs / sums, int(degenerate.sum())


def _oracle_features(static: np.ndarray, n_plcs: int, beliefs: np.ndarray,
                     obs: Observation, severities: np.ndarray):
    """``ACSOFeaturizer.update``'s arrays as it built them before filling
    them in place: five concatenated temporaries, a stacked PLC array."""
    n = len(beliefs)
    node = np.concatenate([
        beliefs,
        static,
        obs.quarantined[:, None].astype(float),
        obs.node_busy[:, None].astype(float),
        (severities / 3.0)[:, None],
    ], axis=1)
    plc = np.stack([obs.plc_disrupted.astype(float),
                    obs.plc_destroyed.astype(float),
                    obs.plc_busy.astype(float)], axis=1)
    m = max(1, n_plcs)
    glob = np.array([obs.plc_disrupted.sum() / m, obs.plc_destroyed.sum() / m,
                     float(beliefs[:, _S.COMP:].sum()) / max(1, n)])
    return node, plc, glob


def _recorded_episode(config, steps: int, seed: int):
    """A semi-random defender's observations on ``config``, with events
    added at fixed steps so every update branch runs: a reboot and a
    re-image completing on node 1 together, a password reset and a
    quarantine elsewhere, mixed completions on every node but the last
    and on every node, and a detected human analysis of node 0 (zero
    likelihood under ``_zero_analysis_tables``)."""
    env = repro.make_env(config, seed=seed)
    policy = SemiRandomPolicy(rate=4.0, seed=seed)
    obs = env.reset(seed=seed)
    policy.reset(env)
    episode = []
    for _ in range(steps):
        episode.append(obs)
        obs, _, done, _ = env.step(policy.act(obs))
        if done:
            break
    mixed = (_T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE, _T.QUARANTINE,
             _T.SIMPLE_SCAN)
    n = env.topology.n_nodes
    extra = {
        3: [DefenderAction(_T.REBOOT, 1), DefenderAction(_T.REIMAGE, 1)],
        7: [DefenderAction(_T.RESET_PASSWORD, 2),
            DefenderAction(_T.QUARANTINE, 0)],
        11: [DefenderAction(mixed[i % 5], i) for i in range(n - 1)],
        13: [DefenderAction(mixed[i % 5], i) for i in range(n)],
    }
    for step, actions in extra.items():
        episode[step].completed_actions = \
            list(episode[step].completed_actions) + actions
    episode[9].scan_results = list(episode[9].scan_results) + [
        ScanResult(9, 0, True, _T.HUMAN_ANALYSIS),
        ScanResult(9, 1, False, _T.SIMPLE_SCAN)]
    return env.topology, episode


def _zero_analysis_tables(tables: DBNTables) -> DBNTables:
    """``tables`` under which a detected human analysis is impossible in
    every state: its node's likelihood product is zero."""
    scan = tables.scan_lik.copy()
    scan[SCAN_TYPE_INDEX[_T.HUMAN_ANALYSIS], :, 1] = 0.0
    return DBNTables(tables.transition.copy(), tables.alert_lik.copy(), scan)


class TestUpdateOracle:
    """``DBNFilter.update`` (one matmul over every row when no action
    completes, normalization in place) and ``ACSOFeaturizer.update``
    (arrays filled in place) give their earlier form's bytes."""

    @pytest.mark.parametrize("network, steps", [("tiny", 120), ("paper", 40)])
    def test_beliefs_and_features_equal_the_oracle(self, network, steps,
                                                   tiny_tables):
        from repro.config import paper_network
        from repro.rl import ACSOFeaturizer

        config = {"tiny": tiny_network, "paper": paper_network}[network](
            tmax=steps + 10)
        topology, episode = _recorded_episode(config, steps, seed=3)
        tables = _zero_analysis_tables(tiny_tables)
        featurizer = ACSOFeaturizer(topology, tables)
        dbn = DBNFilter(tables, topology)
        beliefs = DBNFilter(tables, topology).beliefs
        n = topology.n_nodes
        seen = {"categories": set(), "two on one node": 0, "scans": 0,
                "degenerate": 0, "no action": 0, "one idle node": 0,
                "no idle node": 0}
        for step, obs in enumerate(episode):
            severities = obs.alert_severity_per_node(n)
            beliefs, degenerate = _oracle_update(tables, beliefs, obs,
                                                 severities)
            features = featurizer.update(obs)
            assert dbn.update(obs).tobytes() == beliefs.tobytes(), step
            assert featurizer.dbn.beliefs.tobytes() == beliefs.tobytes(), step
            want = _oracle_features(featurizer._static, topology.n_plcs,
                                    beliefs, obs, severities)
            for got, expected in zip((features.node, features.plc,
                                      features.glob), want):
                assert got.shape == expected.shape, step
                assert got.tobytes() == expected.tobytes(), step
            categories = [action_category(a.atype)
                          for a in obs.completed_actions]
            targets = [a.target for a in obs.completed_actions
                       if action_category(a.atype) is not ActionCategory.NONE]
            seen["categories"].update(categories)
            seen["two on one node"] += len(targets) > len(set(targets))
            seen["scans"] += len(obs.scan_results)
            seen["degenerate"] += degenerate
            seen["no action"] += not targets
            seen["one idle node"] += len(set(targets)) == n - 1
            seen["no idle node"] += len(set(targets)) == n
        assert len(seen["categories"] - {ActionCategory.NONE}) >= 3, seen
        assert seen["two on one node"] and seen["scans"], seen
        assert seen["degenerate"] and seen["no action"], seen
        assert seen["one idle node"] and seen["no idle node"], seen

    def test_reset_replaces_the_returned_beliefs(self, tiny_tables):
        """A reset leaves the matrix an update returned untouched, and
        the expected count follows the new matrix."""
        from repro.net import build_topology

        topology = build_topology(tiny_network().topology)
        dbn = DBNFilter(tiny_tables, topology)
        obs = Observation(t=1, alerts=[Alert(1, 3, 0), Alert(1, 2, 2)],
                          node_busy=np.zeros(topology.n_nodes, bool),
                          quarantined=np.zeros(topology.n_nodes, bool))
        returned = dbn.update(obs)
        kept = returned.copy()
        assert dbn.expected_compromised \
            == float(returned[:, _S.COMP:].sum()) > 0.0
        dbn.reset()
        assert returned.tobytes() == kept.tobytes()
        assert dbn.beliefs is not returned
        assert dbn.expected_compromised == 0.0
