"""BatchedVectorEnv: bit-exact parity with sync plus adoption contracts.

The batched backend's core guarantee is that its array programs are an
*implementation* detail: every observation, reward, done flag, and info
entry is bit-identical to the sync backend's, lane for lane, step for
step — including across auto-reset boundaries, masked lanes, manual
``reset_env`` calls, and the quiescent-lane fast path (exercised by
every way of launching nothing). The committed golden fixtures must
replay identically through a one-lane batched env.

Also pinned here: the state-adoption contract the batched engine relies
on (every simulator mutation is an in-place element write into the
adopted row views), the geometry preconditions, and the read-only
snapshot arrays that quiescent steps share.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.defenders import NoopPolicy
from repro.eval.runner import evaluate_policy_vec
from repro.sim.batched_engine import BatchedVectorEnv
from repro.sim.orchestrator import NOOP

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate",
    pathlib.Path(__file__).parent / "golden" / "regenerate.py",
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)


# ----------------------------------------------------------------------
# fingerprint helpers: everything a consumer can see, exactly
# ----------------------------------------------------------------------
def _obs_fp(obs):
    return (
        obs.t,
        tuple((a.t, a.severity, a.node_id, a.device_id, a.source)
              for a in obs.alerts),
        tuple((s.t, s.node_id, s.detected) for s in obs.scan_results),
        obs.plc_disrupted.tolist(),
        obs.plc_destroyed.tolist(),
        obs.node_busy.tolist(),
        obs.plc_busy.tolist(),
        obs.quarantined.tolist(),
        tuple(repr(a) for a in obs.completed_actions),
    )


def _info_fp(info):
    out = {}
    for key in sorted(info):
        value = info[key]
        if key == "reward_breakdown":
            out[key] = (value.r_plc, value.r_it, value.r_term,
                        value.total, value.it_cost)
        elif key == "final_observation":
            out[key] = _obs_fp(value)
        elif key == "conditions":
            out[key] = value.tolist()
        elif key in ("launched", "completed"):
            out[key] = None if value is None else tuple(repr(a) for a in value)
        else:
            out[key] = value
    return tuple(sorted(out.items(), key=lambda kv: kv[0]))


def _step_fp(step):
    return (
        tuple(_obs_fp(o) for o in step.observations),
        step.rewards.tolist(),
        step.dones.tolist(),
        tuple(_info_fp(info) for info in step.infos),
    )


def _rollout_fp(venv, steps, seed, action_seed=None, mask_every=None):
    """Full-visibility fingerprint of a seeded rollout.

    ``action_seed=None`` steps with no actions (quiescent lanes take
    the batched fast path); otherwise random valid actions, which
    force the slow path on every lane that launches one. With
    ``mask_every=k``, every k-th step masks out half the lanes.
    """
    rng = (None if action_seed is None
           else np.random.default_rng(action_seed))
    obs = venv.reset(seed=seed)
    trace = [tuple(_obs_fp(o) for o in obs)]
    for step_idx in range(steps):
        actions = None if rng is None else venv.sample_actions(rng)
        mask = None
        if mask_every and step_idx % mask_every == 0:
            mask = [i % 2 == 0 for i in range(venv.num_envs)]
        trace.append(_step_fp(venv.step(actions, mask=mask)))
        trace.append(venv.action_masks().tolist())
    return trace


def _pair(scenario, n, seed, horizon=None, auto_reset=True, **kwargs):
    sync = repro.make_vec(scenario, n, seed=seed, horizon=horizon,
                          auto_reset=auto_reset, backend="sync", **kwargs)
    batched = repro.make_vec(scenario, n, seed=seed, horizon=horizon,
                             auto_reset=auto_reset, backend="batched",
                             **kwargs)
    assert isinstance(batched, BatchedVectorEnv)
    return sync, batched


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestBatchedParity:
    def test_noop_workload_matches_sync(self):
        """The quiescent-lane fast path is bit-identical to sync."""
        sync, batched = _pair("inasim-tiny-v1", 4, seed=0)
        assert _rollout_fp(sync, 60, seed=17) == \
            _rollout_fp(batched, 60, seed=17)

    def test_random_actions_match_sync(self):
        sync, batched = _pair("inasim-small-v1", 4, seed=0)
        assert _rollout_fp(sync, 40, seed=5, action_seed=9) == \
            _rollout_fp(batched, 40, seed=5, action_seed=9)

    def test_parity_spans_auto_reset_boundaries(self):
        """Reseed schedule seed+i+N*episode survives the batched path."""
        sync, batched = _pair("inasim-tiny-v1", 3, seed=0, horizon=8)
        fp_s = _rollout_fp(sync, 40, seed=3)
        # the horizon guarantees episodes rolled over mid-run
        assert any("final_observation" in dict(info)
                   for entry in fp_s if isinstance(entry, tuple)
                   and len(entry) == 4 for info in entry[3])
        assert fp_s == _rollout_fp(batched, 40, seed=3)

    def test_parity_without_auto_reset(self):
        """Terminal lanes freeze identically when auto_reset is off."""
        sync, batched = _pair("inasim-tiny-v1", 3, seed=0, horizon=8,
                              auto_reset=False)
        assert _rollout_fp(sync, 20, seed=3) == \
            _rollout_fp(batched, 20, seed=3)

    def test_parity_with_masked_lanes(self):
        sync, batched = _pair("inasim-tiny-v1", 4, seed=0, horizon=12)
        assert _rollout_fp(sync, 30, seed=11, mask_every=3) == \
            _rollout_fp(batched, 30, seed=11, mask_every=3)

    def test_parity_on_paper_network(self):
        sync, batched = _pair("inasim-paper-v1", 4, seed=1234)
        assert _rollout_fp(sync, 30, seed=1234) == \
            _rollout_fp(batched, 30, seed=1234)

    def test_parity_heterogeneous_configs(self):
        """Same geometry, different reward weights/horizons per lane."""
        specs = ["paper-availability-v1", "paper-cost-sensitive-v1",
                 "paper-stealth-v1"]
        sync = repro.make_vec_from_specs(specs, seed=0, backend="sync")
        batched = repro.make_vec_from_specs(specs, seed=0, backend="batched")
        assert _rollout_fp(sync, 25, seed=6) == \
            _rollout_fp(batched, 25, seed=6)

    def test_reset_env_matches_sync(self):
        """Manual lane resets re-adopt state without breaking parity."""
        sync, batched = _pair("inasim-tiny-v1", 3, seed=0)
        sync.reset(seed=4)
        batched.reset(seed=4)
        for venv in (sync, batched):
            for _ in range(6):
                venv.step(None)
            venv.reset_env(1, seed=99)
        fp_s = [_step_fp(sync.step(None)) for _ in range(20)]
        fp_b = [_step_fp(batched.step(None)) for _ in range(20)]
        assert fp_s == fp_b


# ----------------------------------------------------------------------
# property fuzz: batched == sync, key for key, under random drive
# ----------------------------------------------------------------------
class TestBatchedParityFuzz:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 4),
        steps=st.integers(4, 20),
        horizon=st.one_of(st.none(), st.integers(5, 12)),
        auto_reset=st.booleans(),
        action_mode=st.sampled_from(["none", "random", "mixed", "empty",
                                     "noop-action", "noop-index", "busy"]),
        driver_mask=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_trajectories_match(self, seed, n, steps, horizon,
                                       auto_reset, action_mode, driver_mask):
        """Every observation field, reward, done, and info entry is
        bit-identical between backends under fuzzed workloads — the
        fast-path gate, auto-reset boundaries, and per-lane RNG
        scheduling all have to agree for this to hold.

        The modes cover every way of launching nothing: no action,
        ``[]`` (what rule-based policies send), the noop action and its
        index 0 (what Q-policies send), and, in ``busy``, an action on
        a target an earlier step made busy, which the engine rejects.
        ``driver_mask`` steps like ``drive_vec_episodes``: a lane mask
        on every step, with no action for the masked-out lanes."""
        sync, batched = _pair("inasim-tiny-v1", n, seed=0, horizon=horizon,
                              auto_reset=auto_reset)
        rng_s = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)

        def busy_or_nothing(venv, rng):
            actions: list = []
            for lane_mask in venv.action_masks():
                busy = np.flatnonzero(~lane_mask)
                actions.append(int(busy[rng.integers(busy.size)])
                               if busy.size else [])
            return actions

        def drive(venv, rng):
            obs = venv.reset(seed=seed)
            trace = [tuple(_obs_fp(o) for o in obs)]
            for step_idx in range(steps):
                if action_mode == "none":
                    actions = None
                elif action_mode == "random":
                    actions = venv.sample_actions(rng)
                elif action_mode == "mixed":
                    actions = (None if step_idx % 2 else
                               venv.sample_actions(rng))
                elif action_mode == "empty":
                    actions = [[] for _ in range(n)]
                elif action_mode == "noop-action":
                    actions = [NOOP] * n
                elif action_mode == "noop-index":
                    actions = np.zeros(n, dtype=np.int64)
                else:
                    actions = (busy_or_nothing(venv, rng) if step_idx % 2
                               else venv.sample_actions(rng))
                mask = None
                if driver_mask:
                    mask = [(step_idx + i) % 3 != 0 for i in range(n)]
                    actions = [None if not live else
                               (None if actions is None else actions[i])
                               for i, live in enumerate(mask)]
                trace.append(_step_fp(venv.step(actions, mask=mask)))
            return trace

        assert drive(sync, rng_s) == drive(batched, rng_b)


# ----------------------------------------------------------------------
# the fast path serves every form of "no defender action"
# ----------------------------------------------------------------------
def _count_refreshes(venv, monkeypatch) -> list:
    """Record every lane snapshot refresh of a batched env."""
    calls: list[int] = []
    refresh = venv._refresh_lane_snapshots

    def counting(i):
        calls.append(i)
        refresh(i)

    monkeypatch.setattr(venv, "_refresh_lane_snapshots", counting)
    return calls


class TestIdleLaneFastPath:
    def test_driver_noop_run_skips_most_refreshes(self, monkeypatch):
        """A noop evaluation steps through ``drive_vec_episodes``, which
        sends each lane the policy's ``[]`` under a lane mask; quiet
        lanes must still take the fast path, so snapshots are refreshed
        on well under half the lane-steps (slow steps and resets)."""
        venv = repro.make_vec("inasim-small-v1", 4, seed=0,
                              backend="batched")
        calls = _count_refreshes(venv, monkeypatch)
        lane_steps = []
        step = venv.step

        def counting_step(actions=None, mask=None):
            lane_steps.append(sum(mask))
            return step(actions, mask=mask)

        monkeypatch.setattr(venv, "step", counting_step)
        evaluate_policy_vec(venv, NoopPolicy(), 4, seed=0, max_steps=300)
        assert sum(lane_steps) == 4 * 300
        assert len(calls) < sum(lane_steps) / 2

    @pytest.mark.parametrize("form", ["empty", "noop-action", "noop-index",
                                      "busy"])
    def test_launching_nothing_steps_like_no_action(self, form,
                                                    monkeypatch):
        """Every form of launching nothing refreshes exactly the
        snapshots ``step(None)`` does, with the same trajectory: the
        fast path is taken exactly when a lane launches nothing."""
        n, steps = 4, 7  # the 8 h human analysis keeps node 0 busy
        analyse_node_0 = 3
        forms = {
            "empty": [[] for _ in range(n)],
            "noop-action": [NOOP] * n,
            "noop-index": np.zeros(n, dtype=np.int64),
            "busy": [analyse_node_0] * n,
        }
        runs = []
        for actions in (None, forms[form]):
            venv = repro.make_vec("inasim-small-v1", n, seed=0,
                                  backend="batched")
            venv.reset(seed=5)
            venv.step([analyse_node_0] * n)
            assert not venv.action_masks()[:, analyse_node_0].any()
            calls = _count_refreshes(venv, monkeypatch)
            results = [venv.step(actions) for _ in range(steps)]
            assert not any(info["launched"]
                           for step in results for info in step.infos)
            runs.append(([_step_fp(step) for step in results], len(calls)))
        assert runs[1] == runs[0]
        assert runs[0][1] < n * steps


class TestReadOnlySnapshots:
    def test_writing_a_batched_observation_raises(self):
        """Quiescent steps hand out the same snapshot arrays again, so
        every array a batched step returns is read-only: a consumer
        that writes one fails instead of corrupting later steps."""
        venv = repro.make_vec("inasim-tiny-v1", 2, backend="batched", seed=0)
        venv.reset(seed=0)
        analyse_node_0 = 3
        steps = [venv.step([analyse_node_0, None]), venv.step(None),
                 venv.step([[], NOOP])]
        assert steps[0].observations[0].node_busy.any()
        for step in steps:
            for obs, info in zip(step.observations, step.infos):
                for array in (obs.plc_disrupted, obs.plc_destroyed,
                              obs.node_busy, obs.plc_busy, obs.quarantined,
                              info["conditions"]):
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = True


# ----------------------------------------------------------------------
# golden fixtures through the batched backend
# ----------------------------------------------------------------------
def _batched_rollout_digest(scenario_id: str, seed: int, steps: int) -> dict:
    """The golden playbook rollout, driven through a 1-lane batched env."""
    from repro.defenders import PlaybookPolicy

    venv = repro.make_vec(scenario_id, 1, backend="batched")
    obs = venv.reset(seed=seed)[0]
    policy = PlaybookPolicy()
    policy.reset(venv.envs[0])
    rewards, dones, alerts, masks, observations = [], [], [], [], []
    for _ in range(steps):
        masks.append(_regen.mask_digest(venv.action_masks()[0]))
        step = venv.step([policy.act(obs)])
        obs = step.observations[0]
        rewards.append(float(step.rewards[0]))
        dones.append(bool(step.dones[0]))
        alerts.append(len(obs.alerts))
        observations.append(_regen.observation_digest(obs))
        if step.dones[0]:
            break
    return {
        "rewards": rewards,
        "dones": dones,
        "n_alerts": alerts,
        "action_mask_sha256_16": masks,
        "observation_sha256_16": observations,
    }


@pytest.mark.parametrize("scenario_id", [
    "inasim-tiny-v1", "inasim-small-v1", "inasim-paper-v1",
    "paper-destroy-opc-v1", "small-scripted-rush-v1",
])
def test_golden_fixture_replays_through_batched(scenario_id):
    """The committed golden digests replay bit-identically batched.

    auto_reset stays on (the vec default): the digest stops at the
    first done, before any reset divergence could show.
    """
    path = _regen.fixture_path(scenario_id)
    with open(path) as handle:
        golden = json.load(handle)
    fresh = _batched_rollout_digest(scenario_id, seed=golden["seed"],
                                    steps=golden["steps"])
    assert fresh["rewards"] == golden["rewards"]
    assert fresh["dones"] == golden["dones"]
    assert fresh["n_alerts"] == golden["n_alerts"]
    assert fresh["action_mask_sha256_16"] == golden["action_mask_sha256_16"]
    assert fresh["observation_sha256_16"] == golden["observation_sha256_16"]


# ----------------------------------------------------------------------
# adoption + geometry contracts
# ----------------------------------------------------------------------
class TestAdoptionContract:
    def test_lane_state_aliases_batch_rows(self):
        """After adoption every state array is a view of a batch row,
        and engine writes land in the batch arrays (the property the
        whole SoA design rests on)."""
        venv = repro.make_vec("inasim-tiny-v1", 3, backend="batched", seed=0)
        venv.reset(seed=0)
        for i, env in enumerate(venv.envs):
            state = env.sim.state
            assert np.shares_memory(state.conditions, venv._C[i])
            assert np.shares_memory(state.quarantined, venv._QUAR[i])
            assert np.shares_memory(state.plc_firmware, venv._PLC_FW[i])
            assert np.shares_memory(state.node_busy_until,
                                    venv._NODE_BUSY[i])
        # a direct engine-style in-place write is visible batch-side
        venv.envs[1].sim.state.conditions[0, 0] = True
        assert venv._C[1, 0, 0]

    def test_adoption_survives_auto_reset(self):
        venv = repro.make_vec("inasim-tiny-v1", 2, backend="batched",
                              seed=0, horizon=6)
        venv.reset(seed=0)
        for _ in range(15):  # crosses episode boundaries
            venv.step(None)
        for i, env in enumerate(venv.envs):
            assert np.shares_memory(env.sim.state.conditions, venv._C[i])

    def test_mixed_geometry_rejected(self):
        envs = [repro.make("inasim-tiny-v1", seed=0),
                repro.make("inasim-small-v1", seed=0)]
        # the base class already rejects mixed action spaces; the
        # batched subclass adds the node/PLC-count check on top
        with pytest.raises(ValueError,
                           match="geometry|action space"):
            BatchedVectorEnv(envs)

    def test_observations_are_snapshots(self):
        """Returned observation arrays never alias the live batch rows
        (later steps must not mutate what a consumer already holds)."""
        venv = repro.make_vec("inasim-tiny-v1", 2, backend="batched", seed=0)
        venv.reset(seed=0)
        step = venv.step(None)
        for i, obs in enumerate(step.observations):
            assert not np.shares_memory(obs.quarantined, venv._QUAR[i])
            assert not np.shares_memory(obs.plc_disrupted, venv._PLC_DIS[i])
            assert not np.shares_memory(obs.plc_destroyed, venv._PLC_DES[i])
