"""Chaos suite: worker supervision under injected faults.

Every test here drives the *real* failure paths — ``os._exit`` inside a
live worker process, wedged steps, byte-flipped reply frames, crashes
mid-relane — through :mod:`repro.testing.faults`, and then pins the
paper's determinism contract: a supervised run that ate worker faults
produces **bit-identical** trajectories to a fault-free one, because
recovery replays each lane's journaled actions on the fixed
``seed + i + N * episode`` schedule.

The fast tests run on the tiny network and are part of the CI
``chaos-smoke`` job (``-m "chaos and not slow"``). The paper-network
parity test (the issue's acceptance criterion) is ``chaos`` *and*
``slow`` and runs in the nightly matrix.
"""

import multiprocessing as mp

import numpy as np
import pytest

import repro
from repro.defenders import PlaybookPolicy
from repro.eval.runner import evaluate_policy_vec
from repro.sim import vec_transport as vt
from repro.sim.orchestrator import DefenderAction, DefenderActionType
from repro.sim.vec_backends import VecPool, WorkerDiedError
from repro.testing import FaultPlan, inject_faults
from repro.testing.faults import frame_check_from_env, plan_from_env

pytestmark = pytest.mark.chaos


def _specs(n, horizon=10):
    base = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=horizon)
    return [base] * n


def _sync_rewards(n=4, steps=12, horizon=10):
    venv = repro.make_vec_from_specs(_specs(n, horizon), seed=0)
    venv.reset(seed=0)
    return np.stack([venv.step(None).rewards.copy() for _ in range(steps)])


def _chaos_rewards(backend, plan, n=4, steps=12, horizon=10, num_workers=2,
                   **sup):
    """Run ``steps`` lockstep steps under ``plan``; the *entire* run —
    construction included — sits inside ``inject_faults`` so respawned
    workers re-arm the same plan from the environment."""
    with inject_faults(plan):
        venv = repro.make_vec_from_specs(_specs(n, horizon), seed=0,
                                         backend=backend,
                                         num_workers=num_workers)
        try:
            if sup:
                venv.configure_supervision(**sup)
            venv.reset(seed=0)
            rewards = np.stack(
                [venv.step(None).rewards.copy() for _ in range(steps)])
            stats = venv.fault_stats
        finally:
            venv.close()
    return rewards, stats


class TestHarness:
    def test_plan_json_round_trip(self):
        plan = FaultPlan(seed=3, kill_every=5, kill_on_steps=(2, 9),
                         kill_worker=1, delay_on_step=4, delay_seconds=0.5,
                         corrupt_on_steps=(7,), fail_relane=2)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_plan_from_json_ignores_unknown_keys(self):
        plan = FaultPlan.from_json(
            '{"kill_every": 3, "future_knob": true, "kill_on_steps": [1, 2]}')
        assert plan == FaultPlan(kill_every=3, kill_on_steps=(1, 2))

    def test_inject_faults_restores_environment(self):
        assert plan_from_env() is None
        with inject_faults(FaultPlan(corrupt_on_steps=(1,))) as plan:
            assert plan_from_env() == plan
            assert frame_check_from_env()  # armed automatically
        assert plan_from_env() is None
        assert not frame_check_from_env()

    def test_restore_codec_round_trip(self):
        act = DefenderAction(DefenderActionType.QUARANTINE, 0)
        states = [
            (vt.RESTORE_VIRGIN, None, 0, [None, 3, [act]]),
            (vt.RESTORE_RESET, 17, 2, []),
            (vt.RESTORE_REBUILT, -4, 1, [7, None]),
        ]
        buf = vt.encode_restore_cmd(states)
        assert buf[0] == vt.OP_RESTORE
        decoded = vt.decode_restore_cmd(buf, len(states))
        for (kind, seed, count, actions), (k2, s2, c2, a2) in zip(states,
                                                                  decoded):
            assert (kind, seed, count) == (k2, s2, c2)
            assert len(actions) == len(a2)
            for orig, back in zip(actions, a2):
                if isinstance(orig, list):
                    assert [(a.atype, a.target) for a in orig] \
                        == [(a.atype, a.target) for a in back]
                else:
                    assert orig == back

    def test_frame_seal_and_open(self):
        body = bytearray(b"step-reply-payload")
        sealed = vt.seal_frame(bytearray(body))
        assert bytes(vt.open_frame(sealed)) == bytes(body)
        corrupt = bytearray(sealed)
        corrupt[len(corrupt) // 2] ^= 0xFF
        with pytest.raises(vt.FrameError):
            vt.open_frame(corrupt)
        with pytest.raises(vt.FrameError):
            vt.open_frame(b"abc")


class TestRecoveryParity:
    """Killed, wedged, and corrupted workers recover bit-exactly."""

    @pytest.mark.parametrize("backend", ["process"])
    def test_kill_recovery_is_bit_identical(self, backend):
        clean = _sync_rewards()
        chaotic, stats = _chaos_rewards(
            backend, FaultPlan(seed=2, kill_on_steps=(3,)),
            max_restarts=100, backoff_base=0.0)
        np.testing.assert_array_equal(clean, chaotic)
        assert stats["faults"] >= 1
        assert stats["restarts"] >= 1
        assert stats["last_fault"]

    @pytest.mark.parametrize("backend", ["process"])
    def test_corrupt_frame_detected_and_recovered(self, backend):
        clean = _sync_rewards()
        chaotic, stats = _chaos_rewards(
            backend, FaultPlan(seed=0, corrupt_on_steps=(4,)),
            max_restarts=100, backoff_base=0.0)
        np.testing.assert_array_equal(clean, chaotic)
        assert stats["corrupt_frames"] >= 1

    def test_wedged_step_times_out_and_recovers(self):
        clean = _sync_rewards(steps=8)
        chaotic, stats = _chaos_rewards(
            "process", FaultPlan(seed=1, delay_on_step=3, delay_seconds=30.0),
            steps=8, step_timeout=0.5, max_restarts=100, backoff_base=0.0)
        np.testing.assert_array_equal(clean, chaotic)
        assert stats["timeouts"] >= 1

    def test_restart_budget_exhaustion_degrades_in_parent(self):
        """A lane slice whose worker dies every few steps folds into
        in-parent execution — still bit-exact, never an infinite
        respawn loop."""
        clean = _sync_rewards()
        chaotic, stats = _chaos_rewards(
            "process", FaultPlan(seed=0, kill_worker=0, kill_every=3),
            max_restarts=2, backoff_base=0.0)
        np.testing.assert_array_equal(clean, chaotic)
        assert stats["degraded_workers"] == [0]
        assert stats["restarts"] >= 2

    def test_supervision_off_fails_fast(self):
        with inject_faults(FaultPlan(seed=0, kill_on_steps=(2,))):
            venv = repro.make_vec_from_specs(_specs(4), seed=0,
                                             backend="process",
                                             num_workers=2)
            venv.configure_supervision(enabled=False)
            with pytest.raises(WorkerDiedError, match="died"):
                venv.reset(seed=0)
                for _ in range(12):
                    venv.step(None)
            assert venv._closed
        assert not [c for c in mp.active_children() if c.is_alive()]

    def test_journal_overflow_fails_fast(self):
        """An episode longer than the journal cap is unrecoverable by
        construction; a fault then surfaces instead of replaying a
        truncated history."""
        with inject_faults(FaultPlan(seed=0, kill_on_steps=(5,))):
            venv = repro.make_vec_from_specs(_specs(4, horizon=20), seed=0,
                                             backend="process",
                                             num_workers=2)
            venv.configure_supervision(journal_limit=2, backoff_base=0.0)
            with pytest.raises(WorkerDiedError, match="died"):
                venv.reset(seed=0)
                for _ in range(12):
                    venv.step(None)
            assert venv._closed


class TestRelaneFaults:
    def test_worker_death_during_relane_recovers(self):
        """fail_relane re-fires on the re-sent command each respawn, so
        the slice ends up degraded — and the relane still lands with a
        lineup bit-identical to fresh construction."""
        lineup = _specs(4, horizon=8)
        fresh = repro.make_vec_from_specs(lineup, seed=3)
        fresh.reset(seed=5)
        with inject_faults(FaultPlan(seed=0, fail_relane=1)):
            pool = VecPool()
            try:
                venv = pool.acquire(_specs(4), seed=0, num_workers=2)
                venv.configure_supervision(max_restarts=2, backoff_base=0.0)
                venv.reset(seed=0)
                venv.step(None)
                venv = pool.acquire(lineup, seed=3, num_workers=2)
                assert venv.fault_stats["faults"] >= 1
                venv.reset(seed=5)
                for _ in range(8):
                    np.testing.assert_array_equal(fresh.step(None).rewards,
                                                  venv.step(None).rewards)
            finally:
                pool.close()

    def test_worker_death_during_rebuild_lane_recovers(self):
        variant = _specs(1)[0].with_overrides(
            apt_overrides={"lateral_threshold": 1})
        reference = repro.make_vec_from_specs(
            [_specs(1)[0], variant], seed=0)
        reference.reset(seed=0)
        with inject_faults(FaultPlan(seed=0, fail_relane=1)):
            venv = repro.make_vec_from_specs(_specs(2), seed=0,
                                             backend="process",
                                             num_workers=1)
            try:
                venv.configure_supervision(max_restarts=2, backoff_base=0.0)
                venv.rebuild_lane(1, variant)
                assert venv.fault_stats["faults"] >= 1
                venv.reset(seed=0)
                for _ in range(6):
                    np.testing.assert_array_equal(
                        reference.step(None).rewards,
                        venv.step(None).rewards)
            finally:
                venv.close()


def _metric_tuple(m):
    # everything except wall_time, which measures the host, not the sim
    return (m.discounted_return, m.final_plcs_offline, m.avg_it_cost,
            m.avg_nodes_compromised, m.steps, m.seed)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["process"])
def test_chaos_parity_on_paper_network(backend):
    """The issue's acceptance criterion: a 16-lane paper-network
    evaluation with a worker killed every 50 steps produces metrics
    bit-identical to the fault-free run."""
    spec = repro.get_scenario("inasim-paper-v1").with_overrides(horizon=200)
    specs = [spec] * 16

    sync = repro.make_vec_from_specs(specs, seed=0)
    _, clean = evaluate_policy_vec(sync, PlaybookPolicy, episodes=16,
                                   seed=0, max_steps=200)

    with inject_faults(FaultPlan(seed=1, kill_every=50)):
        venv = repro.make_vec_from_specs(specs, seed=0, backend=backend,
                                         num_workers=4)
        try:
            venv.configure_supervision(max_restarts=1000, backoff_base=0.0)
            _, chaotic = evaluate_policy_vec(venv, PlaybookPolicy,
                                             episodes=16, seed=0,
                                             max_steps=200)
            stats = venv.fault_stats
        finally:
            venv.close()

    assert stats["faults"] >= 1
    assert [_metric_tuple(m) for m in clean] \
        == [_metric_tuple(m) for m in chaotic]
