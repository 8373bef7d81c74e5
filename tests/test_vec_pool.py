"""Persistent worker pools and the zero-pickle transport.

Four guarantees pinned here:

* the process backend never pickles on the per-step path — a
  monkeypatched ``pickle.dumps`` / ``ForkingPickler.dumps`` would
  explode if a step, mask query, or reset touched it — and, under the
  fork start method, not at construction or close either;
* pool lifecycle hygiene: no orphaned worker processes after
  ``close()``, after an exception mid-generation, after a worker crash,
  and after repeated ``rebuild_lane`` cycles;
* re-laning a live pool is bit-identical to constructing a fresh
  vector env over the same specs and seed;
* a multi-generation CEM run on ``backend="process"`` spawns exactly
  one worker pool.
"""

import multiprocessing as mp
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

import repro
from repro.adversarial import (
    AttackerParameterSpace,
    CrossEntropySearch,
    make_defender_fitness_vec,
)
from repro.defenders import PlaybookPolicy
from repro.sim.orchestrator import DefenderAction, DefenderActionType
from repro.sim.vec_backends import ProcessVectorEnv, VecPool


def _specs(n, horizon=10, **apt_overrides):
    base = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=horizon)
    if apt_overrides:
        base = base.with_overrides(apt_overrides=apt_overrides)
    return [base] * n


def _obs_fingerprint(obs):
    return (
        obs.t,
        tuple((a.t, a.severity, a.node_id, a.device_id, a.source)
              for a in obs.alerts),
        tuple((s.t, s.node_id, s.detected, s.action_type)
              for s in obs.scan_results),
        obs.plc_disrupted.tolist(),
        obs.plc_destroyed.tolist(),
        obs.node_busy.tolist(),
        obs.plc_busy.tolist(),
        obs.quarantined.tolist(),
        tuple((a.atype, a.target) for a in obs.completed_actions),
    )


class _WeirdAction:
    """Neither a list nor a DefenderAction; InasimEnv._coerce treats it
    as an iterable of zero defender actions."""

    def __iter__(self):
        return iter(())


def _assert_steps_equal(step_a, step_b):
    assert ([_obs_fingerprint(o) for o in step_a.observations]
            == [_obs_fingerprint(o) for o in step_b.observations])
    np.testing.assert_array_equal(step_a.rewards, step_b.rewards)
    np.testing.assert_array_equal(step_a.dones, step_b.dones)


def _workers_reaped(venv):
    return all(p is None or not p.is_alive() for p in venv._procs)


class _NoPickle:
    """Context manager that booby-traps every pickling entry point."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def __enter__(self):
        def boom(*args, **kwargs):
            raise AssertionError("pickle on the transport path")

        self.monkeypatch.setattr(pickle, "dumps", boom)
        self.monkeypatch.setattr(ForkingPickler, "dumps", boom)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.monkeypatch.undo()


class TestZeroPicklePerStep:
    @pytest.mark.parametrize("backend", ["process"])
    def test_step_path_never_pickles(self, monkeypatch, backend):
        """Steps, masks, and resets cross the worker boundary without a
        single parent-side pickle call — for every action form the
        repo's policies emit (None, ints, DefenderAction lists)."""
        with repro.make_vec("inasim-tiny-v1", 4, seed=0, horizon=5,
                            backend=backend, num_workers=2) as venv:
            rng = np.random.default_rng(0)
            quarantine = DefenderAction(DefenderActionType.QUARANTINE, 0)
            with _NoPickle(monkeypatch):
                venv.reset(seed=0)
                venv.step(None)
                venv.step(venv.sample_actions(rng))
                venv.step([[quarantine], None, [], [quarantine]])
                venv.action_masks()
                venv.reset_env(1, seed=7)
                # ride through an auto-reset boundary (horizon 5)
                for _ in range(6):
                    venv.step(None)
                venv.auto_reset = False
                venv.step(None, mask=[True, False, True, True])

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_construction_and_close_never_pickle_under_fork(self,
                                                            monkeypatch):
        """A forked pool's whole life is pickle-free: the payload rides
        the fork, and the hello, every command and the close are binary
        records."""
        with _NoPickle(monkeypatch):
            venv = ProcessVectorEnv.from_specs(
                _specs(4, horizon=5), seed=0, num_workers=2,
                start_method="fork")
            try:
                venv.reset(seed=0)
                venv.step(None)
            finally:
                venv.close()
        assert _workers_reaped(venv)

    def test_iterable_action_travels_binary(self, monkeypatch):
        """Any iterable of defender actions is a valid lane action; it
        crosses the wire as a binary action list, with sync's results."""
        sync = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10)
        sync.reset(seed=0)
        with repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                            backend="process", num_workers=1) as venv:
            venv.reset(seed=0)
            with _NoPickle(monkeypatch):
                step_p = venv.step([_WeirdAction(), _WeirdAction()])
            step_s = sync.step([_WeirdAction(), _WeirdAction()])
            _assert_steps_equal(step_s, step_p)

    @pytest.mark.parametrize("bad", [1.5, [1, 2]], ids=["float", "int-list"])
    def test_invalid_action_raises_before_any_worker_is_commanded(self, bad):
        """An action InasimEnv would reject raises TypeError in the
        parent before any worker gets a command (the bad lane sits in
        the last worker's slice), so the env keeps stepping in lockstep
        with sync afterwards."""
        sync = repro.make_vec("inasim-tiny-v1", 4, seed=0, horizon=6)
        sync.reset(seed=0)
        with repro.make_vec("inasim-tiny-v1", 4, seed=0, horizon=6,
                            backend="process", num_workers=2) as venv:
            venv.reset(seed=0)
            inflight = list(venv._inflight)
            with pytest.raises(TypeError):
                venv.step([0, 0, 0, bad])
            assert all(a is b for a, b in zip(venv._inflight, inflight))
            for action in ([1, 0, 2, 0], None, [0, 1, 0, 1]) * 3:
                _assert_steps_equal(sync.step(action), venv.step(action))

    @pytest.mark.parametrize("backend", ["process"])
    def test_step_infos_match_sync_exactly(self, backend):
        """The structured info record reconstructs every field the sync
        backend reports: tallies, reward breakdown, launched/completed
        actions, attacker phase, ground-truth conditions, and the
        final_observation slot on auto-reset boundaries."""
        sync = repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=4)
        sync.reset(seed=0)
        with repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=4,
                            backend=backend, num_workers=2) as venv:
            venv.reset(seed=0)
            saw_final = False
            for _ in range(9):
                step_s = sync.step(np.array([1, 0, 2]))
                step_p = venv.step(np.array([1, 0, 2]))
                for info_s, info_p in zip(step_s.infos, step_p.infos):
                    assert info_s.keys() == info_p.keys()
                    for key in info_s:
                        if key == "conditions":
                            np.testing.assert_array_equal(info_s[key],
                                                          info_p[key])
                        elif key == "final_observation":
                            saw_final = True
                            assert (_obs_fingerprint(info_s[key])
                                    == _obs_fingerprint(info_p[key]))
                        else:
                            assert info_s[key] == info_p[key], key
            assert saw_final  # horizon 4 over 9 steps crossed a boundary


class TestPoolLifecycle:
    def test_close_reaps_workers(self):
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                              backend="process", num_workers=2)
        venv.reset(seed=0)
        venv.step(None)
        venv.close()
        venv.close()  # idempotent
        assert _workers_reaped(venv)

    def test_worker_crash_during_reset_recovers_in_place(self):
        """With supervision (the default), a worker killed mid-reset is
        respawned and the reset completes; close() still reaps every
        worker, respawned ones included."""
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                              backend="process", num_workers=2)
        try:
            venv._procs[0].kill()
            venv._procs[0].join(timeout=5.0)
            venv.reset(seed=0)
            venv.step(None)
            assert venv.fault_stats["faults"] == 1
            assert venv.fault_stats["restarts"] == 1
        finally:
            venv.close()
        assert venv._closed
        assert _workers_reaped(venv)

    def test_worker_crash_without_supervision_leaves_no_residue(self):
        """Supervision off restores the fail-fast contract: a killed
        worker surfaces as RuntimeError("...died...") and the teardown
        still reaps the remaining workers."""
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=10,
                              backend="process", num_workers=2)
        venv.configure_supervision(enabled=False)
        venv._procs[0].kill()
        venv._procs[0].join(timeout=5.0)
        with pytest.raises(RuntimeError, match="died"):
            for _ in range(3):  # the send may land before the pipe breaks
                venv.reset(seed=0)
        assert venv._closed
        assert _workers_reaped(venv)

    def test_constructor_failure_leaves_no_residue(self):
        before = {c.pid for c in mp.active_children()}
        # mixed topologies in one worker slice fail inside the worker,
        # which reports the failure as an error record instead of a hello
        mixed = [repro.get_scenario("inasim-tiny-v1"),
                 repro.get_scenario("inasim-small-v1")]
        with pytest.raises(RuntimeError, match="worker failed"):
            ProcessVectorEnv.from_specs(mixed, num_workers=1)
        leftover = [c for c in mp.active_children() if c.pid not in before]
        for child in leftover:
            child.join(timeout=5.0)
        assert not [c for c in mp.active_children() if c.pid not in before]

    def test_pool_close_after_exception_mid_generation(self):
        """An exception inside a pooled evaluation must not orphan
        workers once the pool is closed."""
        pool = VecPool()
        before = {c.pid for c in mp.active_children()}
        try:
            with pytest.raises(ValueError, match="boom"):
                venv = pool.acquire(_specs(3), seed=0, num_workers=2)
                with venv:
                    venv.reset(seed=0)
                    raise ValueError("boom")
            # the soft release kept the pool alive for the next acquire
            assert pool.stats["live_pools"] == 1
        finally:
            pool.close()
        leftover = [c for c in mp.active_children() if c.pid not in before]
        assert not leftover

    def test_worker_side_step_error_does_not_poison_pool(self):
        """An application error inside one worker (e.g. an invalid
        action index) drains every pipe before raising, so the live
        pool stays protocol-synced and the next acquire re-lanes it."""
        pool = VecPool()
        try:
            venv = pool.acquire(_specs(4), seed=0, num_workers=2)
            venv.reset(seed=0)
            with pytest.raises(RuntimeError, match="worker failed"):
                venv.step(np.array([999_999, 0, 0, 0]))
            again = pool.acquire(_specs(4), seed=0, num_workers=2)
            assert again is venv and pool.spawns == 1
            again.reset(seed=0)
            ref = repro.make_vec_from_specs(_specs(4), seed=0)
            ref.reset(seed=0)
            for _ in range(5):
                np.testing.assert_array_equal(again.step(None).rewards,
                                              ref.step(None).rewards)
        finally:
            pool.close()

    def test_pool_survives_worker_death_in_place(self):
        """A supervised pool env rides through a kill without ever
        being dropped from the pool — the next acquire reuses it."""
        pool = VecPool()
        try:
            venv = pool.acquire(_specs(2), seed=0, num_workers=1)
            venv._procs[0].kill()
            venv._procs[0].join(timeout=5.0)
            venv.reset(seed=0)
            venv.step(None)
            assert venv.fault_stats["restarts"] == 1
            venv.close()  # soft release back to the pool
            again = pool.acquire(_specs(2), seed=0, num_workers=1)
            assert again is venv and pool.spawns == 1
        finally:
            pool.close()
        assert not [c for c in mp.active_children() if c.is_alive()]

    def test_pool_respawns_after_worker_death(self):
        """Supervision off: a dead worker fail-fasts, the pool drops
        the poisoned env, and the next acquire spawns a fresh one."""
        pool = VecPool()
        try:
            venv = pool.acquire(_specs(2), seed=0, num_workers=1)
            venv.configure_supervision(enabled=False)
            venv._procs[0].kill()
            venv._procs[0].join(timeout=5.0)
            with pytest.raises(RuntimeError):
                venv.reset(seed=0)
            fresh = pool.acquire(_specs(2), seed=0, num_workers=1)
            assert fresh is not venv
            fresh.reset(seed=0)
            fresh.step(None)
            assert pool.spawns == 2
        finally:
            pool.close()
        assert not [c for c in mp.active_children() if c.is_alive()]

    def test_repeated_rebuild_cycles_leak_nothing(self):
        """50 rebuild_lane calls + 5 relanes on one live pool: same
        worker pids, no process accumulation."""
        pool = VecPool()
        try:
            venv = pool.acquire(_specs(4), seed=0, num_workers=2)
            pids = [p.pid for p in venv._procs]
            variant = _specs(1, lateral_threshold=1)[0]
            for cycle in range(5):
                for lane in range(4):
                    venv.rebuild_lane(lane, variant, seed=cycle)
                    venv.rebuild_lane(lane, _specs(1)[0])
                again = pool.acquire(_specs(4), seed=cycle, num_workers=2)
                assert again is venv
                assert [p.pid for p in venv._procs] == pids
            assert pool.stats == {"spawns": 1, "reuses": 5, "live_pools": 1}
            children = mp.active_children()
            assert len([c for c in children if c.pid in pids]) == 2
        finally:
            pool.close()


class TestRelaneParity:
    @pytest.mark.parametrize("backend", ["process"])
    def test_relane_matches_fresh_construction(self, backend):
        base = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=8)
        variant = base.with_overrides(
            scenario_id="pool-relane-variant",
            apt_overrides={"lateral_threshold": 1, "labor_rate": 3},
        )
        lineup = [base, variant, base]
        fresh = repro.make_vec_from_specs(lineup, seed=3)
        fresh.reset(seed=5)
        pool = VecPool()
        try:
            venv = repro.make_vec_from_specs(_specs(3), seed=0,
                                             backend=backend, num_workers=2,
                                             pool=pool)
            venv.reset(seed=0)
            for _ in range(4):
                venv.step(None)  # advance state; relane must wipe it
            venv = repro.make_vec_from_specs(lineup, seed=3,
                                             backend=backend, num_workers=2,
                                             pool=pool)
            assert venv.lane_config(1).apt.labor_rate == 3
            assert venv.lane_config(0).apt.labor_rate != 3
            venv.reset(seed=5)
            rng_a = np.random.default_rng(9)
            rng_b = np.random.default_rng(9)
            for _ in range(12):
                actions = fresh.sample_actions(rng_a)
                np.testing.assert_array_equal(actions,
                                              venv.sample_actions(rng_b))
                step_f = fresh.step(actions)
                step_v = venv.step(actions)
                assert ([_obs_fingerprint(o) for o in step_f.observations]
                        == [_obs_fingerprint(o) for o in step_v.observations])
                np.testing.assert_array_equal(step_f.rewards, step_v.rewards)
                np.testing.assert_array_equal(step_f.dones, step_v.dones)
                assert fresh.reset_infos == venv.reset_infos
        finally:
            pool.close()

    def test_relane_onto_other_network_updates_geometry(self):
        """A live pool can move between presets: the codec geometry and
        metadata follow the workers' new world."""
        small = repro.get_scenario("inasim-small-v1").with_overrides(horizon=6)
        pool = VecPool()
        try:
            venv = pool.acquire(_specs(2), seed=0, num_workers=2)
            tiny_actions = venv.n_actions
            venv = pool.acquire([small, small], seed=0, num_workers=2)
            assert venv.n_actions != tiny_actions
            assert venv.config.tmax == 6
            reference = repro.make_vec(small, 2, seed=0)
            reference.reset(seed=2)
            venv.reset(seed=2)
            for _ in range(6):
                step_r = reference.step(None)
                step_v = venv.step(None)
                np.testing.assert_array_equal(step_r.rewards, step_v.rewards)
            assert pool.spawns == 1
        finally:
            pool.close()

    def test_relane_wrong_width_rejected(self):
        venv = ProcessVectorEnv.from_specs(_specs(2), num_workers=1)
        with venv:
            with pytest.raises(ValueError, match="relane needs 2 specs"):
                venv.relane(_specs(3))

    def test_rebuild_lane_requires_spec_built_env(self):
        config = repro.get_scenario("inasim-tiny-v1").build_config()
        with ProcessVectorEnv.from_config(config, 2,
                                          num_workers=1) as venv:
            with pytest.raises(ValueError, match="spec-built"):
                venv.rebuild_lane(0, _specs(1)[0])

    def test_rebuild_lane_refreshes_metadata(self):
        """config/policy_env reflect a rebuilt lane 0 even when the
        template env was already built from the old payload."""
        with ProcessVectorEnv.from_specs(_specs(2), num_workers=1) as venv:
            assert venv.config.apt.labor_rate != 9  # builds the template
            venv.rebuild_lane(
                0, _specs(1)[0].with_overrides(apt_overrides={"labor_rate": 9})
            )
            assert venv.config.apt.labor_rate == 9
            assert venv.policy_env(0).config.apt.labor_rate == 9
            assert venv.lane_config(0).apt.labor_rate == 9
            assert venv.lane_config(1).apt.labor_rate != 9

    def test_rebuild_lane_restarts_seed_schedule(self):
        """rebuild_lane(i) with seed=None re-derives the lane's
        construction seed, so a rebuilt lane replays a fresh lane."""
        with ProcessVectorEnv.from_specs(_specs(2, horizon=20), seed=0,
                                         num_workers=1) as venv:
            venv.reset(seed=0)
            for _ in range(6):
                venv.step(None)
            venv.rebuild_lane(1, _specs(1, horizon=20)[0])
            fresh = repro.make_vec_from_specs(_specs(2, horizon=20), seed=0)
            fresh.reset(seed=0)
            venv.reset(seed=0)
            for _ in range(6):
                step_f = fresh.step(None)
                step_v = venv.step(None)
                np.testing.assert_array_equal(step_f.rewards, step_v.rewards)


    def test_rebuild_lane_on_make_vec_env_matches_sync(self):
        """make_vec's process env is spec-built lane by lane, so
        rebuild_lane works on it; the rebuilt trajectory equals the same
        rebuild (replace_env with the lane's scheduled seed) on sync."""
        variant = _specs(1, horizon=12, lateral_threshold=1)[0]
        sync = repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=12)
        with repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=12,
                            backend="process", num_workers=2) as venv:
            for env in (sync, venv):
                env.reset(seed=0)
                for _ in range(4):
                    env.step(None)
            venv.rebuild_lane(2, variant)
            sync.replace_env(2, variant.build_env(seed=0 + 2))
            assert venv.reset_infos == sync.reset_infos
            rng_s, rng_p = (np.random.default_rng(3) for _ in range(2))
            for _ in range(20):
                _assert_steps_equal(sync.step(sync.sample_actions(rng_s)),
                                    venv.step(venv.sample_actions(rng_p)))


class TestPooledCEM:
    def test_three_generation_cem_spawns_one_pool(self):
        """The acceptance criterion verbatim: a 3-generation CEM run on
        backend="process" spawns exactly one worker pool, and its
        result is bit-identical to the sync engine's."""
        spec = repro.get_scenario("inasim-tiny-v1").with_overrides(horizon=8)
        space = AttackerParameterSpace(base=spec.build_config().apt)

        def run(backend, reuse_pool):
            fitness = make_defender_fitness_vec(
                spec, PlaybookPolicy(), episodes=1, seed=0,
                max_steps=8, backend=backend, num_workers=2,
                reuse_pool=reuse_pool,
            )
            search = CrossEntropySearch(space, batch_fitness_fn=fitness,
                                        population=4, seed=0)
            try:
                result = search.run(iterations=3)
            finally:
                if fitness.pool is not None:
                    stats = fitness.pool.stats
                    fitness.pool.close()
                else:
                    stats = None
            return result, stats

        result_sync, _ = run("sync", reuse_pool=False)
        result_proc, stats = run("process", reuse_pool=True)
        assert stats["spawns"] == 1
        assert stats["reuses"] == 2  # generations 2 and 3 re-laned it
        assert result_proc.best_fitness == result_sync.best_fitness
        assert result_proc.history == result_sync.history
        assert result_proc.best_config == result_sync.best_config
        assert not [c for c in mp.active_children() if c.is_alive()]

    def test_make_vec_reuse_pool_soft_close(self):
        """reuse_pool=True on the public constructors: close() is a
        soft release and the default pool keeps the workers."""
        from repro.sim import vec_backends

        pool = VecPool()
        with repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=6,
                            backend="process", num_workers=2,
                            pool=pool) as venv:
            venv.reset(seed=0)
            venv.step(None)
        assert not venv._closed  # released, not closed
        again = repro.make_vec("inasim-tiny-v1", 2, seed=1, horizon=6,
                               backend="process", num_workers=2, pool=pool)
        assert again is venv
        pool.close()
        assert venv._closed
        # the module-global default pool backs reuse_pool=True
        venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, horizon=6,
                              backend="process", num_workers=2,
                              reuse_pool=True)
        assert venv._pool is vec_backends._DEFAULT_POOL
        vec_backends._DEFAULT_POOL.close()


class TestPoolThreadSafety:
    """The serve layer shares one VecPool across executor threads; the
    pool must survive concurrent acquire/release without eviction ever
    tearing down an env another thread is still stepping."""

    def test_eviction_never_touches_leased_envs(self):
        pool = VecPool(max_pools=1)
        a = pool.acquire(_specs(2, horizon=5), seed=0, num_workers=2)
        b = pool.acquire(_specs(3, horizon=5), seed=0, num_workers=2)
        try:
            # both checked out: over budget, but neither may be evicted
            assert len(pool) == 2
            assert not a._closed and not b._closed
            a.reset(seed=0)
            a.step(None)  # still fully usable
        finally:
            a.close()  # release -> eviction may now trim the excess
        assert len(pool) == 1
        assert a._closed
        assert not b._closed
        b.close()
        pool.close()
        assert not [c for c in mp.active_children() if c.is_alive()]

    def test_threaded_acquire_release_hammer(self):
        """Threads with distinct geometries hammering one small pool:
        every acquire must hand back a live env, eviction churn and all."""
        import threading

        pool = VecPool(max_pools=2)
        errors = []

        def worker(k):
            try:
                for i in range(3):
                    venv = pool.acquire(_specs(2 + k, horizon=5), seed=i,
                                        num_workers=2)
                    try:
                        assert not venv._closed
                        venv.reset(seed=i)
                        venv.step(None)
                        venv.step(None)
                    finally:
                        venv.close()
            except Exception as exc:  # pragma: no cover
                errors.append((k, exc))

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        assert len(pool) <= 2  # budget holds once everything is released
        pool.close()
        assert len(pool) == 0
        assert not [c for c in mp.active_children() if c.is_alive()]
