"""Parent-side worker supervision for the parallel VectorEnv backends.

The process backend keeps one child process per contiguous lane
slice. A dead child used to be fatal: the parent tore the whole pool
down and raised. This module holds the state that makes worker death
*recoverable* instead — a per-lane **journal** mirroring just enough of
each lane's logical history to rebuild it from scratch:

* the lane's last reset seed, which follows the deterministic
  ``base_seed + i + num_envs * episode`` schedule (or was given
  explicitly to ``reset_env``/``rebuild_lane``);
* its episode count on that schedule;
* the actions applied since that reset (bounded by
  ``journal_limit``).

Because engines are deterministic and ``spec.build_env(seed=s)`` is
state-identical to ``env.reset(seed=s)``, replaying the journal against
a freshly spawned worker reconstructs every in-flight episode
bit-exactly: recovered trajectories equal fault-free ones. The journal
only ever records *completed* commands — the parent appends after a
reply arrives, and separately tracks the single in-flight command per
worker so it can be re-sent after a restore.

Lanes become unrecoverable when their seed is unknown (an env built or
reset without any seed) or when the journal overflows; the supervisor
then falls back to the old fail-fast contract (tear down and raise
:class:`~repro.sim.vec_backends.WorkerDiedError`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import vec_transport as vt

__all__ = [
    "SupervisionConfig",
    "LaneJournal",
    "WorkerSupervisor",
    "apply_restore",
]


@dataclass
class SupervisionConfig:
    """Knobs for worker fault recovery (all mutable on a live env via
    ``configure_supervision``)."""

    #: master switch; when off, any worker fault tears the env down and
    #: raises — the original fail-fast contract.
    enabled: bool = True
    #: seconds to wait for any single reply before declaring the worker
    #: wedged and killing it (``None`` = wait forever).
    step_timeout: float | None = None
    #: restarts allowed per worker before the degrade path (or failure);
    #: the budget resets when the pool is re-laned to a new job.
    max_restarts: int = 3
    #: exponential backoff before each respawn: ``base * 2**(n-1)``
    #: seconds, capped at ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: when a worker exhausts its restart budget, fold its lane slice
    #: into the parent process (sync execution) instead of raising.
    degrade: bool = True
    #: per-lane action-journal bound; a lane whose episode outlives this
    #: many steps becomes unrecoverable (recovery falls back to
    #: fail-fast) rather than letting the journal grow without bound.
    journal_limit: int = 4096


class LaneJournal:
    """What the parent knows about one lane's reconstructible history."""

    __slots__ = ("kind", "seed", "episode_count", "actions", "overflowed")

    def __init__(self) -> None:
        self.kind = vt.RESTORE_VIRGIN
        self.seed = None
        self.episode_count = 0
        self.actions: list = []
        self.overflowed = False

    def begin_episode(self, kind: int, seed) -> None:
        self.kind = kind
        self.seed = seed
        self.actions = []
        self.overflowed = False


class WorkerSupervisor:
    """Journal + restart bookkeeping for one parallel backend.

    The owning env calls the ``note_*`` mirrors *after* each command's
    replies arrive, so on a fault the journal always describes the
    pre-command state and re-sending the in-flight command brings the
    respawned worker forward.
    """

    def __init__(self, config: SupervisionConfig, num_envs: int,
                 num_workers: int, base_seed) -> None:
        self.config = config
        self.num_envs = num_envs
        self.base_seed = base_seed
        self.lanes = [LaneJournal() for _ in range(num_envs)]
        self.restarts = [0] * num_workers
        self.stats: dict = {
            "faults": 0,
            "restarts": 0,
            "timeouts": 0,
            "corrupt_frames": 0,
            "degraded_workers": [],
            "last_fault": None,
        }

    # -- the lane seed schedule (mirrors VectorEnv._seed_for) ----------
    def _seed_for(self, i: int):
        if self.base_seed is None:
            return None
        return self.base_seed + i + self.num_envs * self.lanes[i].episode_count

    # -- command mirrors ----------------------------------------------
    def note_full_reset(self, has_seed: bool, seed) -> None:
        if has_seed:
            self.base_seed = seed
        for i, lane in enumerate(self.lanes):
            lane.episode_count = 0
            lane.begin_episode(vt.RESTORE_RESET, self._seed_for(i))

    def note_reset_env(self, i: int, seed) -> None:
        # episode count increments BEFORE the seed is derived — the
        # same order VectorEnv.reset_env uses.
        lane = self.lanes[i]
        lane.episode_count += 1
        lane.begin_episode(
            vt.RESTORE_RESET, seed if seed is not None else self._seed_for(i)
        )

    def note_step(self, actions, mask, dones, auto_reset: bool) -> None:
        limit = self.config.journal_limit
        for i, lane in enumerate(self.lanes):
            if mask is not None and not mask[i]:
                continue
            if lane.overflowed:
                pass
            elif len(lane.actions) >= limit:
                lane.overflowed = True
                lane.actions = []
            else:
                lane.actions.append(actions[i])
            if dones[i] and auto_reset:
                lane.episode_count += 1
                lane.begin_episode(vt.RESTORE_RESET, self._seed_for(i))

    def note_relane(self, seed) -> None:
        self.base_seed = seed
        for lane in self.lanes:
            lane.episode_count = 0
            lane.begin_episode(vt.RESTORE_VIRGIN, None)
        # a relane is a fresh job: give every worker a fresh budget
        self.restarts = [0] * len(self.restarts)

    def note_rebuild(self, i: int, seed) -> None:
        lane = self.lanes[i]
        lane.episode_count = 0
        if seed is None:
            seed = None if self.base_seed is None else self.base_seed + i
        lane.begin_episode(vt.RESTORE_REBUILT, seed)

    # -- recovery ------------------------------------------------------
    def slice_recoverable(self, lo: int, hi: int) -> bool:
        """Can lanes ``[lo, hi)`` be reconstructed bit-exactly?"""
        for i in range(lo, hi):
            lane = self.lanes[i]
            if lane.overflowed:
                return False
            if lane.kind == vt.RESTORE_VIRGIN:
                if self.base_seed is None:
                    return False
            elif lane.seed is None:
                return False
        return True

    def restore_states(self, lo: int, hi: int) -> list:
        """The journal slice in :func:`vt.encode_restore_cmd` form."""
        return [
            (lane.kind, lane.seed, lane.episode_count, list(lane.actions))
            for lane in self.lanes[lo:hi]
        ]

    def record_fault(self, worker: int, reason: str) -> None:
        self.stats["faults"] += 1
        self.stats["last_fault"] = f"worker {worker}: {reason}"


def apply_restore(venv, states, build_env=None) -> None:
    """Drive a worker-local :class:`VectorEnv` slice to a journaled state.

    ``states`` holds one ``(kind, seed, episode_count, actions)`` tuple
    per local lane. VIRGIN lanes are already correct as built from the
    payload; RESET lanes re-reset to the recorded seed; REBUILT lanes
    are reconstructed via ``build_env(local_i, seed)`` (the payload spec
    already reflects the rebuilt lane). Then the recorded actions replay
    in order — deterministically identical to the original trajectory —
    and the lane's episode counter is pinned so future auto/explicit
    resets continue the exact seed schedule.
    """
    for local_i, (kind, seed, episode_count, actions) in enumerate(states):
        if kind == vt.RESTORE_RESET:
            venv.restore_reset(local_i, seed)
        elif kind == vt.RESTORE_REBUILT:
            if build_env is None:
                raise RuntimeError(
                    "cannot restore a rebuilt lane without a spec payload"
                )
            venv.replace_env(local_i, build_env(local_i, seed))
        for action in actions:
            venv.replay_action(local_i, action)
        venv._episode_counts[local_i] = episode_count
