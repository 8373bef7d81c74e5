"""Parallel VectorEnv backend: persistent worker pools, pickle-free.

:class:`ProcessVectorEnv` partitions the lanes of a logical vector
environment across worker processes. Each worker hosts a plain
:class:`~repro.sim.vec_env.VectorEnv` over its lane slice, constructed
with ``lane_offset``/``total_envs`` so its per-lane seed schedule is
bit-identical to the single-process layout -- backend choice never
changes a trajectory. Workers are built from a serialized payload (one
:class:`~repro.scenarios.spec.ScenarioSpec` dict per lane via
:mod:`repro.scenarios.serialization`, or a ``SimConfig`` dict via
:mod:`repro.config_io`), never from pickled environment objects, so any
registered scenario -- including user-defined ones -- can be shipped to
a worker pool.

Two properties distinguish this layer from a throwaway fork-join:

* **One binary transport.** Every frame after the process start --
  the worker's handshake, commands, replies, errors -- is an explicit
  binary record (:mod:`repro.sim.vec_transport`) over
  ``Connection.send_bytes``. An action the wire format cannot express
  is one ``InasimEnv`` would reject too: it raises :class:`TypeError`
  before any worker receives a command, so the lanes never fall out of
  lockstep.
* **Persistent pools.** A live pool can be re-laned onto new scenario
  specs (:meth:`ProcessVectorEnv.relane` / ``rebuild_lane``) instead of
  being torn down and re-spawned: workers rebuild their lane slice from
  the new spec dicts and the seed schedule restarts exactly as in a
  fresh construction, so reuse is bit-exact. :class:`VecPool` caches
  pools by geometry and hands them out across CEM generations and
  self-play rounds (``repro.make_vec_from_specs(...,
  reuse_pool=True)``).

On a single-core host the backend loses to ``sync`` (IPC overhead with
no parallelism to buy back); it pays off when workers can spread over
cores. ``repro.make_vec(id, n, backend="process")`` is the front door.
The retired ``"shm"`` backend name is accepted as a deprecated alias of
``"process"`` (:func:`normalize_backend`).

**Fault tolerance.** Worker death is supervised, not fatal: the parent
keeps a per-lane action journal (:mod:`repro.sim.vec_supervisor`),
detects faults at every pipe boundary (EOF, send failure, optional
per-step timeout, CRC frame mismatch), respawns the dead worker from
the serialized payload, and replays each lane's recorded history
against it — recovered trajectories are bit-identical to fault-free
ones because lane seeding follows the fixed ``seed + i + N * episode``
schedule and the engines are deterministic. Restarts are budgeted with
exponential backoff; a worker that keeps dying is folded into the
parent process (its lane slice runs sync) as a last resort. When a
slice cannot be reconstructed (unseeded lanes, journal overflow) or
supervision is disabled, the old fail-fast contract applies: teardown
plus :class:`WorkerDiedError`. The chaos harness
(:mod:`repro.testing.faults`) drives these paths for real in tests and
CI.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading
import time
import warnings
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.sim import vec_transport as vt
from repro.sim.vec_env import BaseVectorEnv, VecStep, VectorEnv, _UNSET
from repro.sim.vec_supervisor import (
    SupervisionConfig,
    WorkerSupervisor,
    apply_restore,
)

__all__ = [
    "BACKEND_CHOICES",
    "ProcessVectorEnv",
    "VecPool",
    "WorkerDiedError",
    "SupervisionConfig",
    "default_pool",
    "resolve_backend",
    "normalize_backend",
]

#: ``backend="auto"`` keeps the sync backend below this batch width --
#: the IPC cost of a worker pool only amortizes over a wide batch
AUTO_MIN_ENVS = 4

#: every backend name a caller may pass; ``"shm"`` is the deprecated
#: alias of ``"process"`` that :func:`normalize_backend` maps
BACKEND_CHOICES = ("sync", "batched", "process", "shm", "auto")

_MASKS_CMD = bytes((vt.OP_MASKS,))
_CLOSE_CMD = bytes((vt.OP_CLOSE,))
_OK_REPLY = bytes((vt.ST_OK,))


class WorkerDiedError(RuntimeError):
    """A worker process died and its lanes could not be (or were
    configured not to be) recovered. The env has been torn down; the
    message always contains "died" for compatibility with callers that
    matched the old fail-fast error."""


class _RespawnError(Exception):
    """Internal: one respawn attempt failed; burns a restart budget unit."""


def resolve_backend(num_envs: int, num_workers: int | None = None,
                    cpu_count: int | None = None) -> str:
    """Pick a concrete backend for ``backend="auto"``.

    The process backend only pays off when worker processes can spread
    over spare cores *and* the batch is wide enough to amortize the
    per-step IPC; otherwise the in-process sync backend wins (see
    ``BENCH_vec_throughput.json``). Trajectories are backend-
    independent, so this is purely a performance choice.
    """
    if num_envs < 1:
        raise ValueError("num_envs must be >= 1")
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    workers = min(num_envs, cpu_count if num_workers is None else num_workers)
    if cpu_count <= 1 or workers <= 1 or num_envs < AUTO_MIN_ENVS:
        return "sync"
    return "process"


def normalize_backend(backend: str, num_envs: int,
                      num_workers: int | None = None) -> str:
    """Resolve ``"auto"``, map the deprecated ``"shm"``, and validate
    a backend name.

    The single dispatch gate shared by ``repro.make_vec``,
    ``repro.make_vec_from_specs``, the CLI and the serve layer, so the
    auto heuristic and the error message cannot drift apart. ``"shm"``
    is a deprecated alias: it runs as ``"process"`` (same trajectories)
    with a :class:`DeprecationWarning`, so stored jobs and scripts keep
    working.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKEND_CHOICES}"
        )
    if backend == "shm":
        warnings.warn(
            'backend "shm" is deprecated and runs as "process"',
            DeprecationWarning, stacklevel=2,
        )
        return "process"
    if backend == "auto":
        return resolve_backend(num_envs, num_workers=num_workers)
    return backend


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _build_envs(payload: dict, seeds: list[int | None], record_truth: bool,
                lane_lo: int = 0):
    if "specs" in payload:
        # one spec per global lane (a scenario repeated, an attacker
        # population, a CEM candidate fan-out); this worker builds the
        # slice starting at its lane offset
        from repro.scenarios.serialization import spec_from_dict

        specs = [spec_from_dict(entry)
                 for entry in payload["specs"][lane_lo:lane_lo + len(seeds)]]
        return [spec.build_env(seed=s, record_truth=record_truth)
                for spec, s in zip(specs, seeds)]
    import repro
    from repro.config_io import config_from_dict

    config = config_from_dict(payload["config"])
    return [repro.make_env(config, seed=s, record_truth=record_truth)
            for s in seeds]


class _LaneGroupExecutor:
    """Command executor over one lane slice of the logical vector env.

    Pure compute: decodes a command, drives the worker-local
    :class:`VectorEnv`, returns the encoded reply record. It runs in two
    places: inside every worker process (wrapped by :class:`_Worker`,
    which owns the pipe transport), and inside the *parent* when a
    repeatedly-failing worker is degraded to in-process execution —
    identical semantics either way, which is what makes the degrade
    path bit-exact. The optional ``injector``
    (:class:`repro.testing.faults.FaultInjector`) arms the chaos
    harness on the step/relane paths; the parent's degraded executors
    never inject.
    """

    def __init__(self, payload: dict, lane_lo: int, lane_hi: int,
                 total_envs: int, base_seed: int | None, auto_reset: bool,
                 record_truth: bool, injector=None):
        self.payload = payload
        self.lane_lo = lane_lo
        self.lane_hi = lane_hi
        self.total_envs = total_envs
        self.record_truth = record_truth
        self.injector = injector
        self.closed = False
        self.corrupt_reply = False
        self.venv = self._build_group(payload, base_seed, auto_reset)

    # -- construction / relane ----------------------------------------
    def _build_group(self, payload: dict, base_seed: int | None,
                     auto_reset: bool) -> VectorEnv:
        seeds = [
            None if base_seed is None else base_seed + i
            for i in range(self.lane_lo, self.lane_hi)
        ]
        envs = _build_envs(payload, seeds, self.record_truth,
                           lane_lo=self.lane_lo)
        return VectorEnv(envs, auto_reset=auto_reset, base_seed=base_seed,
                         lane_offset=self.lane_lo, total_envs=self.total_envs)

    @property
    def dims(self) -> vt.Dims:
        return vt.dims_of(self.venv.envs[0])

    def relane(self, msg: dict) -> bytearray:
        """Rebuild lanes from fresh spec dicts on the live process.

        A ``{"lane": i, "spec": {...}}`` message rebuilds one local
        lane in place (its episode count restarts at zero); a
        ``{"payload": ..., "seed": ..., "auto_reset": ...}`` message
        rebuilds the whole slice exactly as at construction time, so a
        re-laned pool is bit-identical to a freshly spawned one.
        """
        if "lane" in msg:
            from repro.scenarios.serialization import spec_from_dict

            local_i = msg["lane"]
            spec = spec_from_dict(msg["spec"])
            seed = msg.get("seed")
            venv = self.venv
            if seed is None and venv._base_seed is not None:
                seed = venv._base_seed + self.lane_lo + local_i
            env = spec.build_env(seed=seed, record_truth=self.record_truth)
            venv.replace_env(local_i, env)
            # the parent only rebuilds lanes of spec-built envs
            specs = list(self.payload["specs"])
            specs[self.lane_lo + local_i] = msg["spec"]
            self.payload = {**self.payload, "specs": specs}
        else:
            self.payload = msg["payload"]
            self.venv = self._build_group(
                msg["payload"], msg.get("seed"),
                bool(msg.get("auto_reset", True)),
            )
        return vt.encode_relane_reply(self.dims, self.venv.reset_infos)

    # -- deterministic recovery ---------------------------------------
    def _rebuild_env(self, local_i: int, seed):
        from repro.scenarios.serialization import spec_from_dict

        spec = spec_from_dict(self.payload["specs"][self.lane_lo + local_i])
        return spec.build_env(seed=seed, record_truth=self.record_truth)

    def restore(self, states) -> bytes:
        build = self._rebuild_env if "specs" in self.payload else None
        apply_restore(self.venv, states, build_env=build)
        return _OK_REPLY

    # -- commands ------------------------------------------------------
    def do_step(self, actions, mask):
        injector = self.injector
        if injector is not None:
            # chaos harness: may kill this process, wedge the step, or
            # flag this reply for post-seal corruption
            self.corrupt_reply = injector.on_step()
        venv = self.venv
        step = venv.step(actions, mask=mask)
        changed = []
        if venv.auto_reset:
            # only auto-reset lanes refresh their reset infos; masked
            # lanes report done=True without resetting
            changed = [
                (i, venv.reset_infos[i])
                for i in range(venv.num_envs)
                if step.dones[i] and (mask is None or mask[i])
            ]
        # an unencodable payload (e.g. a wrapper smuggling objects into
        # info) raises EncodeError, which handle() turns into ST_ERR
        return vt.encode_step_reply(step.observations, step.rewards,
                                    step.dones, step.infos, changed,
                                    auto_reset=venv.auto_reset)

    def handle(self, raw):
        """One binary command -> one binary reply record."""
        try:
            op = raw[0]
            if op == vt.OP_STEP:
                actions, mask = vt.decode_step_cmd(raw, self.venv.num_envs)
                return self.do_step(actions, mask)
            if op == vt.OP_MASKS:
                return vt.encode_masks_reply(self.venv.action_masks())
            if op == vt.OP_RESET:
                has_seed, seed = vt.decode_reset_cmd(raw)
                obs = self.venv.reset(seed) if has_seed else self.venv.reset()
                return vt.encode_reset_reply(obs, self.venv.reset_infos)
            if op == vt.OP_RESET_ENV:
                local_i, seed = vt.decode_reset_env_cmd(raw)
                obs = self.venv.reset_env(local_i, seed=seed)
                return vt.encode_reset_env_reply(
                    obs, self.venv.reset_infos[local_i])
            if op == vt.OP_AUTO_RESET:
                self.venv.auto_reset = bool(raw[1])
                return _OK_REPLY
            if op == vt.OP_RELANE:
                if self.injector is not None:
                    self.injector.on_relane()
                msg = json.loads(bytes(raw[1:]).decode("utf-8"))
                return self.relane(msg)
            if op == vt.OP_RESTORE:
                states = vt.decode_restore_cmd(raw, self.venv.num_envs)
                return self.restore(states)
            if op == vt.OP_CLOSE:
                self.closed = True
                return _OK_REPLY
            return vt.encode_error(f"unknown opcode 0x{op:02x}")
        except Exception as exc:
            return vt.encode_error(f"{type(exc).__name__}: {exc}")


class _Worker:
    """Transport shell around a :class:`_LaneGroupExecutor` in a worker
    process: pipe command loop, optional CRC frame sealing (and the
    chaos harness's post-seal byte corruption).
    """

    def __init__(self, conn, frame_check: bool):
        self.conn = conn
        self.frame_check = frame_check
        self.executor: _LaneGroupExecutor | None = None

    def reply(self, record) -> None:
        if self.frame_check:
            record = vt.seal_frame(record)
        executor = self.executor
        if executor is not None and executor.corrupt_reply:
            # chaos harness: flip one byte *after* sealing so the parent
            # sees a CRC mismatch on a really-delivered frame
            executor.corrupt_reply = False
            record = bytearray(record)
            record[len(record) // 2] ^= 0xFF
        self.conn.send_bytes(record)

    def run(self) -> None:
        conn = self.conn
        executor = self.executor
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                self.reply(executor.handle(raw))
            except (BrokenPipeError, OSError):
                break
            if executor.closed:
                break
        conn.close()


def _worker_main(conn, payload: dict, lane_lo: int, lane_hi: int,
                 total_envs: int, base_seed: int | None, auto_reset: bool,
                 record_truth: bool, worker_index: int = 0,
                 num_workers: int = 1, frame_check: bool = False) -> None:
    """Process entry point: build the lane group, send the hello (the
    slice's geometry and reset infos, as a relane reply), then serve
    commands."""
    worker = _Worker(conn, frame_check)
    try:
        injector = None
        try:
            from repro.testing.faults import FaultInjector, plan_from_env

            plan = plan_from_env()
            if plan is not None:
                injector = FaultInjector(plan, worker_index, num_workers)
        except Exception:
            injector = None  # a broken fault plan must never break real runs
        executor = _LaneGroupExecutor(payload, lane_lo, lane_hi, total_envs,
                                      base_seed, auto_reset, record_truth,
                                      injector=injector)
        hello = vt.encode_relane_reply(executor.dims,
                                       executor.venv.reset_infos)
    except Exception as exc:  # construction failure: report, bail out
        worker.reply(vt.encode_error(f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    worker.executor = executor
    worker.reply(hello)
    worker.run()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _partition(num_envs: int, num_workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-even lane slices [lo, hi) per worker."""
    base, extra = divmod(num_envs, num_workers)
    bounds, lo = [], 0
    for w in range(num_workers):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ProcessVectorEnv(BaseVectorEnv):
    """Lockstep vector env with lanes spread over worker processes.

    ``payload`` describes how workers rebuild their environments:
    ``{"specs": [<ScenarioSpec dict>, ...]}`` (one per lane) or
    ``{"config": <SimConfig dict>}`` (the default FSM attacker, matching
    ``repro.make_env``). Prefer the :meth:`from_specs` /
    :meth:`from_config` constructors.

    Every frame is a binary record (see
    :mod:`repro.sim.vec_transport`); a live instance can be re-laned
    onto new specs with :meth:`relane` / :meth:`rebuild_lane` instead
    of being re-spawned. The instance is also a context manager;
    :meth:`close` terminates the workers and is safe to call more than
    once -- unless the env is owned by a :class:`VecPool`, in which
    case ``close()`` is a soft release and the pool's ``close()``
    performs the real teardown.
    """

    def __init__(self, payload: dict, num_envs: int, *, seed: int | None = None,
                 auto_reset: bool = True, record_truth: bool = True,
                 num_workers: int | None = None,
                 start_method: str | None = None,
                 supervision: "SupervisionConfig | bool | None" = None,
                 frame_check: bool | None = None):
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        if not ("config" in payload or "specs" in payload):
            raise ValueError("payload needs a 'specs' or 'config' entry")
        if "specs" in payload and len(payload["specs"]) != num_envs:
            raise ValueError(
                f"per-lane payload has {len(payload['specs'])} specs "
                f"for {num_envs} envs"
            )
        self.num_envs = num_envs
        self._payload = payload
        self._lane_specs = None
        if "specs" in payload:
            from repro.scenarios.serialization import spec_from_dict

            self._lane_specs = [spec_from_dict(e) for e in payload["specs"]]
        self._lane_configs: list | None = None
        self._template_env = None
        self._record_truth = record_truth
        self._auto_reset = auto_reset
        self._closed = False
        self._pool: "VecPool | None" = None
        self._pool_leased = False
        self._dims: vt.Dims | None = None

        if num_workers is None:
            num_workers = min(num_envs, os.cpu_count() or 1)
        num_workers = max(1, min(num_workers, num_envs))
        self._bounds = _partition(num_envs, num_workers)
        self._procs: list = [None] * num_workers
        self._conns: list = [None] * num_workers
        #: degraded workers: a parent-side executor replaces the process
        self._local: list = [None] * num_workers
        #: the single in-flight command per worker, re-sent after recovery
        self._inflight: list = [None] * num_workers

        if supervision is None or supervision is True:
            sup_config = SupervisionConfig()
        elif supervision is False:
            sup_config = SupervisionConfig(enabled=False)
        else:
            sup_config = supervision
        self._sup = WorkerSupervisor(sup_config, num_envs, num_workers, seed)
        if frame_check is None:
            from repro.testing.faults import frame_check_from_env

            frame_check = frame_check_from_env()
        self._frame_check = bool(frame_check)

        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)

        try:
            for w in range(num_workers):
                self._launch_worker(w)
            self.reset_infos = []
            for w in range(num_workers):
                self.reset_infos.extend(self._recv_handshake(w))
        except BaseException:
            self._hard_close()
            raise

    # -- constructors --------------------------------------------------
    @classmethod
    def from_specs(cls, specs, **kwargs) -> "ProcessVectorEnv":
        """Lane ``i`` runs ``specs[i]``.

        All specs must share a topology (same action space; the workers'
        handshake enforces it). ``[spec] * n`` is ``n`` copies of one
        scenario; the adversarial loops fan an attacker population or a
        CEM candidate batch over one lockstep vector environment.
        """
        from repro.scenarios.serialization import spec_to_dict

        specs = list(specs)
        if not specs:
            raise ValueError("from_specs needs at least one spec")
        return cls({"specs": [spec_to_dict(s) for s in specs]}, len(specs),
                   **kwargs)

    @classmethod
    def from_config(cls, config, num_envs: int, **kwargs) -> "ProcessVectorEnv":
        from repro.config_io import config_to_dict

        return cls({"config": config_to_dict(config)}, num_envs, **kwargs)

    # -- metadata ------------------------------------------------------
    def _template(self):
        """A parent-side environment of lane 0's scenario, built lazily.

        Only metadata consumers (``config`` / ``topology`` /
        ``action_list`` / ``policy_env``) pay for it; a pool that is
        purely stepped never builds one.
        """
        if self._template_env is None:
            self._template_env = _build_envs(
                self._payload, [None], self._record_truth)[0]
        return self._template_env

    def _check_dims(self, dims: vt.Dims) -> None:
        if self._dims is None:
            self._dims = dims
        elif dims != self._dims:
            raise RuntimeError(
                "worker action space mismatch: "
                f"{dims.n_actions} != {self._dims.n_actions} "
                "(all lanes of a vector env must share a topology)"
            )

    @property
    def config(self):
        return self._template().config

    def lane_config(self, i: int):
        if self._lane_specs is None:
            return self._template().config
        if self._lane_configs is None:
            self._lane_configs = [s.build_config() for s in self._lane_specs]
        return self._lane_configs[i]

    @property
    def topology(self):
        return self._template().topology

    @property
    def n_actions(self) -> int:
        return self._dims.n_actions

    @property
    def action_list(self):
        return self._template().action_list

    def policy_env(self, i: int):
        return self._template()

    @property
    def num_workers(self) -> int:
        return len(self._bounds)

    @property
    def auto_reset(self) -> bool:
        return self._auto_reset

    @auto_reset.setter
    def auto_reset(self, value: bool) -> None:
        value = bool(value)
        self._auto_reset = value
        if self._closed:
            return  # nothing to sync; lets cleanup paths restore the flag
        cmd = bytes((vt.OP_AUTO_RESET, 1 if value else 0))
        for w in range(len(self._bounds)):
            self._dispatch(w, cmd)
        self._recv_group()

    # -- supervision ---------------------------------------------------
    @property
    def fault_stats(self) -> dict:
        """Monotonic fault counters: ``faults``, ``restarts``,
        ``timeouts``, ``corrupt_frames``, ``degraded_workers``,
        ``last_fault``. Pooled callers snapshot before/after a job to
        attribute faults to it."""
        stats = dict(self._sup.stats)
        stats["degraded_workers"] = list(stats["degraded_workers"])
        return stats

    def configure_supervision(self, **kwargs) -> "ProcessVectorEnv":
        """Adjust :class:`SupervisionConfig` knobs on the live env
        (e.g. ``step_timeout=30.0`` per serve job, ``enabled=False`` to
        restore the fail-fast contract)."""
        config = self._sup.config
        for key, value in kwargs.items():
            if not hasattr(config, key):
                raise TypeError(f"unknown supervision option {key!r}")
            setattr(config, key, value)
        return self

    # -- plumbing ------------------------------------------------------
    def _dispatch(self, w: int, cmd) -> None:
        """Deliver one command to worker ``w``, tracking it in flight.

        The in-flight command is what a respawned worker re-executes
        after its deterministic restore, so a fault at any point
        between send and reply is recoverable. Degraded (in-parent)
        workers execute lazily at receive time.
        """
        if self._closed:
            raise WorkerDiedError(
                "a VectorEnv worker process died unexpectedly "
                "(env already torn down)"
            )
        self._inflight[w] = cmd
        if self._local[w] is not None:
            return
        try:
            self._conns[w].send_bytes(cmd)
        except (BrokenPipeError, OSError) as exc:
            self._recover_worker(w, f"send failed ({type(exc).__name__})")

    def _recv_group(self) -> list:
        """One reply per worker, draining *every* pipe before raising.

        Raising on the first worker error would leave the other
        workers' replies queued in their pipes, desynchronizing the
        protocol for every later command (and poisoning a pooled env).
        Application errors (ST_ERR) therefore drain the whole group
        first; an unrecoverable dead worker has already torn the env
        down inside :meth:`_recv_worker`, so there is nothing left to
        drain.
        """
        replies: list = []
        first_error: Exception | None = None
        for w in range(len(self._bounds)):
            if self._closed and first_error is not None:
                break  # a dead worker hard-closed us mid-drain
            try:
                replies.append(self._recv_worker(w))
            except RuntimeError as exc:
                replies.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return replies

    def _recv_direct(self, w: int, what: str):
        """One reply from worker ``w`` outside supervision (its hello, a
        respawn's restore ack); any failure raises :class:`RuntimeError`."""
        try:
            raw = self._conns[w].recv_bytes()
            if self._frame_check:
                raw = vt.open_frame(raw)
        except (EOFError, OSError, vt.FrameError) as exc:
            raise RuntimeError(
                f"a VectorEnv worker process died during {what} "
                f"({type(exc).__name__}: {exc})") from exc
        return self._finish_reply(raw)

    def _recv_handshake(self, w: int) -> list:
        """Worker ``w``'s hello: check its geometry, return the slice's
        reset infos."""
        lo, hi = self._bounds[w]
        dims, reset_infos = vt.decode_relane_reply(
            self._recv_direct(w, "construction"), hi - lo)
        self._check_dims(dims)
        return reset_infos

    def _recv_worker(self, w: int):
        """One binary reply record from worker ``w``.

        Every fault signal lands here — pipe EOF, step timeout, CRC
        mismatch — and flows into :meth:`_recover_worker`, which either
        brings a fresh worker to the exact pre-fault state (and re-sends
        the in-flight command, so this loop simply waits again) or
        tears the env down and raises :class:`WorkerDiedError`.
        """
        while True:
            if self._local[w] is not None:
                return self._finish_reply(
                    self._local[w].handle(self._inflight[w]))
            conn = self._conns[w]
            config = self._sup.config
            timeout = config.step_timeout if config.enabled else None
            try:
                if timeout is not None and not conn.poll(timeout):
                    self._sup.stats["timeouts"] += 1
                    self._recover_worker(w, f"no reply within {timeout}s")
                    continue
                raw = conn.recv_bytes()
            except (EOFError, OSError) as exc:
                self._recover_worker(w, f"pipe closed ({type(exc).__name__})")
                continue
            if self._frame_check:
                try:
                    raw = vt.open_frame(raw)
                except vt.FrameError as exc:
                    self._sup.stats["corrupt_frames"] += 1
                    self._recover_worker(w, str(exc))
                    continue
            return self._finish_reply(raw)

    @staticmethod
    def _finish_reply(body):
        """Raise an application error (ST_ERR) reply; pass others on."""
        if body[0] == vt.ST_ERR:
            raise RuntimeError(
                f"VectorEnv worker failed: {vt.decode_error(body)}")
        return body

    # -- fault recovery ------------------------------------------------
    def _fail(self, reason: str) -> None:
        """The fail-fast path: tear everything down and raise."""
        self._pool = None
        self._hard_close()
        raise WorkerDiedError(
            f"a VectorEnv worker process died unexpectedly ({reason})"
        )

    def _reap_worker(self, w: int) -> None:
        conn = self._conns[w]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            self._conns[w] = None
        proc = self._procs[w]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - stuck in a syscall
                    proc.kill()
                    proc.join(timeout=1.0)
            else:
                proc.join(timeout=1.0)
            self._procs[w] = None

    def _recover_worker(self, w: int, reason: str) -> None:
        """Replace a dead/wedged worker, restoring its lanes bit-exactly.

        Falls back to the old fail-fast contract (teardown +
        :class:`WorkerDiedError`) when supervision is off or the slice's
        history cannot be reconstructed; falls forward to the degrade
        path (the slice runs in-parent) when the restart budget runs
        out.
        """
        sup = self._sup
        lo, hi = self._bounds[w]
        sup.record_fault(w, reason)
        self._reap_worker(w)
        if self._closed:
            raise WorkerDiedError(
                f"a VectorEnv worker process died unexpectedly ({reason})"
            )
        if not (sup.config.enabled and sup.slice_recoverable(lo, hi)):
            self._fail(reason)
        config = sup.config
        while True:
            if sup.restarts[w] >= config.max_restarts:
                if config.degrade:
                    self._degrade_worker(w)
                    return
                self._fail(f"restart budget exhausted after: {reason}")
            sup.restarts[w] += 1
            sup.stats["restarts"] += 1
            delay = min(config.backoff_cap,
                        config.backoff_base * (2 ** (sup.restarts[w] - 1)))
            if delay > 0:
                time.sleep(delay)
            try:
                self._respawn_worker(w)
                return
            except _RespawnError:
                self._reap_worker(w)

    def _respawn_worker(self, w: int) -> None:
        """One respawn attempt: fresh process, deterministic restore,
        re-sent in-flight command. Any failure raises
        :class:`_RespawnError` and burns a restart budget unit."""
        lo, hi = self._bounds[w]
        # every journaled action already passed the encoder in step()
        restore_cmd = vt.encode_restore_cmd(self._sup.restore_states(lo, hi))
        try:
            self._launch_worker(w)
            self._recv_handshake(w)
            self._conns[w].send_bytes(restore_cmd)
            self._recv_direct(w, "restore")
            if self._inflight[w] is not None:
                self._conns[w].send_bytes(self._inflight[w])
        except (RuntimeError, OSError) as exc:
            raise _RespawnError(f"{type(exc).__name__}: {exc}") from exc

    def _degrade_worker(self, w: int) -> None:
        """Last resort: fold the slice into the parent process.

        The slice's executor is the same class the worker process runs,
        restored from the same journal — execution becomes sync (the
        parallelism is gone) but trajectories stay bit-identical. No
        injector is attached, so a degraded slice is also immune to the
        chaos harness.
        """
        lo, hi = self._bounds[w]
        try:
            executor = _LaneGroupExecutor(
                self._payload, lo, hi, self.num_envs, self._sup.base_seed,
                self._auto_reset, self._record_truth,
            )
            executor.restore(self._sup.restore_states(lo, hi))
            self._check_dims(executor.dims)
        except Exception as exc:
            self._fail(f"degrade failed: {type(exc).__name__}: {exc}")
        self._local[w] = executor
        self._sup.stats["degraded_workers"].append(w)

    def _launch_worker(self, w: int) -> None:
        """Spawn worker ``w``'s process and pipe (no handshake; the
        caller collects it — in bulk at construction, inline on
        respawn)."""
        lo, hi = self._bounds[w]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._payload, lo, hi, self.num_envs,
                  self._sup.base_seed, self._auto_reset, self._record_truth,
                  w, len(self._bounds), self._frame_check),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def _worker_of(self, lane: int) -> tuple[int, int]:
        """(worker index, local lane index) owning a global lane."""
        for w, (lo, hi) in enumerate(self._bounds):
            if lo <= lane < hi:
                return w, lane - lo
        raise IndexError(f"lane {lane} out of range for {self.num_envs} envs")

    # -- lockstep interface --------------------------------------------
    def reset(self, seed=_UNSET) -> list:
        has_seed = seed is not _UNSET
        cmd = vt.encode_reset_cmd(has_seed, seed if has_seed else None)
        for w in range(len(self._bounds)):
            self._dispatch(w, cmd)
        replies = self._recv_group()
        observations: list = []
        infos: list = []
        for reply, (lo, hi) in zip(replies, self._bounds):
            obs, reset_infos = vt.decode_reset_reply(reply, hi - lo, self._dims)
            observations.extend(obs)
            infos.extend(reset_infos)
        self.reset_infos = infos
        self._sup.note_full_reset(has_seed, seed if has_seed else None)
        return observations

    def reset_env(self, i: int, seed: int | None = None):
        w, local = self._worker_of(i)
        self._dispatch(w, vt.encode_reset_env_cmd(local, seed))
        reply = self._recv_worker(w)
        obs, info = vt.decode_reset_env_reply(reply, self._dims)
        self.reset_infos[i] = info
        self._sup.note_reset_env(i, seed)
        return obs

    def step(self, actions=None, mask: Sequence[bool] | None = None) -> VecStep:
        actions = self._split_actions(actions)
        if mask is not None:
            mask = list(mask)
            if len(mask) != self.num_envs:
                raise ValueError(
                    f"expected {self.num_envs} mask entries, got {len(mask)}"
                )
        # encode every group before sending any: an unencodable action
        # raises EncodeError (a TypeError) with no worker commanded, so
        # the lanes stay in lockstep
        cmds = [
            vt.encode_step_cmd(actions[lo:hi],
                               None if mask is None else mask[lo:hi])
            for lo, hi in self._bounds
        ]
        for w, cmd in enumerate(cmds):
            self._dispatch(w, cmd)
        result = self._collect_step()
        self._sup.note_step(actions, mask, result.dones, self._auto_reset)
        return result

    def _collect_step(self) -> VecStep:
        replies = self._recv_group()
        observations: list = []
        infos: list = []
        rewards = np.empty(self.num_envs)
        dones = np.empty(self.num_envs, dtype=bool)
        for reply, (lo, hi) in zip(replies, self._bounds):
            obs, rew, done, info, changed = vt.decode_step_reply(
                reply, hi - lo, self._dims)
            for local_i, reset_info in changed:
                self.reset_infos[lo + local_i] = reset_info
            observations.extend(obs)
            infos.extend(info)
            rewards[lo:hi] = rew
            dones[lo:hi] = done
        return VecStep(observations, rewards, dones, infos)

    def action_masks(self) -> np.ndarray:
        for w in range(len(self._bounds)):
            self._dispatch(w, _MASKS_CMD)
        rows = [
            vt.decode_masks_reply(reply, hi - lo, self._dims)
            for reply, (lo, hi) in zip(self._recv_group(), self._bounds)
        ]
        return np.concatenate(rows, axis=0)

    # -- persistent-pool interface -------------------------------------
    def relane(self, specs, *, seed: int | None = None,
               auto_reset: bool = True) -> "ProcessVectorEnv":
        """Rebuild every lane from ``specs`` on the live worker pool.

        Equivalent to closing this env and constructing
        ``from_specs(specs, seed=seed, auto_reset=auto_reset)`` -- same
        per-lane construction seeds, zeroed episode counts, fresh
        ``reset_infos`` -- but without re-spawning processes or
        re-importing the world. ``specs`` must match ``num_envs``
        (lane counts are part of the pool geometry; :class:`VecPool`
        spawns a new pool when the width changes).
        """
        from repro.scenarios.serialization import spec_to_dict

        if self._closed:
            raise RuntimeError("cannot relane a closed vector env")
        specs = list(specs)
        if len(specs) != self.num_envs:
            raise ValueError(
                f"relane needs {self.num_envs} specs, got {len(specs)}"
            )
        payload = {"specs": [spec_to_dict(s) for s in specs]}
        body = json.dumps(
            {"payload": payload, "seed": seed, "auto_reset": auto_reset}
        ).encode("utf-8")
        cmd = bytes((vt.OP_RELANE,)) + body
        for w in range(len(self._bounds)):
            self._dispatch(w, cmd)
        self._finish_relane(specs, payload)
        self._auto_reset = auto_reset
        self._sup.note_relane(seed)
        return self

    def rebuild_lane(self, i: int, spec, *, seed: int | None = None) -> None:
        """Rebuild one lane in place from ``spec`` (live pool).

        The lane's episode count restarts at zero, and with
        ``seed=None`` the lane draws its construction seed from the
        pool's base-seed schedule, exactly as at construction time.
        """
        from repro.scenarios.serialization import spec_to_dict

        if self._closed:
            raise RuntimeError("cannot rebuild a lane of a closed vector env")
        if self._lane_specs is None:
            raise ValueError(
                "rebuild_lane needs a spec-built vector env "
                "(from_specs); this one was built from a raw config"
            )
        w, local = self._worker_of(i)
        body = json.dumps(
            {"lane": local, "spec": spec_to_dict(spec), "seed": seed}
        ).encode("utf-8")
        self._dispatch(w, bytes((vt.OP_RELANE,)) + body)
        lo, hi = self._bounds[w]
        reply = self._recv_worker(w)
        dims, reset_infos = vt.decode_relane_reply(reply, hi - lo)
        self._check_dims(dims)
        self.reset_infos[lo:hi] = reset_infos
        self._lane_specs[i] = spec
        self._lane_configs = None
        # keep construction metadata honest: the payload (what a future
        # relane/template build starts from) and the lazily built
        # template must reflect the rebuilt lane
        self._payload = {"specs": [spec_to_dict(s) for s in self._lane_specs]}
        self._template_env = None
        self._sup.note_rebuild(i, seed)

    def _finish_relane(self, specs: list, payload: dict) -> None:
        replies = self._recv_group()
        reset_infos: list = []
        dims_seen: list[vt.Dims] = []
        for reply, (lo, hi) in zip(replies, self._bounds):
            dims, infos = vt.decode_relane_reply(reply, hi - lo)
            dims_seen.append(dims)
            reset_infos.extend(infos)
        if any(dims != dims_seen[0] for dims in dims_seen[1:]):
            raise ValueError(
                "relane specs disagree on the action space; all lanes of a "
                "vector env must share a topology"
            )
        # a relane may legitimately move the pool to a different network
        # preset; the workers' agreed geometry becomes the new contract
        self._dims = dims_seen[0]
        self.reset_infos = reset_infos
        self._payload = payload
        self._lane_specs = list(specs)
        self._lane_configs = None
        self._template_env = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the env; a pool-owned env is only *released*.

        For a standalone env this terminates the workers. For an env handed out by a
        :class:`VecPool` it is a soft release -- the lease returns to
        the pool, the workers stay alive for the next ``acquire``, and
        the pool's own ``close()`` performs the real teardown.
        """
        if self._pool is not None and not self._closed:
            self._pool.release(self)
            return
        self._hard_close()

    def shutdown(self) -> None:
        """Terminate the workers even if a pool owns this env."""
        self._pool = None
        self._hard_close()

    def _hard_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool = None
        try:
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.send_bytes(_CLOSE_CMD)
                except (BrokenPipeError, OSError):
                    pass
            for w, conn in enumerate(self._conns):
                if conn is None:
                    continue
                # a bounded grace period: a healthy worker acks CLOSE in
                # microseconds; one that stays silent is wedged (or mid
                # crash) and gets terminated instead of a long join —
                # eviction of a hung pool must not block its caller.
                graceful = False
                try:
                    if conn.poll(0.25):
                        conn.recv_bytes()
                        graceful = True
                except (EOFError, OSError):
                    graceful = True  # already dead: join returns at once
                conn.close()
                proc = self._procs[w]
                if proc is None:
                    continue
                if graceful:
                    proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover
                        proc.kill()
                        proc.join(timeout=1.0)
        finally:
            self._local = [None] * len(self._bounds)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self._hard_close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# persistent pools
# ----------------------------------------------------------------------
class VecPool:
    """A cache of live worker-pool vector envs, re-laned instead of
    re-spawned.

    :meth:`acquire` hands out a :class:`ProcessVectorEnv` for a batch
    of scenario specs. When a live pool with the same geometry (lane
    count, worker count)
    already exists, its workers are re-laned onto the new specs --
    bit-identical to a fresh construction, without paying process
    startup -- otherwise a new pool is spawned and cached. Envs handed
    out by a pool treat ``close()`` as a soft release, so existing
    ``with venv:`` call sites work unchanged; the pool's own
    :meth:`close` (or the interpreter exit hook on
    :func:`default_pool`) performs the real teardown.

    The CEM attacker oracle, the self-play loop, and the ``repro
    serve`` job service are the intended users: one pool serves every
    generation of every round (or every queued job). ``spawns`` and
    ``reuses`` count pool constructions and re-lanings -- a healthy
    CEM run reports ``spawns == 1``.

    **Thread safety.** Every pool operation (acquire, release, close,
    stats) holds one internal lock, so concurrent acquisitions cannot
    corrupt the cache or double-spawn, and eviction never tears down
    an env that is currently checked out (the cache may temporarily
    exceed ``max_pools`` until leases are released). Note the pinned
    *sequential* semantics are unchanged: re-acquiring a geometry
    without releasing it first re-lanes the same env (the caller is
    assumed to have abandoned it). Threads that share one pool must
    therefore use distinct geometries or serialize their use of each
    env -- the serve layer holds its own job-level lock for exactly
    this reason.
    """

    def __init__(self, max_pools: int = 4):
        if max_pools < 1:
            raise ValueError("max_pools must be >= 1")
        self.max_pools = max_pools
        self._pools: "OrderedDict[tuple, ProcessVectorEnv]" = OrderedDict()
        self._lock = threading.RLock()
        self._closed = False
        self.spawns = 0
        self.reuses = 0

    def acquire(self, specs, *, seed: int | None = None,
                num_workers: int | None = None,
                auto_reset: bool = True, record_truth: bool = True,
                start_method: str | None = None) -> ProcessVectorEnv:
        """A ready vector env over ``specs``, reusing live workers."""
        specs = list(specs)
        if not specs:
            raise ValueError("acquire needs at least one spec")
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot acquire from a closed VecPool")
            key = (len(specs), num_workers, record_truth, start_method)
            venv = self._pools.get(key)
            if venv is not None and not venv._closed:
                try:
                    venv.relane(specs, seed=seed, auto_reset=auto_reset)
                    self.reuses += 1
                    self._pools.move_to_end(key)
                    venv._pool_leased = True
                    return venv
                except RuntimeError:
                    # dead or wedged pool; fall through and respawn
                    venv.shutdown()
            venv = ProcessVectorEnv.from_specs(
                specs, seed=seed, auto_reset=auto_reset,
                record_truth=record_truth, num_workers=num_workers,
                start_method=start_method,
            )
            venv._pool = self
            venv._pool_leased = True
            self.spawns += 1
            old = self._pools.pop(key, None)
            if old is not None:
                old.shutdown()
            self._pools[key] = venv
            self._evict_over_budget()
            return venv

    def release(self, venv: ProcessVectorEnv) -> None:
        """Return a lease (the soft ``close()`` of a pooled env)."""
        with self._lock:
            venv._pool_leased = False
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Evict LRU entries beyond ``max_pools`` -- but never one that
        is checked out; those wait for their :meth:`release`."""
        excess = len(self._pools) - self.max_pools
        if excess <= 0:
            return
        for key, venv in list(self._pools.items()):
            if excess <= 0:
                break
            if venv._pool_leased and not venv._closed:
                continue
            del self._pools[key]
            venv.shutdown()
            excess -= 1

    @property
    def stats(self) -> dict:
        with self._lock:
            return {"spawns": self.spawns, "reuses": self.reuses,
                    "live_pools": len(self._pools)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)

    def close(self) -> None:
        """Terminate every cached pool (idempotent)."""
        with self._lock:
            self._closed = True
            pools, self._pools = list(self._pools.values()), OrderedDict()
        for venv in pools:
            venv.shutdown()

    def __enter__(self) -> "VecPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


_DEFAULT_POOL: VecPool | None = None
_DEFAULT_POOL_LOCK = threading.Lock()


def default_pool() -> VecPool:
    """The process-wide :class:`VecPool` behind ``reuse_pool=True``.

    Created on first use (thread-safely) and closed at interpreter
    exit; callers that want deterministic teardown should hold their
    own :class:`VecPool`.
    """
    global _DEFAULT_POOL
    with _DEFAULT_POOL_LOCK:
        if _DEFAULT_POOL is None or _DEFAULT_POOL._closed:
            import atexit

            _DEFAULT_POOL = VecPool()
            atexit.register(_DEFAULT_POOL.close)
        return _DEFAULT_POOL
