"""The long-lived evaluation service behind ``repro serve``.

:class:`EvalService` is the job engine: submissions land in a bounded
:class:`asyncio.Queue` (overflow is *rejected*, not buffered — the
HTTP layer turns :class:`QueueFullError` into a 429), a fixed group of
worker tasks drains it, and each job executes on a thread-pool executor
so the event loop stays responsive while episodes run. A vectorized
job builds its own in-process vector env with ``repro.make_vec``, on
the engine that function picks for the job's lane count.

Every job is recorded in the :class:`~repro.serve.store.RunStore` from
the moment it is accepted: the run row is created at submit time
(status ``queued``), episodes append as they complete (progress is
readable mid-run), and the terminal status (``done`` / ``error`` /
``cancelled``) lands with aggregate metrics and wall time. A job
publishes its terminal status only after that row is written, so a
client whose ``wait()`` returns reads the same status from ``/runs``.
Results are
produced by the same :mod:`repro.eval.runner` functions the one-shot
CLI uses, so a served evaluation is bit-identical to ``repro
simulate``/``repro evaluate`` for the same scenario, seed, and policy.

Graceful shutdown (:meth:`EvalService.shutdown`) stops accepting
submissions, cancels still-queued jobs, drains the jobs already
in flight, then closes the store.

**Crash recovery.** At startup the store is reconciled: runs a crashed
server stranded ``running`` become ``interrupted`` and — with
``requeue_interrupted`` — are resubmitted from their recorded request
payloads. Both counts are reported by :meth:`EvalService.fault_summary`
(the ``faults`` block of ``/health``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.serve.jobs import (
    JobCancelled,
    JobError,
    JobRequest,
    build_policy,
    parse_job,
)
from repro.serve.store import RunStore, new_run_id

__all__ = ["EvalService", "Job", "QueueFullError", "ServiceClosedError"]


class QueueFullError(RuntimeError):
    """The job queue is at capacity; the submission was rejected (429)."""


class ServiceClosedError(RuntimeError):
    """The service is shutting down; no new submissions (503)."""


class Job:
    """One accepted job: request, live status, and progress counters."""

    __slots__ = ("id", "request", "status", "created_at", "started_at",
                 "finished_at", "error", "metrics", "completed",
                 "cancel_event")

    def __init__(self, job_id: str, request: JobRequest):
        self.id = job_id
        self.request = request
        self.status = "queued"
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: str | None = None
        self.metrics: dict | None = None
        self.completed = 0
        self.cancel_event = threading.Event()

    def snapshot(self) -> dict:
        """A JSON-compatible view for the HTTP API."""
        return {
            "job_id": self.id,
            "kind": self.request.kind,
            "scenario": self.request.scenario_label,
            "policy": self.request.policy,
            "seed": self.request.seed,
            "status": self.status,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {"completed": self.completed,
                         "total": self.request.episodes},
            "metrics": self.metrics,
            "error": self.error,
            "tags": list(self.request.tags),
        }


def _aggregate_dict(aggregate) -> dict:
    return dataclasses.asdict(aggregate)


class EvalService:
    """Asyncio job service over a run store.

    Parameters
    ----------
    store:
        A :class:`RunStore` or a path to create one at.
    max_queue:
        Queue depth bound; submissions beyond it raise
        :class:`QueueFullError` (backpressure, not buffering).
    workers:
        Concurrent job executors. The default of 1 runs one job at a
        time; raising it lets jobs overlap on the thread pool.
    requeue_interrupted:
        At startup, resubmit runs a crashed server stranded
        ``running``, from their recorded request payloads.
    """

    def __init__(self, store: RunStore | str, *,
                 max_queue: int = 64, workers: int = 1,
                 requeue_interrupted: bool = False):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.max_queue = max_queue
        self._jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._n_workers = workers
        self._closing = False
        self._closed = False
        self.requeue_interrupted = requeue_interrupted
        self._fault_lock = threading.Lock()
        self._fault_totals = {"jobs_interrupted": 0, "jobs_requeued": 0}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Create the queue, reconcile the store, spawn the workers."""
        if self._queue is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self._n_workers)
        ]
        stranded = self.store.reconcile_interrupted()
        if stranded:
            with self._fault_lock:
                self._fault_totals["jobs_interrupted"] += len(stranded)
        if self.requeue_interrupted:
            for run in stranded:
                payload = dict(run.get("detail") or {})
                if not payload:
                    continue
                payload["tags"] = list(payload.get("tags", [])) + [
                    f"requeued:{run['run_id']}"
                ]
                try:
                    self.submit(payload)
                except Exception:
                    continue  # malformed legacy payload or full queue
                with self._fault_lock:
                    self._fault_totals["jobs_requeued"] += 1

    async def shutdown(self) -> None:
        """Drain in-flight jobs, cancel queued ones, release resources."""
        if self._closed:
            return
        self._closing = True
        if self._queue is not None:
            # queued jobs are cancelled (their worker skips them);
            # running jobs finish — that is the drain
            for job in self._jobs.values():
                if job.status == "queued":
                    job.cancel_event.set()
            for _ in self._worker_tasks:
                await self._queue.put(None)
            await asyncio.gather(*self._worker_tasks)
        self._closed = True
        self._executor.shutdown(wait=True)
        self.store.close()

    @property
    def closing(self) -> bool:
        return self._closing

    def fault_summary(self) -> dict:
        """Runs stranded by a crashed server, and how many were
        requeued (the ``faults`` block of ``/health``)."""
        with self._fault_lock:
            return dict(self._fault_totals)

    # -- submission / queries -----------------------------------------
    def queue_depth(self) -> int:
        return 0 if self._queue is None else self._queue.qsize()

    def submit(self, payload: dict) -> Job:
        """Validate, persist, and enqueue a job (event-loop thread only).

        Raises :class:`~repro.serve.jobs.JobError` on a malformed
        payload, :class:`QueueFullError` when the queue is at capacity,
        and :class:`ServiceClosedError` during shutdown.
        """
        import repro

        if self._closing or self._queue is None:
            raise ServiceClosedError("service is not accepting jobs")
        request = parse_job(payload)
        job = Job(new_run_id(), request)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise QueueFullError(
                f"job queue is full ({self.max_queue} pending)"
            ) from None
        self._jobs[job.id] = job
        self.store.create_run(
            request.kind,
            run_id=job.id,
            scenario_id=request.scenario_label,
            spec=request.spec,
            policy=request.policy,
            seed=request.seed,
            episodes=request.episodes,
            tags=request.tags,
            detail=request.to_payload(),
            code_version=repro.__version__,
        )
        return job

    def job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.created_at)

    def cancel(self, job_id: str) -> Job | None:
        """Flag a job for cancellation (queued or running)."""
        job = self._jobs.get(job_id)
        if job is not None and job.status in ("queued", "running"):
            job.cancel_event.set()
        return job

    def promote(self, payload: dict) -> dict:
        """Judge a checkpoint promotion and append the verdict row.

        Synchronous — two store reads and one insert, no rollouts — so
        it bypasses the job queue. The payload mirrors
        :func:`~repro.serve.promotion.promote_checkpoint`: ``run_id``,
        ``baseline`` (an ope-report run id or a number), optional
        ``estimator`` and ``min_margin``.
        """
        from repro.serve.promotion import PromotionError, promote_checkpoint

        try:
            run_id = payload["run_id"]
            baseline = payload["baseline"]
        except (KeyError, TypeError):
            raise JobError(
                "promotion payload needs 'run_id' and 'baseline'"
            ) from None
        if not isinstance(baseline, (str, int, float)) \
                or isinstance(baseline, bool):
            raise JobError("'baseline' must be a run id or a number")
        estimator = payload.get("estimator", "DR")
        min_margin = payload.get("min_margin", 0.0)
        if not isinstance(min_margin, (int, float)) \
                or isinstance(min_margin, bool):
            raise JobError("'min_margin' must be a number")
        try:
            return promote_checkpoint(
                self.store, run_id,
                baseline if isinstance(baseline, str) else float(baseline),
                estimator=str(estimator), min_margin=float(min_margin),
            )
        except PromotionError as exc:
            raise JobError(str(exc)) from None

    # -- worker loop ---------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.cancel_event.is_set():
                self.store.cancel_run(job.id)
                job.finished_at = time.time()
                job.status = "cancelled"
                continue
            await loop.run_in_executor(self._executor, self._run_job, job)

    # -- synchronous execution (executor threads) ----------------------
    def _run_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        self.store.mark_running(job.id)
        try:
            metrics = self._execute_evaluation(job)
        except JobCancelled:
            self.store.cancel_run(job.id)
            status = "cancelled"
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            self.store.fail_run(job.id, job.error)
            status = "error"
        else:
            job.metrics = metrics
            self.store.finish_run(job.id, metrics)
            status = "done"
        # publish only once the run row is terminal: a client whose
        # wait() returns must read the same status from /runs
        job.finished_at = time.time()
        job.status = status

    def _resolve_run(self, request: JobRequest):
        """(spec, config) with ``max_steps`` folded into the horizon,
        exactly as the CLI's ``_resolve_config`` does."""
        spec = request.resolve_spec()
        config = spec.build_config()
        if request.max_steps:
            config = config.with_tmax(min(config.tmax, request.max_steps))
        return spec, config

    def _on_episode(self, job: Job):
        def on_episode(ep: int, metrics) -> None:
            self.store.record_episode(
                job.id, ep, dataclasses.asdict(metrics),
                seed=metrics.seed, wall_time=metrics.wall_time,
            )
            job.completed += 1
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)

        return on_episode

    def _execute_evaluation(self, job: Job) -> dict:
        import repro
        from repro.eval.runner import evaluate_policy_vec

        request = job.request
        spec, config = self._resolve_run(request)
        policy = build_policy(request)
        on_episode = self._on_episode(job)
        venv = repro.make_vec(
            spec.with_overrides(horizon=config.tmax), request.num_envs,
            seed=request.seed,
        )
        with venv:
            aggregate, _ = evaluate_policy_vec(
                venv, policy, request.episodes, seed=request.seed,
                max_steps=request.max_steps, on_episode=on_episode,
            )
        return _aggregate_dict(aggregate)
