"""Tests for the evaluation service: job validation, the HTTP surface,
backpressure, cancellation, terminal-status ordering, graceful
shutdown, and overlapping ACSO jobs."""

import asyncio
import json
import queue
import threading
import time

import pytest

from repro.serve import (
    EvalService,
    ServeClient,
    ServeNotFoundError,
    ServeQueueFullError,
    ServeRequestError,
    ServeServer,
    ServiceClosedError,
    parse_job,
)
from repro.serve.jobs import JobError
from repro.serve.store import RunStore

TINY = "inasim-tiny-v1"


# ----------------------------------------------------------------------
# payload validation (no server needed)
# ----------------------------------------------------------------------
class TestParseJob:
    def test_minimal(self):
        request = parse_job({"scenario": TINY})
        assert request.kind == "evaluate"
        assert request.policy == "playbook"
        assert request.scenario_label == TINY

    def test_inline_spec(self):
        from repro.scenarios import get_scenario
        from repro.scenarios.serialization import spec_to_dict

        payload = {"spec": spec_to_dict(get_scenario(TINY)), "seed": 5}
        request = parse_job(payload)
        assert request.resolve_spec().scenario_id == TINY

    @pytest.mark.parametrize("payload,match", [
        ({}, "exactly one of"),
        ({"scenario": TINY, "spec": {}}, "exactly one of"),
        ({"scenario": TINY, "kind": "train"}, "unknown job kind"),
        ({"scenario": TINY, "policy": "magic"}, "unknown policy"),
        ({"scenario": TINY, "policy": "expert"}, "needs a 'dbn'"),
        ({"scenario": TINY, "episodes": 0}, "positive integer"),
        ({"scenario": TINY, "episodes": "two"}, "positive integer"),
        ({"scenario": TINY, "num_envs": -1}, "positive integer"),
        ({"scenario": TINY, "backend": "batched"}, "unknown job fields"),
        ({"scenario": TINY, "tags": "prod"}, "list of strings"),
        ({"scenario": TINY, "frobnicate": 1}, "unknown job fields"),
        ({"spec": {"bogus": True}}, "invalid inline spec"),
        ({"scenario": TINY, "kind": "selfplay"},
         "unknown job kind 'selfplay'"),
    ])
    def test_rejections(self, payload, match):
        with pytest.raises(JobError, match=match):
            parse_job(payload)

    def test_to_payload_round_trip(self):
        from repro.scenarios import get_scenario
        from repro.scenarios.serialization import spec_to_dict

        common = {"kind": "evaluate", "policy": "acso", "episodes": 3,
                  "seed": 9, "max_steps": 40, "num_envs": 2, "tags": ["t"],
                  "dbn": "tables.npz", "qnet": "qnet.npz"}
        for target in ({"scenario": TINY},
                       {"spec": spec_to_dict(get_scenario(TINY))}):
            payload = {**common, **target}
            assert parse_job(payload).to_payload() == payload


# ----------------------------------------------------------------------
# a live server on an ephemeral port, driven from the test thread
# ----------------------------------------------------------------------
class ServerHandle:
    """Runs ServeServer inside a dedicated event-loop thread."""

    def __init__(self, db_path, **service_kwargs):
        self.db_path = str(db_path)
        self.service_kwargs = service_kwargs
        self.service = None
        self.client = None
        self._ready = queue.Queue()
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.service = EvalService(self.db_path, **self.service_kwargs)
            server = ServeServer(self.service, port=0)
            await server.start()
            self._ready.put(server.port)
            await server.serve_forever()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover
            self._ready.put(exc)

    def __enter__(self):
        self._thread.start()
        port = self._ready.get(timeout=30)
        if isinstance(port, BaseException):
            raise port
        self.client = ServeClient(port=port, timeout=30)
        return self

    def __exit__(self, *exc_info):
        if self._stopped:
            return
        self._stopped = True
        try:
            self.client.shutdown()
        except OSError:
            pass
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server failed to drain"


@pytest.fixture()
def server(tmp_path):
    with ServerHandle(tmp_path / "runs.sqlite", max_queue=8) as handle:
        yield handle


class TestServeEndToEnd:
    def test_health(self, server):
        health = server.client.health()
        assert health["status"] == "ok"
        assert health["max_queue"] == 8
        assert "pool" not in health
        assert health["faults"] == {"jobs_interrupted": 0,
                                    "jobs_requeued": 0}

    def test_served_evaluation_matches_one_shot(self, server):
        """The acceptance bar: served == one-shot, bit for bit."""
        from repro.defenders import PlaybookPolicy
        from repro.eval import evaluate_policy
        from repro.scenarios import get_scenario

        job = server.client.submit({
            "kind": "evaluate", "scenario": TINY, "policy": "playbook",
            "episodes": 3, "seed": 11, "max_steps": 40,
        })
        done = server.client.wait(job["job_id"], timeout=120)
        assert done["progress"] == {"completed": 3, "total": 3}

        # the one-shot reference, exactly as the CLI resolves it:
        # --max-steps folds into the config horizon before building
        spec = get_scenario(TINY)
        config = spec.build_config()
        config = config.with_tmax(min(config.tmax, 40))
        env = spec.build_env(config=config, seed=11)
        aggregate, records = evaluate_policy(
            env, PlaybookPolicy(), 3, seed=11, max_steps=40)
        served = done["metrics"]
        for name in ("discounted_return", "final_plcs_offline",
                     "avg_it_cost", "avg_nodes_compromised"):
            assert served[name] == list(getattr(aggregate, name))

        # per-episode rows carry the seeds and wall times
        run = server.client.run(job["job_id"])
        seeds = [e["seed"] for e in run["episode_records"]]
        assert seeds == [11, 12, 13]
        assert all(e["wall_time"] > 0 for e in run["episode_records"])
        assert [e["detail"]["discounted_return"]
                for e in run["episode_records"]] \
            == [r.discounted_return for r in records]

    def test_vectorized_job_matches_single(self, server):
        argv = {"kind": "evaluate", "scenario": TINY, "policy": "playbook",
                "episodes": 2, "seed": 3, "max_steps": 30}
        single = server.client.wait(
            server.client.submit(argv)["job_id"], timeout=120)
        vec = server.client.wait(
            server.client.submit({**argv, "num_envs": 2})["job_id"],
            timeout=120)
        assert single["metrics"] == vec["metrics"]

    def test_vectorized_job_matches_sync_oracle(self, server):
        """A served two-lane job (batched engine) reports the metrics
        of the same evaluation over sync lanes, run in-process."""
        import dataclasses

        import repro
        from repro.defenders import PlaybookPolicy
        from repro.eval import evaluate_policy_vec
        from repro.scenarios import get_scenario

        done = server.client.wait(server.client.submit({
            "kind": "evaluate", "scenario": TINY, "policy": "playbook",
            "episodes": 3, "seed": 5, "max_steps": 30, "num_envs": 2,
        })["job_id"], timeout=120)
        assert done["status"] == "done", done

        spec = get_scenario(TINY)
        horizon = min(spec.build_config().tmax, 30)
        with repro.make_vec(spec.with_overrides(horizon=horizon), 2, seed=5,
                            backend="sync") as venv:
            aggregate, _ = evaluate_policy_vec(venv, PlaybookPolicy(), 3,
                                               seed=5, max_steps=30)
        expected = dataclasses.asdict(aggregate)
        assert done["metrics"] == {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in expected.items()
        }

    def test_bad_payload_is_400(self, server):
        with pytest.raises(ServeRequestError):
            server.client.submit({"scenario": TINY, "policy": "magic"})
        with pytest.raises(ServeRequestError):
            server.client.submit({})
        with pytest.raises(ServeRequestError,
                           match="unknown job kind 'selfplay'") as exc:
            server.client.submit({"kind": "selfplay", "scenario": TINY})
        assert exc.value.status == 400

    def test_unknown_ids_are_404(self, server):
        with pytest.raises(ServeNotFoundError):
            server.client.job("nope")
        with pytest.raises(ServeNotFoundError):
            server.client.run("nope")
        with pytest.raises(ServeNotFoundError):
            server.client._request("GET", "/bogus")

    def test_failed_job_lands_as_error_run(self, server):
        job = server.client.submit({"scenario": "no-such-scenario-v0"})
        done = server.client.wait(job["job_id"], timeout=60,
                                  raise_on_failure=False)
        assert done["status"] == "error"
        assert "unknown scenario" in done["error"]
        assert server.client.run(job["job_id"])["status"] == "error"

    def test_runs_survive_restart(self, server, tmp_path):
        job = server.client.submit({"scenario": TINY, "episodes": 1,
                                    "max_steps": 10, "tags": ["restart"]})
        server.client.wait(job["job_id"], timeout=60)
        server.__exit__()  # full drain + store close

        # cold reopen: the run is still there, queryable by tag
        with RunStore(server.db_path) as store:
            rows = store.list_runs(tag="restart")
            assert len(rows) == 1
            assert rows[0]["run_id"] == job["job_id"]
            assert rows[0]["status"] == "done"
            assert rows[0]["metrics"] is not None

        # restart a fresh server on the same store; history intact
        with ServerHandle(server.db_path) as reborn:
            runs = reborn.client.runs(tag="restart")
            assert [r["run_id"] for r in runs] == [job["job_id"]]


class TestBackpressureAndCancel:
    def _slow_payload(self, seed=0):
        return {"kind": "evaluate", "scenario": TINY, "policy": "playbook",
                "episodes": 500, "seed": seed}

    def _wait_status(self, client, job_id, status, timeout=30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if client.job(job_id)["status"] == status:
                return
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never reached {status!r}")

    def test_queue_overflow_rejected_not_deadlocked(self, tmp_path):
        with ServerHandle(tmp_path / "runs.sqlite", max_queue=2) as server:
            client = server.client
            blocker = client.submit(self._slow_payload())
            self._wait_status(client, blocker["job_id"], "running")
            queued = [client.submit(self._slow_payload(seed=s))
                      for s in (1, 2)]
            with pytest.raises(ServeQueueFullError):
                client.submit(self._slow_payload(seed=3))
            assert client.health()["queue_depth"] == 2

            # cancelling clears the backlog; the server is not wedged
            for job in (blocker, *queued):
                client.cancel(job["job_id"])
            for job in (blocker, *queued):
                done = client.wait(job["job_id"], timeout=60,
                                   raise_on_failure=False)
                assert done["status"] == "cancelled"
            accepted = client.submit({"scenario": TINY, "episodes": 1,
                                      "max_steps": 10})
            client.wait(accepted["job_id"], timeout=60)

    def test_cancelled_run_recorded(self, tmp_path):
        with ServerHandle(tmp_path / "runs.sqlite") as server:
            client = server.client
            job = client.submit(self._slow_payload())
            self._wait_status(client, job["job_id"], "running")
            client.cancel(job["job_id"])
            done = client.wait(job["job_id"], timeout=60,
                               raise_on_failure=False)
            assert done["status"] == "cancelled"
            run = client.run(job["job_id"])
            assert run["status"] == "cancelled"
            # the episodes that did finish before the flag are recorded
            assert len(run["episode_records"]) == done["progress"]["completed"]

    def test_shutdown_rejects_new_jobs(self, tmp_path):
        server = ServerHandle(tmp_path / "runs.sqlite").__enter__()
        try:
            service = server.service
            job = server.client.submit({"scenario": TINY, "episodes": 1,
                                        "max_steps": 10})
            server.client.wait(job["job_id"], timeout=60)
        finally:
            server.__exit__()
        with pytest.raises(ServiceClosedError):
            service.submit({"scenario": TINY})
        # graceful shutdown closed the executor and the store
        assert service._executor._shutdown


class TestJobBurst:
    def test_eight_vectorized_jobs_all_land(self, tmp_path):
        """Eight simultaneous vectorized jobs all complete and land in
        the store, one run per seed."""
        with ServerHandle(tmp_path / "runs.sqlite", max_queue=16) as server:
            client = server.client
            jobs = [client.submit({
                "kind": "evaluate", "scenario": TINY, "policy": "playbook",
                "episodes": 1, "seed": s, "max_steps": 15, "num_envs": 2,
            }) for s in range(8)]
            for job in jobs:
                done = client.wait(job["job_id"], timeout=300)
                assert done["status"] == "done"
            runs = client.runs(kind="evaluate", limit=20)
            assert sorted(r["seed"] for r in runs) == list(range(8))


TERMINAL = ("done", "error", "cancelled")


def _finishes(job):
    return {"ok": True}


def _fails(job):
    raise RuntimeError("boom")


def _is_cancelled(job):
    from repro.serve.jobs import JobCancelled

    raise JobCancelled(job.id)


class TestTerminalStatusOrder:
    """A job publishes its terminal status only after the run row holds
    it, so a client whose ``wait()`` returns never reads a ``running``
    row from ``/runs``."""

    def _service(self, tmp_path, monkeypatch):
        """A started service whose terminal store writes are slow and
        record what a polling client would see while each is in flight:
        (job status, run-row status)."""
        service = EvalService(str(tmp_path / "runs.sqlite"))
        asyncio.run(service.start())
        seen = []
        for name in ("finish_run", "fail_run", "cancel_run"):
            write = getattr(service.store, name)

            def slow(run_id, *args, _write=write, **kwargs):
                seen.append((service.job(run_id).status,
                             service.store.get_run(run_id)["status"]))
                time.sleep(0.05)
                _write(run_id, *args, **kwargs)

            monkeypatch.setattr(service.store, name, slow)
        return service, seen

    def _job(self, service):
        job = service.submit({"scenario": TINY, "episodes": 1,
                              "max_steps": 5})
        service._queue.get_nowait()  # run it by hand, not by a worker
        return job

    @pytest.mark.parametrize("outcome,status", [
        (_finishes, "done"),
        (_fails, "error"),
        (_is_cancelled, "cancelled"),
    ], ids=TERMINAL)
    def test_run_row_lands_before_job_status(self, tmp_path, monkeypatch,
                                             outcome, status):
        service, seen = self._service(tmp_path, monkeypatch)
        job = self._job(service)
        monkeypatch.setattr(service, "_execute_evaluation", outcome)
        service._run_job(job)
        assert job.status == status
        assert service.store.get_run(job.id)["status"] == status
        assert seen, "the terminal store write never ran"
        for job_status, row_status in seen:
            assert job_status not in TERMINAL or row_status in TERMINAL
        service.store.close()

    def test_queued_cancel_lands_before_job_status(self, tmp_path,
                                                   monkeypatch):
        service, seen = self._service(tmp_path, monkeypatch)

        async def cancel_queued():
            job = service.submit({"scenario": TINY, "episodes": 1,
                                  "max_steps": 5})
            service.cancel(job.id)
            await service._queue.put(None)  # stop after this job
            await service._worker()
            return job

        job = asyncio.run(cancel_queued())
        assert job.status == "cancelled"
        assert service.store.get_run(job.id)["status"] == "cancelled"
        assert seen == [("queued", "queued")]
        service.store.close()


class TestServeSmoke:
    """The CI smoke-tier job: in-process server, tiny-net submission,
    poll to completion, assert the run row — all under a hard timeout."""

    def test_smoke(self, tmp_path):
        deadline = time.monotonic() + 120  # hard cap
        with ServerHandle(tmp_path / "runs.sqlite") as server:
            job = server.client.submit({
                "kind": "evaluate", "scenario": TINY, "policy": "playbook",
                "episodes": 1, "seed": 0, "max_steps": 10,
            })
            done = server.client.wait(
                job["job_id"], timeout=max(1.0, deadline - time.monotonic()))
            assert done["status"] == "done"
            run = server.client.run(job["job_id"])
            assert run["status"] == "done"
            assert run["metrics"]["discounted_return"][0] != 0
        assert time.monotonic() < deadline


class TestOverlappingACSOJobs:
    """Two ACSO evaluation jobs served at once (``workers=2``) score
    bit for bit what the same jobs score one after another: each job
    builds its own network, and one thread's no-grad inference leaves
    the other's alone. The jobs pass a barrier after every episode, so
    each episode of one runs while the same episode of the other does."""

    @staticmethod
    def _serve(db_path, payloads, *, workers, barrier=None):
        """Run ``payloads`` on a fresh service; returns per job its
        status, run metrics and episode records (wall time dropped)."""

        async def main():
            service = EvalService(str(db_path), workers=workers)
            await service.start()
            if barrier is not None:
                on_episode = service._on_episode

                def in_lockstep(job):
                    inner = on_episode(job)

                    def step(ep, metrics):
                        inner(ep, metrics)
                        barrier.wait(timeout=60)

                    return step

                service._on_episode = in_lockstep
            jobs = [service.submit(payload) for payload in payloads]

            async def finished():
                while any(job.status not in TERMINAL for job in jobs):
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(finished(), timeout=300)
            results = []
            for job in jobs:
                episodes = [{k: v for k, v in row["detail"].items()
                             if k != "wall_time"}
                            for row in service.store.episodes_of(job.id)]
                results.append((job.status, json.dumps(job.metrics),
                                json.dumps(episodes, sort_keys=True)))
            await service.shutdown()
            return results

        return asyncio.run(main())

    def test_overlapping_jobs_score_as_sequential_ones(self, tmp_path,
                                                       tiny_tables):
        tables = tmp_path / "tables.npz"
        tiny_tables.save(tables)
        payloads = [{"kind": "evaluate", "scenario": "inasim-paper-v1",
                     "policy": "acso", "dbn": str(tables), "episodes": 2,
                     "seed": seed, "max_steps": 20} for seed in (1, 2)]
        sequential = self._serve(tmp_path / "one.sqlite", payloads, workers=1)
        overlapping = self._serve(tmp_path / "two.sqlite", payloads,
                                  workers=2, barrier=threading.Barrier(2))
        assert [status for status, *_ in sequential] == ["done", "done"]
        assert overlapping == sequential
        assert sequential[0] != sequential[1]  # the seeds differ
