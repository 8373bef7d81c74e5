"""Fault tolerance at the service layer: store migration and
reconciliation after an unclean shutdown, requeueing stranded runs,
and client-side retry.

The end-to-end test runs a real server (ephemeral port, its own event
loop thread) over a store a "killed" server left behind.
"""

import pytest

from repro.serve import RunStore, ServeClient, ServeQueueFullError
from repro.serve.store import SCHEMA_VERSION, _MIGRATIONS
from test_serve_service import ServerHandle

TINY = "inasim-tiny-v1"


# ----------------------------------------------------------------------
# run store: migration, reconciliation, idempotent episode records
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_v1_store_migrates_to_current(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        with conn:
            conn.executescript(_MIGRATIONS[0])
            conn.execute("PRAGMA user_version=1")
            conn.execute(
                "INSERT INTO runs (run_id, kind, status, created_at)"
                " VALUES ('legacy1', 'evaluate', 'done', 1.0)"
            )
        conn.close()
        with RunStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 3
            run = store.get_run("legacy1")
            assert run["faults"] == 0  # backfilled default
            store.finish_run("legacy1", {"ok": True}, faults=3)
            assert store.get_run("legacy1")["faults"] == 3
            assert store.promotions() == []  # v3 table exists and is empty

    def test_reconcile_marks_stranded_runs_interrupted(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        with RunStore(path) as store:
            run_id = store.create_run("evaluate", scenario_id=TINY,
                                      detail={"scenario": TINY})
            store.mark_running(run_id)
            done_id = store.create_run("evaluate", status="queued")
            store.mark_running(done_id)
            store.finish_run(done_id)
        # "the server was SIGKILLed here" — reopen and reconcile
        with RunStore(path) as store:
            stranded = store.reconcile_interrupted()
            assert [r["run_id"] for r in stranded] == [run_id]
            assert stranded[0]["status"] == "interrupted"
            assert stranded[0]["detail"] == {"scenario": TINY}
            run = store.get_run(run_id)
            assert run["status"] == "interrupted"
            assert "exited mid-run" in run["error"]
            assert store.get_run(done_id)["status"] == "done"
            assert store.reconcile_interrupted() == []  # idempotent

    def test_record_episode_is_idempotent_per_index(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            run_id = store.create_run("evaluate")
            store.record_episode(run_id, 0, {"attempt": 1}, seed=5)
            store.record_episode(run_id, 0, {"attempt": 2}, seed=5)
            episodes = store.episodes_of(run_id)
            assert len(episodes) == 1
            assert episodes[0]["detail"] == {"attempt": 2}


# ----------------------------------------------------------------------
# end-to-end: a served store across an unclean server exit
# ----------------------------------------------------------------------
class TestServedChaos:
    """A server killed mid-run, then restarted on the same store."""

    def test_restart_reconciles_and_requeues_stranded_runs(self, tmp_path):
        """A run left ``running`` by a killed server is marked
        ``interrupted`` when the next server opens the store, and with
        ``requeue_interrupted`` it is resubmitted from its recorded
        payload and actually completes."""
        path = tmp_path / "runs.sqlite"
        payload = {"kind": "evaluate", "scenario": TINY, "policy": "playbook",
                   "episodes": 1, "seed": 7, "max_steps": 10}
        with RunStore(str(path)) as store:
            stranded_id = store.create_run("evaluate", scenario_id=TINY,
                                           detail=payload)
            store.mark_running(stranded_id)  # ...and the server "dies"
        with ServerHandle(path, max_queue=8,
                          requeue_interrupted=True) as server:
            health = server.client.health()
            assert health["faults"]["jobs_interrupted"] == 1
            assert health["faults"]["jobs_requeued"] == 1
            assert (server.client.run(stranded_id)["status"]
                    == "interrupted")
            requeued = [j for j in server.client.jobs()
                        if f"requeued:{stranded_id}" in j["tags"]]
            assert len(requeued) == 1
            done = server.client.wait(requeued[0]["job_id"], timeout=120)
            assert done["status"] == "done"
            assert done["seed"] == 7

    def test_requeue_skips_payload_naming_an_engine(self, tmp_path):
        """Jobs no longer name a vector-env engine: a stranded run whose
        recorded payload carries ``backend`` stays ``interrupted`` and
        is not resubmitted, like any malformed legacy payload."""
        path = tmp_path / "runs.sqlite"
        payload = {"kind": "evaluate", "scenario": TINY, "episodes": 1,
                   "max_steps": 10, "num_envs": 2, "backend": "sync"}
        with RunStore(str(path)) as store:
            stranded_id = store.create_run("evaluate", scenario_id=TINY,
                                           detail=payload)
            store.mark_running(stranded_id)
        with ServerHandle(path, max_queue=8,
                          requeue_interrupted=True) as server:
            health = server.client.health()
            assert health["faults"]["jobs_interrupted"] == 1
            assert health["faults"]["jobs_requeued"] == 0
            assert server.client.jobs() == []
            assert (server.client.run(stranded_id)["status"]
                    == "interrupted")


# ----------------------------------------------------------------------
# client-side resilience
# ----------------------------------------------------------------------
class TestClientRetries:
    def test_transient_errors_retry_then_succeed(self):
        client = ServeClient(port=1, retries=3, backoff=0.0)
        outcomes = [ConnectionResetError("boom"),
                    ServeQueueFullError("full", 429), {"ok": True}]

        def fake_once(method, path, payload=None):
            result = outcomes.pop(0)
            if isinstance(result, Exception):
                raise result
            return result

        client._request_once = fake_once
        assert client._request("GET", "/health") == {"ok": True}
        assert outcomes == []

    def test_retry_budget_exhaustion_surfaces_the_error(self):
        client = ServeClient(port=1, retries=2, backoff=0.0)
        calls = []

        def always_down(method, path, payload=None):
            calls.append(1)
            raise ConnectionRefusedError("no server")

        client._request_once = always_down
        with pytest.raises(ConnectionRefusedError):
            client._request("GET", "/health")
        assert len(calls) == 3  # first try + 2 retries

    def test_protocol_errors_never_retry(self):
        from repro.serve import ServeNotFoundError

        client = ServeClient(port=1, retries=5, backoff=0.0)
        calls = []

        def gone(method, path, payload=None):
            calls.append(1)
            raise ServeNotFoundError("nope", 404)

        client._request_once = gone
        with pytest.raises(ServeNotFoundError):
            client._request("GET", "/runs/xyz")
        assert len(calls) == 1

    def test_wait_backs_off_and_treats_interrupted_as_terminal(
            self, monkeypatch):
        from repro.serve import JobFailedError

        client = ServeClient(port=1, retries=0)
        statuses = iter(["queued", "running", "running", "interrupted"])
        client.job = lambda job_id: {"job_id": job_id,
                                     "status": next(statuses)}
        sleeps = []
        monkeypatch.setattr("repro.serve.client.time.sleep",
                            lambda s: sleeps.append(s))
        with pytest.raises(JobFailedError):
            client.wait("j1", timeout=30, poll=0.1, max_poll=0.2)
        assert sleeps == [0.1, pytest.approx(0.15), pytest.approx(0.2)]
