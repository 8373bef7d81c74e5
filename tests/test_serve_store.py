"""Tests for the SQLite run registry behind ``repro serve``."""

import sqlite3
import threading

import pytest

from repro.serve.store import RUN_STATUSES, RunStore, SCHEMA_VERSION, new_run_id


@pytest.fixture()
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as s:
        yield s


class TestSchema:
    def test_fresh_store_at_current_version(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_reopen_is_a_noop(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as first:
            rid = first.create_run("evaluate", scenario_id="s")
        with RunStore(path) as second:
            assert second.schema_version == SCHEMA_VERSION
            assert second.get_run(rid)["scenario_id"] == "s"

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        RunStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            RunStore(path)

    def test_wal_mode(self, store):
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_run_ids_unique_and_short(self):
        ids = {new_run_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(i) == 12 for i in ids)


class TestLifecycle:
    def test_round_trip(self, store):
        rid = store.create_run(
            "evaluate", scenario_id="inasim-tiny-v1", policy="playbook",
            seed=7, episodes=3, tags=["a", "b"],
            detail={"max_steps": 20}, code_version="1.2.0",
        )
        store.mark_running(rid)
        for i in range(3):
            store.record_episode(rid, i, {"discounted_return": float(i)},
                                 seed=7 + i, wall_time=0.01)
        store.finish_run(rid, {"discounted_return": [1.0, 0.5]})

        run = store.get_run(rid)
        assert run["status"] == "done"
        assert run["scenario_id"] == "inasim-tiny-v1"
        assert run["tags"] == ["a", "b"]
        assert run["detail"] == {"max_steps": 20}
        assert run["metrics"] == {"discounted_return": [1.0, 0.5]}
        assert run["wall_time"] is not None and run["wall_time"] >= 0
        assert run["code_version"] == "1.2.0"

        episodes = store.episodes_of(rid)
        assert [e["episode_index"] for e in episodes] == [0, 1, 2]
        assert [e["seed"] for e in episodes] == [7, 8, 9]
        assert episodes[1]["detail"] == {"discounted_return": 1.0}

    def test_inline_spec_round_trip(self, store):
        spec = {"scenario_id": "inline-x", "preset": "tiny"}
        rid = store.create_run("evaluate", spec=spec)
        assert store.get_run(rid)["spec"] == spec

    def test_fail_and_cancel(self, store):
        bad = store.create_run("evaluate")
        store.mark_running(bad)
        store.fail_run(bad, "boom")
        assert store.get_run(bad)["status"] == "error"
        assert store.get_run(bad)["error"] == "boom"

        dropped = store.create_run("evaluate")
        store.cancel_run(dropped)
        run = store.get_run(dropped)
        assert run["status"] == "cancelled"
        # never started, so no wall time to report
        assert run["wall_time"] is None

    def test_mark_running_only_from_queued(self, store):
        rid = store.create_run("evaluate")
        store.cancel_run(rid)
        store.mark_running(rid)  # must not resurrect a terminal run
        assert store.get_run(rid)["status"] == "cancelled"

    def test_unknown_status_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_run("evaluate", status="launched")
        assert "queued" in RUN_STATUSES

    def test_get_unknown_run(self, store):
        assert store.get_run("nope") is None


class TestListing:
    def _seed_runs(self, store):
        a = store.create_run("evaluate", scenario_id="s1", tags=["x"])
        b = store.create_run("evaluate", scenario_id="s2", tags=["x", "y"])
        c = store.create_run("ope-report", scenario_id="s1")
        store.mark_running(c)
        store.finish_run(c, {})
        return a, b, c

    def test_newest_first(self, store):
        a, b, c = self._seed_runs(store)
        listed = [run["run_id"] for run in store.list_runs()]
        assert set(listed) == {a, b, c}
        assert listed[0] == c  # created last

    def test_filters(self, store):
        a, b, c = self._seed_runs(store)
        assert {r["run_id"] for r in store.list_runs(scenario="s1")} == {a, c}
        assert {r["run_id"] for r in store.list_runs(kind="ope-report")} == {c}
        assert {r["run_id"] for r in store.list_runs(status="done")} == {c}
        assert {r["run_id"] for r in store.list_runs(tag="y")} == {b}
        assert store.list_runs(tag="absent") == []

    def test_limit(self, store):
        self._seed_runs(store)
        assert len(store.list_runs(limit=2)) == 2
        assert store.count_runs() == 3


class TestConcurrency:
    def test_threaded_writers_one_handle(self, store):
        """Many threads hammering one handle: every row must land."""
        errors = []

        def write(k):
            try:
                rid = store.create_run("evaluate", scenario_id=f"s{k}")
                store.mark_running(rid)
                for i in range(5):
                    store.record_episode(rid, i, {"k": k}, seed=i)
                store.finish_run(rid, {"ok": k})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.count_runs() == 8
        for run in store.list_runs():
            assert run["status"] == "done"
            assert len(store.episodes_of(run["run_id"])) == 5

    def test_concurrent_wal_handles(self, tmp_path):
        """Independent handles on one file (service + CLI) coexist."""
        path = tmp_path / "runs.sqlite"
        writer = RunStore(path)
        reader = RunStore(path)
        errors = []

        def write():
            try:
                for k in range(10):
                    rid = writer.create_run("evaluate", scenario_id=f"w{k}")
                    writer.finish_run(rid, {})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            try:
                for _ in range(20):
                    reader.list_runs()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write),
                   threading.Thread(target=read)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert reader.count_runs() == 10
        writer.close()
        reader.close()
