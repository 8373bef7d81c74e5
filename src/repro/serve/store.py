"""SQLite-backed run registry for the evaluation service.

Every job the service executes becomes one row in ``runs`` plus one row
per completed episode in ``episodes`` — scenario, seed, policy
identifier, per-episode metrics (including wall-time) and aggregate
metrics — so results survive the process and are queryable long after
the server restarted (``repro runs list`` reads the same file).

Design points:

* **WAL mode.** Readers never block the single writer, so ``repro runs
  list`` can watch a live server's store, and several store handles
  (service + CLI, or concurrent service threads) coexist.
* **Schema versioning.** ``PRAGMA user_version`` tracks the schema; a
  reopen is a no-op, an old file is migrated step-by-step through
  ``_MIGRATIONS``, and a file from a *newer* code version is refused
  rather than scribbled on.
* **Append-only data.** ``runs`` and ``episodes`` rows are never
  deleted; the only in-place mutation is the run's status lifecycle
  (``queued -> running -> done/error/cancelled``, or ``interrupted``
  when a reopening store finds rows a crashed server left ``running``)
  and its closing timestamps/metrics. Free-form detail travels in JSON
  columns, so the schema does not chase every new job field.
* **Crash accounting.** :meth:`RunStore.reconcile_interrupted` runs at
  service startup so a killed server never leaves phantom ``running``
  rows behind. The v2 ``faults`` column counted the worker-process
  faults a job survived; the service no longer runs worker processes,
  so new runs keep its default of 0 and older rows read as before.

The store is thread-safe: one connection guarded by a lock, with a
busy timeout so independent handles on the same file (WAL) retry
instead of failing.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid

__all__ = ["RunStore", "SCHEMA_VERSION", "RUN_STATUSES", "new_run_id"]

SCHEMA_VERSION = 3

#: the run status lifecycle; terminal states are never left
#: (``interrupted`` marks runs stranded ``running`` by a server crash)
RUN_STATUSES = ("queued", "running", "done", "error", "cancelled",
                "interrupted")

#: each entry migrates user_version i -> i+1
_MIGRATIONS = [
    # 0 -> 1: initial schema
    """
    CREATE TABLE runs (
        run_id      TEXT PRIMARY KEY,
        kind        TEXT NOT NULL,
        scenario_id TEXT,
        spec        TEXT,           -- ScenarioSpec JSON (inline-spec jobs)
        policy      TEXT,           -- policy / checkpoint identifier
        seed        INTEGER,
        episodes    INTEGER,        -- requested episode count
        status      TEXT NOT NULL,
        created_at  REAL NOT NULL,
        started_at  REAL,
        finished_at REAL,
        wall_time   REAL,           -- whole-run wall-clock seconds
        code_version TEXT,
        tags        TEXT NOT NULL DEFAULT '[]',  -- JSON array
        detail      TEXT NOT NULL DEFAULT '{}',  -- JSON request payload
        metrics     TEXT,           -- JSON aggregate metrics
        error       TEXT
    );
    CREATE INDEX idx_runs_scenario ON runs (scenario_id);
    CREATE INDEX idx_runs_status ON runs (status);
    CREATE INDEX idx_runs_created ON runs (created_at);
    CREATE TABLE episodes (
        run_id        TEXT NOT NULL,
        lane          INTEGER NOT NULL DEFAULT 0,
        episode_index INTEGER NOT NULL,
        seed          INTEGER,
        wall_time     REAL,
        recorded_at   REAL NOT NULL,
        detail        TEXT NOT NULL,  -- JSON EpisodeMetrics / round record
        PRIMARY KEY (run_id, lane, episode_index)
    );
    """,
    # 1 -> 2: per-run worker-fault count (fault-tolerant execution)
    """
    ALTER TABLE runs ADD COLUMN faults INTEGER NOT NULL DEFAULT 0;
    """,
    # 2 -> 3: checkpoint-promotion verdicts (offline OPE gate)
    """
    CREATE TABLE promotions (
        promotion_id     TEXT PRIMARY KEY,
        candidate_run_id TEXT NOT NULL,
        baseline_run_id  TEXT,          -- NULL for fixed-value baselines
        estimator        TEXT NOT NULL,
        candidate_lower  REAL NOT NULL,
        baseline_lower   REAL NOT NULL,
        min_margin       REAL NOT NULL,
        verdict          TEXT NOT NULL,
        created_at       REAL NOT NULL,
        detail           TEXT NOT NULL DEFAULT '{}'  -- JSON context
    );
    CREATE INDEX idx_promotions_candidate ON promotions (candidate_run_id);
    CREATE INDEX idx_promotions_created ON promotions (created_at);
    """,
]


def new_run_id() -> str:
    """A short, unique run identifier (also the service's job id)."""
    return uuid.uuid4().hex[:12]


def _json_or_none(value):
    return None if value is None else json.dumps(value, sort_keys=True)


class RunStore:
    """Append-only SQLite registry of service runs and their episodes.

    All methods are safe to call from any thread; rows come back as
    plain JSON-compatible dicts (JSON columns decoded), so they can be
    returned from the HTTP API verbatim.
    """

    def __init__(self, path: str, *, timeout: float = 10.0):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._closed = False
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            self._migrate()

    # -- schema --------------------------------------------------------
    def _migrate(self) -> None:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"run store {self.path!r} has schema version {version}, "
                f"newer than this code's {SCHEMA_VERSION}; refusing to touch it"
            )
        while version < SCHEMA_VERSION:
            with self._conn:  # one transaction per migration step
                self._conn.executescript(_MIGRATIONS[version])
                version += 1
                self._conn.execute(f"PRAGMA user_version={version}")

    @property
    def schema_version(self) -> int:
        with self._lock:
            return self._conn.execute("PRAGMA user_version").fetchone()[0]

    # -- writes --------------------------------------------------------
    def create_run(self, kind: str, *, run_id: str | None = None,
                   scenario_id: str | None = None, spec: dict | None = None,
                   policy: str | None = None, seed: int | None = None,
                   episodes: int | None = None, tags: list[str] | None = None,
                   detail: dict | None = None, code_version: str | None = None,
                   status: str = "queued") -> str:
        """Insert a new run row; returns its id."""
        if status not in RUN_STATUSES:
            raise ValueError(f"unknown run status {status!r}")
        run_id = run_id or new_run_id()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO runs (run_id, kind, scenario_id, spec, policy,"
                " seed, episodes, status, created_at, code_version, tags,"
                " detail) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (run_id, kind, scenario_id, _json_or_none(spec), policy,
                 seed, episodes, status, time.time(), code_version,
                 json.dumps(list(tags or [])),
                 json.dumps(detail or {}, sort_keys=True)),
            )
        return run_id

    def mark_running(self, run_id: str) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE runs SET status='running', started_at=? "
                "WHERE run_id=? AND status='queued'",
                (time.time(), run_id),
            )

    def record_episode(self, run_id: str, episode_index: int, detail: dict, *,
                       lane: int = 0, seed: int | None = None,
                       wall_time: float | None = None) -> None:
        """Append one completed episode record.

        ``INSERT OR REPLACE``: re-recording an episode index simply
        supersedes the earlier record."""
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO episodes (run_id, lane,"
                " episode_index, seed, wall_time, recorded_at, detail)"
                " VALUES (?,?,?,?,?,?,?)",
                (run_id, lane, episode_index, seed, wall_time, time.time(),
                 json.dumps(detail, sort_keys=True)),
            )

    def _finish(self, run_id: str, status: str, *, metrics: dict | None,
                error: str | None, faults: int = 0) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE runs SET status=?, finished_at=?,"
                " wall_time=CASE WHEN started_at IS NULL THEN NULL"
                " ELSE ? - started_at END,"
                " metrics=?, error=?, faults=? WHERE run_id=?",
                (status, time.time(), time.time(),
                 _json_or_none(metrics), error, int(faults), run_id),
            )

    def finish_run(self, run_id: str, metrics: dict | None = None, *,
                   faults: int = 0) -> None:
        self._finish(run_id, "done", metrics=metrics, error=None,
                     faults=faults)

    def fail_run(self, run_id: str, error: str, *, faults: int = 0) -> None:
        self._finish(run_id, "error", metrics=None, error=error,
                     faults=faults)

    def cancel_run(self, run_id: str) -> None:
        self._finish(run_id, "cancelled", metrics=None, error=None)

    def reconcile_interrupted(self) -> list[dict]:
        """Mark runs a dead server stranded ``running`` as ``interrupted``.

        Called at service startup (and usable from the CLI): any row
        still ``running`` cannot actually be running — this process
        just opened the store — so it is flagged rather than left as a
        phantom forever. Returns the affected rows (decoded), so the
        caller can requeue them from their stored request payloads.
        """
        with self._lock, self._conn:
            rows = self._conn.execute(
                "SELECT * FROM runs WHERE status='running'"
            ).fetchall()
            stranded = [self._decode_run(row) for row in rows]
            if stranded:
                self._conn.executemany(
                    "UPDATE runs SET status='interrupted', finished_at=?,"
                    " error=COALESCE(error, 'server exited mid-run')"
                    " WHERE run_id=?",
                    [(time.time(), run["run_id"]) for run in stranded],
                )
        for run in stranded:
            run["status"] = "interrupted"
        return stranded

    def record_promotion(self, *, candidate_run_id: str,
                         baseline_run_id: str | None, estimator: str,
                         candidate_lower: float, baseline_lower: float,
                         min_margin: float, verdict: str,
                         detail: dict | None = None) -> str:
        """Append one checkpoint-promotion verdict; returns its id.

        Promotion rows are append-only history, like runs: re-judging
        the same candidate writes a new row rather than mutating the
        old verdict."""
        promotion_id = new_run_id()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO promotions (promotion_id, candidate_run_id,"
                " baseline_run_id, estimator, candidate_lower,"
                " baseline_lower, min_margin, verdict, created_at, detail)"
                " VALUES (?,?,?,?,?,?,?,?,?,?)",
                (promotion_id, candidate_run_id, baseline_run_id, estimator,
                 float(candidate_lower), float(baseline_lower),
                 float(min_margin), verdict, time.time(),
                 json.dumps(detail or {}, sort_keys=True)),
            )
        return promotion_id

    def promotions(self, *, candidate_run_id: str | None = None,
                   limit: int = 50) -> list[dict]:
        """Newest-first promotion verdicts, optionally per candidate."""
        query = "SELECT * FROM promotions"
        params: list = []
        if candidate_run_id is not None:
            query += " WHERE candidate_run_id=?"
            params.append(candidate_run_id)
        query += " ORDER BY created_at DESC, promotion_id DESC"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        decoded = []
        for row in rows:
            promotion = dict(row)
            promotion["detail"] = json.loads(promotion["detail"])
            decoded.append(promotion)
        return decoded[: max(0, limit)] if limit is not None else decoded

    # -- reads ---------------------------------------------------------
    @staticmethod
    def _decode_run(row: sqlite3.Row) -> dict:
        run = dict(row)
        for key in ("spec", "metrics"):
            if run.get(key) is not None:
                run[key] = json.loads(run[key])
        run["tags"] = json.loads(run["tags"])
        run["detail"] = json.loads(run["detail"])
        return run

    def get_run(self, run_id: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id=?", (run_id,)
            ).fetchone()
        return None if row is None else self._decode_run(row)

    def list_runs(self, *, scenario: str | None = None,
                  status: str | None = None, kind: str | None = None,
                  tag: str | None = None, limit: int = 50) -> list[dict]:
        """Newest-first run rows, optionally filtered.

        ``scenario``/``status``/``kind`` filter in SQL; ``tag``
        membership is checked on the decoded JSON array (portable
        across sqlite builds with and without the json1 extension).
        """
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if scenario is not None:
            clauses.append("scenario_id=?")
            params.append(scenario)
        if status is not None:
            clauses.append("status=?")
            params.append(status)
        if kind is not None:
            clauses.append("kind=?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at DESC, run_id DESC"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        runs = [self._decode_run(row) for row in rows]
        if tag is not None:
            runs = [run for run in runs if tag in run["tags"]]
        return runs[: max(0, limit)] if limit is not None else runs

    def episodes_of(self, run_id: str) -> list[dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM episodes WHERE run_id=?"
                " ORDER BY lane, episode_index",
                (run_id,),
            ).fetchall()
        episodes = []
        for row in rows:
            episode = dict(row)
            episode["detail"] = json.loads(episode["detail"])
            episodes.append(episode)
        return episodes

    def count_runs(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
