"""Columnar on-disk episode log for off-policy evaluation.

This module stores logged episodes as **structured numpy record
arrays** — one fixed-width, little-endian record per transition,
holding the action/propensity/reward triple the estimators need, the
engine's step-info tallies, and the featurized state (node/PLC/global
feature blocks plus the valid-action mask) that FQE and doubly-robust
corrections regress on. The record columns are those of the in-memory
:class:`~repro.validation.logging.LoggedEpisode` column batch, so
:class:`TraceWriter` fills a finished episode's records by one array
assignment per column, and the reader slices them back the same way.

Layout on disk (a directory):

* ``shard-NNNNN.bin`` — raw record bytes (``records.tobytes()``), one
  array per shard, whole episodes only (a shard is cut at the first
  episode boundary past ``shard_rows`` rows);
* ``manifest.json`` — schema version, record dtype, per-shard row
  counts/byte sizes and the episodes each shard contains. The manifest
  is rewritten **atomically** (temp file + ``os.replace``) after every
  completed shard, so a crashed recorder leaves a readable store: any
  shard file the manifest does not list is a partial flush and is
  ignored by the reader.

The record's info columns are named by ``INFO_SCALAR_FIELDS`` and
``BREAKDOWN_FIELDS``, and ``ENGINE_INFO_KEYS`` lists every key an
engine step info carries. ``tests/test_tracestore.py`` checks all three
against a real step of the sync and batched engines and against
:class:`~repro.sim.reward.RewardBreakdown`, so an engine info field
cannot be added without a failing test pointing here: decide whether
the record stores it, then list it.

The format is deliberately pickle-free (structured scalars and
subarrays only): a trace file is safe to read from an untrusted
producer and portable across python versions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.rl.features import FeatureSet
from repro.sim.vec_env import drive_vec_episodes, fan_out
from repro.validation.logging import LoggedEpisode, recorder

__all__ = [
    "BREAKDOWN_FIELDS",
    "ENGINE_INFO_KEYS",
    "INFO_SCALAR_FIELDS",
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "KIND_STEP",
    "KIND_FINAL",
    "TraceDims",
    "TraceError",
    "TraceSchemaError",
    "TraceIntegrityError",
    "trace_record_dtype",
    "TraceWriter",
    "write_episodes",
    "record_episodes_vec",
]

TRACE_FORMAT = "repro-ope-trace"
TRACE_SCHEMA_VERSION = 1

#: record kinds: a logged decision step, or the featurized post-episode
#: state snapshot (one optional trailing record per episode — FQE's
#: bootstrap anchor, ``LoggedEpisode.final_features``)
KIND_STEP = 0
KIND_FINAL = 1

#: the numeric step-info fields the record stores, in column order
#: (``it_cost`` is ``<f8``, the rest ``<i8``)
INFO_SCALAR_FIELDS = (
    "t",
    "it_cost",
    "n_compromised",
    "n_ws_compromised",
    "n_srv_compromised",
    "n_plcs_offline",
    "n_plcs_disrupted",
    "n_plcs_destroyed",
)

#: :class:`~repro.sim.reward.RewardBreakdown` fields, in column order
#: (stored as ``rb_<name>`` doubles)
BREAKDOWN_FIELDS = ("r_plc", "r_it", "r_term", "total", "it_cost")

#: every key of an engine step info; the keys outside
#: ``INFO_SCALAR_FIELDS`` and ``reward_breakdown`` are not stored in the
#: record
ENGINE_INFO_KEYS = frozenset(INFO_SCALAR_FIELDS) | {
    "reward_breakdown",
    "launched",
    "completed",
    "apt_phase",
    "conditions",
}

MANIFEST_NAME = "manifest.json"
_SHARD_PATTERN = "shard-{:05d}.bin"


class TraceError(RuntimeError):
    """Base error for trace-store problems."""


class TraceSchemaError(TraceError):
    """The on-disk schema does not match this code's record layout."""


class TraceIntegrityError(TraceError):
    """A shard listed by the manifest is missing or truncated."""


class TraceDims(NamedTuple):
    """Feature-block geometry; fixed for every record of one store."""

    n_nodes: int
    node_dim: int
    n_plcs: int
    plc_dim: int
    glob_dim: int
    n_actions: int

    @classmethod
    def from_step(cls, features: FeatureSet, mask) -> "TraceDims":
        """The geometry of one state, or of a column batch of states
        (read from the trailing axes)."""
        node = np.shape(features.node)
        plc = np.shape(features.plc)
        return cls(
            n_nodes=int(node[-2]),
            node_dim=int(node[-1]),
            n_plcs=int(plc[-2]),
            plc_dim=int(plc[-1]),
            glob_dim=int(np.shape(features.glob)[-1]),
            n_actions=int(np.shape(mask)[-1]),
        )


def trace_record_dtype(dims: TraceDims) -> np.dtype:
    """The explicit little-endian record layout for ``dims``.

    Scalar info fields carry the exact names of the engine's step-info
    keys; the five :class:`RewardBreakdown` doubles are prefixed
    ``rb_`` (``it_cost`` appears in both field sets and record names
    must be unique).
    """
    fields: list[tuple] = [
        ("episode", "<u4"),
        ("lane", "<u2"),
        ("kind", "u1"),
        ("done", "u1"),
        ("action", "<i8"),
        ("behavior_prob", "<f8"),
        ("reward", "<f8"),
    ]
    for name in INFO_SCALAR_FIELDS:
        fields.append((name, "<f8" if name == "it_cost" else "<i8"))
    for name in BREAKDOWN_FIELDS:
        fields.append((f"rb_{name}", "<f8"))
    fields += [
        ("node", "<f8", (dims.n_nodes, dims.node_dim)),
        ("plc", "<f8", (dims.n_plcs, dims.plc_dim)),
        ("glob", "<f8", (dims.glob_dim,)),
        ("mask", "u1", (dims.n_actions,)),
    ]
    return np.dtype(fields)


def _descr_json(dtype: np.dtype) -> list:
    """``dtype.descr`` with JSON-safe lists instead of tuples."""
    return json.loads(json.dumps(dtype.descr))


class TraceWriter:
    """Streaming, shard-rotating writer of the columnar episode log.

    :meth:`write` takes whole finished episodes. They may arrive out of
    order (vectorized lanes complete at their own pace) but are always
    *stored* in episode-index order, so the on-disk log — and every
    estimate computed from it — is independent of how many lanes
    recorded it. :meth:`close` seals the final shard and manifest.
    """

    def __init__(self, path, *, shard_rows: int = 65536,
                 meta: dict | None = None):
        if shard_rows < 1:
            raise ValueError("shard_rows must be positive")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.path.glob("shard-*.bin"))
        if existing or (self.path / MANIFEST_NAME).exists():
            raise TraceError(
                f"refusing to record into non-empty trace dir {self.path}"
            )
        self.shard_rows = int(shard_rows)
        self.meta = dict(meta or {})
        self.dims: TraceDims | None = None
        self.dtype: np.dtype | None = None
        #: encoded episodes waiting for an earlier index (reorder window)
        self._finished: dict[int, tuple[np.ndarray, dict]] = {}
        self._next_flush = 0  # next episode index to store
        self._pending_arrays: list[np.ndarray] = []
        self._pending_episodes: list[dict] = []
        self._pending_rows = 0
        self._shards: list[dict] = []
        self._episodes_total = 0
        self._closed = False

    def write(self, index: int, episode: LoggedEpisode, *, lane: int = 0,
              infos: list[dict] | None = None) -> None:
        """Record finished episode ``index``, logged on ``lane``.

        ``infos`` are the engine's per-step infos; without them the
        info columns are zero except ``t``, the 1-based step index.
        """
        self._check_open()
        if index < self._next_flush or index in self._finished:
            raise TraceError(f"episode {index} already recorded")
        self._finished[index] = self._encode(index, episode, lane, infos)
        while self._next_flush in self._finished:
            records, entry = self._finished.pop(self._next_flush)
            self._pending_arrays.append(records)
            self._pending_episodes.append(entry)
            self._pending_rows += len(records)
            self._episodes_total += 1
            self._next_flush += 1
            if self._pending_rows >= self.shard_rows:
                self._flush_shard()

    def _encode(self, index: int, episode: LoggedEpisode, lane: int,
                infos) -> tuple[np.ndarray, dict]:
        """The episode's records, filled column by column, and its
        manifest entry."""
        if episode.features is None or episode.masks is None:
            raise TraceError(
                f"episode {index} has no features/mask: the columnar "
                "store only holds fully featurized logs"
            )
        dims = TraceDims.from_step(episode.features, episode.masks)
        if self.dims is None:
            self.dims = dims
            self.dtype = trace_record_dtype(dims)
        final = episode.final_features is not None
        if final != (episode.final_mask is not None):
            raise TraceError("final features and mask come together")
        if dims != self.dims or (final and TraceDims.from_step(
                episode.final_features, episode.final_mask) != self.dims):
            raise TraceSchemaError(
                "feature shapes changed mid-recording: a trace store "
                f"holds one topology's geometry ({self.dims}); episode "
                f"{index} has {dims}"
            )
        n = len(episode)
        records = np.zeros(n + final, dtype=self.dtype)
        records["episode"] = index
        records["lane"] = lane
        steps = records[:n]
        steps["kind"] = KIND_STEP
        steps["done"][-1:] = True
        steps["action"] = episode.actions
        steps["behavior_prob"] = episode.behavior_probs
        steps["reward"] = episode.rewards
        if infos is None:
            steps["t"] = np.arange(1, n + 1)
        else:
            for name in INFO_SCALAR_FIELDS:
                steps[name] = [info[name] for info in infos]
            for name in BREAKDOWN_FIELDS:
                steps[f"rb_{name}"] = [getattr(info["reward_breakdown"], name)
                                       for info in infos]
        self._fill_states(steps, episode.features, episode.masks)
        if final:
            records["kind"][n] = KIND_FINAL
            records["action"][n] = -1
            self._fill_states(records[n:], episode.final_features,
                              episode.final_mask)
        entry = {
            "episode": index,
            "lane": lane,
            "seed": episode.seed,
            "gamma": float(episode.gamma),
            "steps": n,
            "final": final,
        }
        return records, entry

    @staticmethod
    def _fill_states(records: np.ndarray, features: FeatureSet,
                     masks) -> None:
        # one state (final row) broadcasts over its one record
        records["node"] = features.node
        records["plc"] = features.plc
        records["glob"] = features.glob
        records["mask"] = np.asarray(masks, dtype=bool)

    def _flush_shard(self) -> None:
        if not self._pending_arrays:
            return
        records = (self._pending_arrays[0] if len(self._pending_arrays) == 1
                   else np.concatenate(self._pending_arrays))
        name = _SHARD_PATTERN.format(len(self._shards))
        payload = records.tobytes()
        shard_path = self.path / name
        with open(shard_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        self._shards.append({
            "file": name,
            "rows": int(records.shape[0]),
            "nbytes": len(payload),
            "episodes": self._pending_episodes,
        })
        self._pending_arrays = []
        self._pending_episodes = []
        self._pending_rows = 0
        self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "format": TRACE_FORMAT,
            "version": TRACE_SCHEMA_VERSION,
            "dims": None if self.dims is None else self.dims._asdict(),
            "dtype": None if self.dtype is None else _descr_json(self.dtype),
            "meta": self.meta,
            "shards": self._shards,
            "episodes": sum(len(s["episodes"]) for s in self._shards),
            "transitions": sum(
                e["steps"] for s in self._shards for e in s["episodes"]
            ),
        }
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path / MANIFEST_NAME)

    # -- lifecycle -----------------------------------------------------
    @property
    def episodes_written(self) -> int:
        return self._episodes_total

    def close(self) -> None:
        if self._closed:
            return
        if self._finished:
            stuck = sorted(self._finished)
            raise TraceError(
                f"cannot close with unflushed episodes {stuck}: episode "
                f"{self._next_flush} never finished"
            )
        self._flush_shard()  # the final, possibly short shard
        self._write_manifest()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise TraceError("writer is closed")

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # on error, keep what was durably flushed but do not seal — the
        # manifest already reflects every completed shard
        if exc_type is None:
            self.close()


def write_episodes(episodes, path, *, lane: int = 0,
                   shard_rows: int = 65536, meta: dict | None = None) -> Path:
    """Persist in-memory :class:`LoggedEpisode` column batches as a
    trace store, episode ``i`` at index ``i``; the info columns hold
    only the step index ``t`` (the episodes carry no engine infos)."""
    path = Path(path)
    with TraceWriter(path, shard_rows=shard_rows, meta=meta) as writer:
        for index, episode in enumerate(episodes):
            writer.write(index, episode, lane=lane)
    return path


def record_episodes_vec(venv, behavior_factory, episodes: int, writer:
                        TraceWriter, *, seed: int = 0,
                        max_steps: int | None = None) -> int:
    """Stream logged episodes from vectorized rollouts into ``writer``.

    Episode ``ep`` runs with environment seed ``seed + ep`` under a
    **fresh** behaviour policy ``behavior_factory(ep)`` (per-episode
    policy state and RNG), so the recorded log — like
    :func:`~repro.eval.runner.evaluate_policy_vec` metrics — is
    bit-identical no matter how many lanes record it. The
    :func:`~repro.validation.logging.recorder` callbacks hand each
    finished episode, with its engine step infos, to
    :meth:`TraceWriter.write`; memory holds at most one in-flight
    episode per lane plus the writer's reorder window, never the log.
    Each episode stores its own lane's discount, and a step's ``done``
    marks the step that ended the episode (the lane reported done or
    reached its horizon).

    Returns the number of transitions recorded.
    """
    recorded = 0

    def sink(ep: int, lane: int, episode: LoggedEpisode, infos) -> None:
        nonlocal recorded
        writer.write(ep, episode, lane=lane, infos=infos)
        recorded += len(episode)

    drive_vec_episodes(venv, fan_out(episodes), seed=seed,
                       max_steps=max_steps,
                       **recorder(venv, behavior_factory, sink, seed=seed))
    return recorded
