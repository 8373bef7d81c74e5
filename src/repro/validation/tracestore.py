"""Columnar on-disk episode log for off-policy evaluation.

OPE at production scale cannot hold its logged transitions in python
object lists: a million-step log of :class:`LoggedStep` dataclasses is
gigabytes of pointers. This module stores logged episodes as
**structured numpy record arrays** — one fixed-width, little-endian
record per transition, holding the action/propensity/reward triple the
estimators need, the engine's step-info tallies, and the featurized
state (node/PLC/global feature blocks plus the valid-action mask) that
FQE and doubly-robust corrections regress on.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.rl.features import FeatureSet
from repro.sim.vec_env import drive_vec_episodes, fan_out
from repro.validation.logging import LoggedEpisode

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

#: every key of an engine step info (``conditions`` only with
#: ``record_truth``); the keys outside ``INFO_SCALAR_FIELDS`` and
#: ``reward_breakdown`` are not stored in the record
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
        node = np.asarray(features.node)
        plc = np.asarray(features.plc)
        glob = np.asarray(features.glob)
        return cls(
            n_nodes=int(node.shape[0]),
            node_dim=int(node.shape[1]),
            n_plcs=int(plc.shape[0]),
            plc_dim=int(plc.shape[1]),
            glob_dim=int(glob.shape[0]),
            n_actions=int(len(mask)),
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


@dataclass
class _EpisodeBuffer:
    """One in-flight episode: bounded by the horizon, never the log."""

    lane: int
    seed: int | None
    gamma: float
    steps: list[dict] = field(default_factory=list)
    final: tuple | None = None  # (features, mask)


class TraceWriter:
    """Streaming, shard-rotating writer of the columnar episode log.

    Episodes may *finish* out of order (vectorized lanes complete at
    their own pace) but are always *written* in episode-index order, so
    the on-disk log — and every estimate computed from it — is
    independent of how many lanes recorded it. Call order per episode:
    :meth:`begin_episode`, ``append_step`` per transition, then
    :meth:`finish_episode`; :meth:`close` seals the final shard and
    manifest.
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
        self._open: dict[int, _EpisodeBuffer] = {}
        self._finished: dict[int, _EpisodeBuffer] = {}
        self._next_flush = 0  # next episode index to serialize
        self._pending_arrays: list[np.ndarray] = []
        self._pending_episodes: list[dict] = []
        self._pending_rows = 0
        self._shards: list[dict] = []
        self._episodes_total = 0
        self._transitions_total = 0
        self._closed = False

    # -- recording -----------------------------------------------------
    def begin_episode(self, episode: int, *, lane: int = 0,
                      seed: int | None = None, gamma: float = 1.0) -> None:
        self._check_open()
        if episode in self._open or episode in self._finished \
                or episode < self._next_flush:
            raise TraceError(f"episode {episode} already recorded")
        self._open[episode] = _EpisodeBuffer(lane=lane, seed=seed,
                                             gamma=float(gamma))

    def append_step(self, episode: int, *, action: int,
                    behavior_prob: float, reward: float, done: bool,
                    features: FeatureSet, mask, info: dict | None = None) -> None:
        self._check_open()
        buffer = self._episode_buffer(episode)
        if self.dims is None:
            self.dims = TraceDims.from_step(features, mask)
            self.dtype = trace_record_dtype(self.dims)
        buffer.steps.append({
            "action": int(action),
            "behavior_prob": float(behavior_prob),
            "reward": float(reward),
            "done": bool(done),
            "features": features,
            "mask": mask,
            "info": info,
        })

    def finish_episode(self, episode: int, *, final_features=None,
                       final_mask=None) -> None:
        self._check_open()
        buffer = self._episode_buffer(episode)
        if (final_features is None) != (final_mask is None):
            raise TraceError("final features and mask come together")
        if final_features is not None:
            buffer.final = (final_features, final_mask)
        del self._open[episode]
        self._finished[episode] = buffer
        while self._next_flush in self._finished:
            self._serialize(self._next_flush,
                            self._finished.pop(self._next_flush))
            self._next_flush += 1

    def _episode_buffer(self, episode: int) -> _EpisodeBuffer:
        try:
            return self._open[episode]
        except KeyError:
            raise TraceError(f"episode {episode} is not open") from None

    # -- serialization -------------------------------------------------
    def _serialize(self, episode: int, buffer: _EpisodeBuffer) -> None:
        if self.dtype is None:
            raise TraceError("cannot serialize an episode with no steps "
                             "before the record schema is known")
        n = len(buffer.steps) + (1 if buffer.final is not None else 0)
        records = np.zeros(n, dtype=self.dtype)
        for row, step in zip(records, buffer.steps):
            row["episode"] = episode
            row["lane"] = buffer.lane
            row["kind"] = KIND_STEP
            row["done"] = step["done"]
            row["action"] = step["action"]
            row["behavior_prob"] = step["behavior_prob"]
            row["reward"] = step["reward"]
            info = step["info"]
            if info is not None:
                for name in INFO_SCALAR_FIELDS:
                    row[name] = info[name]
                breakdown = info["reward_breakdown"]
                for name in BREAKDOWN_FIELDS:
                    row[f"rb_{name}"] = getattr(breakdown, name)
            self._fill_state(row, step["features"], step["mask"])
        if buffer.final is not None:
            row = records[-1]
            row["episode"] = episode
            row["lane"] = buffer.lane
            row["kind"] = KIND_FINAL
            row["action"] = -1
            self._fill_state(row, *buffer.final)
        self._pending_arrays.append(records)
        self._pending_episodes.append({
            "episode": episode,
            "lane": buffer.lane,
            "seed": buffer.seed,
            "gamma": buffer.gamma,
            "steps": len(buffer.steps),
            "final": buffer.final is not None,
        })
        self._pending_rows += n
        self._episodes_total += 1
        self._transitions_total += len(buffer.steps)
        if self._pending_rows >= self.shard_rows:
            self._flush_shard()

    def _fill_state(self, row, features: FeatureSet, mask) -> None:
        node = np.asarray(features.node, dtype=np.float64)
        plc = np.asarray(features.plc, dtype=np.float64)
        glob = np.asarray(features.glob, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        dims = self.dims
        if (node.shape != (dims.n_nodes, dims.node_dim)
                or plc.shape != (dims.n_plcs, dims.plc_dim)
                or glob.shape != (dims.glob_dim,)
                or mask.shape != (dims.n_actions,)):
            raise TraceSchemaError(
                "feature shapes changed mid-recording: a trace store "
                "holds one topology's geometry "
                f"({dims}); got node{node.shape} plc{plc.shape} "
                f"glob{glob.shape} mask{mask.shape}"
            )
        row["node"] = node
        row["plc"] = plc
        row["glob"] = glob
        row["mask"] = mask

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

    @property
    def transitions_written(self) -> int:
        return self._transitions_total

    def close(self) -> None:
        if self._closed:
            return
        if self._open or self._finished:
            stuck = sorted(self._open) + sorted(self._finished)
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
    """Persist in-memory :class:`LoggedEpisode` objects as a trace store.

    The bridge from the legacy list-of-episodes world (and the unit
    tests' hand-built logs) into the columnar format; step-info tallies
    are zero because :class:`LoggedStep` does not carry them (``t`` is
    filled with the 1-based step index).
    """
    path = Path(path)
    with TraceWriter(path, shard_rows=shard_rows, meta=meta) as writer:
        for index, episode in enumerate(episodes):
            writer.begin_episode(index, lane=lane, seed=episode.seed,
                                 gamma=episode.gamma)
            for t, step in enumerate(episode.steps):
                if step.features is None or step.mask is None:
                    raise TraceError(
                        f"episode {index} step {t} has no features/mask: "
                        "the columnar store only holds fully featurized logs"
                    )
                writer.append_step(
                    index, action=step.action,
                    behavior_prob=step.behavior_prob, reward=step.reward,
                    done=t == len(episode.steps) - 1,
                    features=step.features, mask=step.mask,
                    info={**{name: 0 for name in INFO_SCALAR_FIELDS},
                          "t": t + 1, "it_cost": 0.0,
                          "reward_breakdown": _ZERO_BREAKDOWN},
                )
            writer.finish_episode(index,
                                  final_features=episode.final_features,
                                  final_mask=episode.final_mask)
    return path


class _ZeroBreakdown:
    """Stand-in breakdown for logs that never saw the engine."""

    r_plc = r_it = r_term = total = it_cost = 0.0


_ZERO_BREAKDOWN = _ZeroBreakdown()


def record_episodes_vec(venv, behavior_factory, episodes: int, writer:
                        TraceWriter, *, seed: int = 0,
                        max_steps: int | None = None) -> int:
    """Stream logged episodes from vectorized rollouts into ``writer``.

    Episode ``ep`` runs with environment seed ``seed + ep`` under a
    **fresh** behaviour policy ``behavior_factory(ep)`` (per-episode
    policy state and RNG), so the recorded log — like
    :func:`~repro.eval.runner.evaluate_policy_vec` metrics — is
    bit-identical no matter how many lanes record it. Each transition
    is appended as it happens; memory holds at most one in-flight
    episode per lane plus the writer's reorder window, never the log.
    Each episode stores its own lane's discount, and a step's ``done``
    marks the step that ended the episode (the lane reported done or
    reached its horizon).

    Returns the number of transitions recorded.
    """
    n = venv.num_envs
    behaviors: list = [None] * n
    pending: list = [None] * n
    recorded = 0

    def on_episode_start(slot: int, ep: int, obs) -> None:
        behavior = behavior_factory(ep)
        behavior.reset(venv.policy_env(slot))
        behaviors[slot] = behavior
        writer.begin_episode(ep, lane=slot, seed=seed + ep,
                             gamma=venv.lane_config(slot).reward.gamma)

    def act(slots, observations):
        for slot, obs in zip(slots, observations):
            pending[slot] = behaviors[slot].decide(obs)
        return [pending[slot][0] for slot in slots]

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        nonlocal recorded
        action, prob, features, mask = pending[slot]
        writer.append_step(ep, action=action, behavior_prob=prob,
                           reward=reward, done=done,
                           features=features, mask=mask, info=info)
        recorded += 1

    def on_episode_end(slot: int, ep: int, obs) -> None:
        # snapshot the post-episode state for FQE's bootstrap anchor,
        # mirroring collect_logged_episodes' trailing decide()
        _, _, features, mask = behaviors[slot].decide(obs)
        writer.finish_episode(ep, final_features=features, final_mask=mask)

    drive_vec_episodes(venv, fan_out(episodes), seed=seed,
                       max_steps=max_steps,
                       on_episode_start=on_episode_start, act=act,
                       on_step=on_step, on_episode_end=on_episode_end)
    return recorded
