"""Chunked readers over the columnar OPE trace store.

:class:`TraceDataset` opens a directory written by
:class:`~repro.validation.tracestore.TraceWriter`, validates the
manifest against this code's record schema, and streams the log back
out — shard by shard as raw record arrays, or episode by episode as
:class:`~repro.validation.logging.LoggedEpisode` column batches sliced
from a shard's records (one contiguous copy per column) that are
**bit-identical** to the in-memory episodes that produced them (every
numeric field round-trips through fixed-width little-endian storage
losslessly). Memory is bounded by one shard, never the log.

Crash tolerance mirrors the writer's durability contract: shard files
absent from the manifest are a partial flush and are ignored; a listed
shard whose bytes are missing or short is corruption — fatal, except
when it is the *final* shard, which is dropped with a flag (the only
shard a torn ``close()`` can leave listed-but-short on exotic
filesystems).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.rl.features import FeatureSet
from repro.validation.logging import LoggedEpisode
from repro.validation.tracestore import (
    KIND_FINAL,
    KIND_STEP,
    MANIFEST_NAME,
    TRACE_FORMAT,
    TRACE_SCHEMA_VERSION,
    TraceDims,
    TraceIntegrityError,
    TraceSchemaError,
    trace_record_dtype,
)

__all__ = ["TraceDataset", "iter_episode_chunks"]


class TraceDataset:
    """Read-only view of one on-disk trace directory."""

    def __init__(self, path):
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise TraceIntegrityError(f"no {MANIFEST_NAME} in {self.path}")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != TRACE_FORMAT:
            raise TraceSchemaError(
                f"{self.path} is not a {TRACE_FORMAT} directory"
            )
        if manifest.get("version") != TRACE_SCHEMA_VERSION:
            raise TraceSchemaError(
                f"trace schema version {manifest.get('version')} is not "
                f"this reader's version {TRACE_SCHEMA_VERSION}"
            )
        self.manifest = manifest
        self.meta: dict = manifest.get("meta", {})
        self.dims: TraceDims | None = None
        self.dtype: np.dtype | None = None
        if manifest.get("dims") is not None:
            self.dims = TraceDims(**manifest["dims"])
            self.dtype = trace_record_dtype(self.dims)
            stored = manifest.get("dtype")
            expected = json.loads(json.dumps(self.dtype.descr))
            if stored != expected:
                raise TraceSchemaError(
                    "stored record layout does not match "
                    f"trace_record_dtype({self.dims}): the trace was "
                    "written by an incompatible build"
                )
        #: set when a listed-but-truncated final shard was dropped
        self.dropped_truncated_final = False
        self.shards = self._validate_shards(manifest.get("shards", []))
        self.episodes_meta = [
            episode for shard in self.shards for episode in shard["episodes"]
        ]

    def _validate_shards(self, listed: list[dict]) -> list[dict]:
        shards: list[dict] = []
        for index, shard in enumerate(listed):
            rows = sum(entry["steps"] + (1 if entry["final"] else 0)
                       for entry in shard["episodes"])
            if rows != shard["rows"]:
                raise TraceIntegrityError(
                    f"manifest lists {rows} episode rows in "
                    f"{shard['file']}, which holds {shard['rows']}"
                )
            shard_path = self.path / shard["file"]
            nbytes = shard_path.stat().st_size if shard_path.exists() else -1
            if self.dtype is not None \
                    and shard["nbytes"] != shard["rows"] * self.dtype.itemsize:
                raise TraceSchemaError(
                    f"manifest row/byte mismatch in {shard['file']}"
                )
            if nbytes != shard["nbytes"]:
                if index == len(listed) - 1:
                    self.dropped_truncated_final = True
                    continue
                raise TraceIntegrityError(
                    f"shard {shard['file']} is "
                    f"{'missing' if nbytes < 0 else 'truncated'} "
                    f"({nbytes} bytes, manifest says {shard['nbytes']})"
                )
            shards.append(shard)
        return shards

    # -- sizing --------------------------------------------------------
    def __len__(self) -> int:
        """Number of readable episodes."""
        return len(self.episodes_meta)

    @property
    def num_transitions(self) -> int:
        return sum(episode["steps"] for episode in self.episodes_meta)

    @property
    def num_rows(self) -> int:
        return sum(shard["rows"] for shard in self.shards)

    # -- streaming -----------------------------------------------------
    def iter_shards(self) -> Iterator[np.ndarray]:
        """Yield each shard as one structured record array."""
        if self.dtype is None:
            return
        for shard in self.shards:
            records = np.fromfile(self.path / shard["file"], dtype=self.dtype)
            if records.shape[0] != shard["rows"]:
                raise TraceIntegrityError(
                    f"shard {shard['file']} decoded to {records.shape[0]} "
                    f"rows, manifest says {shard['rows']}"
                )
            yield records

    def iter_episodes(self) -> Iterator[LoggedEpisode]:
        """Yield reconstructed episodes, holding one shard at a time."""
        for shard, records in zip(self.shards, self.iter_shards()):
            offset = 0
            for entry in shard["episodes"]:
                rows = entry["steps"] + (1 if entry["final"] else 0)
                yield _decode_episode(records[offset:offset + rows], entry)
                offset += rows

    def __iter__(self) -> Iterator[LoggedEpisode]:
        return self.iter_episodes()


def _decode_episode(records: np.ndarray, entry: dict) -> LoggedEpisode:
    n = entry["steps"]
    kinds = [KIND_STEP] * n + [KIND_FINAL] * entry["final"]
    if not np.array_equal(records["kind"], kinds):
        raise TraceIntegrityError(
            f"episode {entry['episode']}: record kinds do not match the "
            f"manifest's {n} steps (final={entry['final']})"
        )
    steps = records[:n]
    final_features = final_mask = None
    if entry["final"]:
        final_features, final_mask = _states(records[n])
    features, masks = _states(steps)
    return LoggedEpisode(
        actions=steps["action"].astype(np.int64),
        behavior_probs=steps["behavior_prob"].astype(np.float64),
        rewards=steps["reward"].astype(np.float64),
        gamma=float(entry["gamma"]),
        features=features,
        masks=masks,
        final_features=final_features,
        final_mask=final_mask,
        seed=entry["seed"],
    )


def _states(records) -> tuple[FeatureSet, np.ndarray]:
    """Feature blocks and masks of a record row or rows, copied out."""
    return (
        FeatureSet(node=records["node"].astype(np.float64),
                   plc=records["plc"].astype(np.float64),
                   glob=records["glob"].astype(np.float64)),
        records["mask"].astype(bool),
    )


def iter_episode_chunks(episodes: Iterable[LoggedEpisode],
                        chunk_episodes: int) -> Iterator[list[LoggedEpisode]]:
    """Group any episode source into fixed-size lists.

    Streaming estimators chunk by *episode count* — not by shard — so a
    :class:`TraceDataset` and the equivalent in-memory list produce the
    same chunk boundaries, which keeps their floating-point reduction
    order (and therefore their estimates) bit-identical.
    """
    if chunk_episodes < 1:
        raise ValueError("chunk_episodes must be positive")
    iterator = iter(episodes)
    while chunk := list(itertools.islice(iterator, chunk_episodes)):
        yield chunk
