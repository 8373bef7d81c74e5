"""Tests for the columnar OPE trace store: record layout, lossless
round-trips, crash tolerance, schema guards, and lane-invariant
vectorized recording.

Round-trip and durability properties use hand-built synthetic logs
(exact field-level comparisons, no environment); the vectorized
recorder is integration-tested on the tiny network.
"""

import dataclasses
import json
import numbers

import numpy as np
import pytest

import repro
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.features import FeatureSet
from repro.sim.reward import RewardBreakdown
from repro.validation import (
    LoggedEpisode,
    StochasticQPolicy,
    TraceDataset,
    TraceDims,
    TraceError,
    TraceIntegrityError,
    TraceSchemaError,
    TraceWriter,
    iter_episode_chunks,
    record_episodes_vec,
    trace_record_dtype,
    write_episodes,
)
from repro.validation.tracestore import (
    BREAKDOWN_FIELDS,
    ENGINE_INFO_KEYS,
    INFO_SCALAR_FIELDS,
    KIND_FINAL,
    KIND_STEP,
    MANIFEST_NAME,
)

DIMS = TraceDims(n_nodes=3, node_dim=4, n_plcs=2, plc_dim=3,
                 glob_dim=3, n_actions=5)


def make_features(rng) -> FeatureSet:
    return FeatureSet(
        node=rng.random((DIMS.n_nodes, DIMS.node_dim)),
        plc=rng.random((DIMS.n_plcs, DIMS.plc_dim)),
        glob=rng.random(DIMS.glob_dim),
    )


def make_mask(rng) -> np.ndarray:
    mask = rng.random(DIMS.n_actions) < 0.6
    if not mask.any():
        mask[0] = True
    return mask


def make_episode(rng, steps: int, seed: int, gamma: float = 0.97,
                 with_final: bool = True) -> LoggedEpisode:
    actions = rng.integers(DIMS.n_actions, size=steps)
    probs = rng.uniform(0.05, 1.0, size=steps)
    rewards = rng.normal(size=steps)
    states = [make_features(rng) for _ in range(steps)]
    return LoggedEpisode(
        actions=actions, behavior_probs=probs, rewards=rewards, gamma=gamma,
        features=FeatureSet(*(np.stack([getattr(f, name) for f in states])
                              for name in ("node", "plc", "glob"))),
        masks=np.stack([make_mask(rng) for _ in range(steps)]),
        final_features=make_features(rng) if with_final else None,
        final_mask=make_mask(rng) if with_final else None,
        seed=seed,
    )


def make_log(n_episodes: int = 4, steps: int = 10, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [make_episode(rng, steps, seed=100 + i) for i in range(n_episodes)]


def assert_episodes_identical(a: LoggedEpisode, b: LoggedEpisode) -> None:
    assert len(a) == len(b)
    assert a.gamma == b.gamma and a.seed == b.seed
    # f8 round-trip: exact
    for name in ("actions", "behavior_probs", "rewards", "masks"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    for name in ("node", "plc", "glob"):
        assert np.array_equal(getattr(a.features, name),
                              getattr(b.features, name)), name
    assert (a.final_features is None) == (b.final_features is None)
    if a.final_features is not None:
        assert np.array_equal(a.final_features.node, b.final_features.node)
        assert np.array_equal(a.final_mask, b.final_mask)


# ----------------------------------------------------------------------
# record layout
# ----------------------------------------------------------------------
class TestRecordDtype:
    def test_fields_cover_info_schema(self):
        dtype = trace_record_dtype(DIMS)
        names = set(dtype.names)
        assert set(INFO_SCALAR_FIELDS) <= names
        assert {f"rb_{n}" for n in BREAKDOWN_FIELDS} <= names
        assert {"episode", "lane", "kind", "done", "action",
                "behavior_prob", "reward", "node", "plc", "glob",
                "mask"} <= names

    def test_layout_is_little_endian_and_fixed_width(self):
        dtype = trace_record_dtype(DIMS)
        for name, spec in dtype.fields.items():
            kind = spec[0].base if spec[0].subdtype is None \
                else spec[0].subdtype[0]
            assert kind.str[0] in ("<", "|"), name  # LE or single-byte
        # geometry-dependent size: subarrays scale with the dims
        bigger = trace_record_dtype(DIMS._replace(n_nodes=DIMS.n_nodes + 1))
        assert bigger.itemsize == dtype.itemsize + 8 * DIMS.node_dim

    def test_dims_from_step(self):
        rng = np.random.default_rng(0)
        dims = TraceDims.from_step(make_features(rng), make_mask(rng))
        assert dims == DIMS
        episode = make_episode(rng, 4, seed=0)
        assert TraceDims.from_step(episode.features, episode.masks) == DIMS


def _step_infos(backend):
    """Non-terminal step infos of two tiny-network lanes."""
    venv = repro.make_vec("inasim-tiny-v1", 2, seed=0, backend=backend)
    venv.reset(seed=0)
    rng = np.random.default_rng(0)
    infos = []
    for _ in range(6):
        infos += venv.step(venv.sample_actions(rng)).infos
    return infos


class TestRecordSchema:
    """The record's info columns against the engine that fills them.

    Adding an engine step-info field fails here until it is classified
    next to the record layout in :mod:`repro.validation.tracestore`."""

    def test_breakdown_fields_match_reward_breakdown(self):
        assert BREAKDOWN_FIELDS == tuple(
            f.name for f in dataclasses.fields(RewardBreakdown))

    @pytest.mark.parametrize("backend", ["sync", "batched"])
    def test_scalar_fields_are_numeric_step_info_keys(self, backend):
        for info in _step_infos(backend):
            for name in INFO_SCALAR_FIELDS:
                assert isinstance(info[name], numbers.Real), name
                assert not isinstance(info[name], bool), name

    @pytest.mark.parametrize("backend", ["sync", "batched"])
    def test_engine_info_keys_match_record_constant(self, backend):
        for info in _step_infos(backend):
            assert set(info) == ENGINE_INFO_KEYS


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_bit_identical_round_trip(self, tmp_path):
        episodes = make_log()
        write_episodes(episodes, tmp_path / "trace", shard_rows=16)
        dataset = TraceDataset(tmp_path / "trace")
        decoded = list(dataset)
        assert len(decoded) == len(episodes)
        for original, restored in zip(episodes, decoded):
            assert_episodes_identical(original, restored)

    def test_sharding_keeps_whole_episodes(self, tmp_path):
        episodes = make_log(n_episodes=6, steps=10)
        write_episodes(episodes, tmp_path / "trace", shard_rows=16)
        dataset = TraceDataset(tmp_path / "trace")
        assert len(dataset.shards) > 1
        for shard, records in zip(dataset.shards, dataset.iter_shards()):
            rows = sum(e["steps"] + (1 if e["final"] else 0)
                       for e in shard["episodes"])
            assert rows == shard["rows"] == records.shape[0]
            # an episode never straddles shards
            boundary_kinds = records["kind"][[0, -1]]
            assert boundary_kinds[0] == KIND_STEP
            assert boundary_kinds[-1] == KIND_FINAL
        assert dataset.num_transitions == 60
        assert len(dataset) == 6

    def test_no_final_snapshot_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        episodes = [make_episode(rng, 4, seed=1, with_final=False)]
        write_episodes(episodes, tmp_path / "trace")
        restored = list(TraceDataset(tmp_path / "trace"))[0]
        assert restored.final_features is None
        assert_episodes_identical(episodes[0], restored)

    def test_manifest_counts(self, tmp_path):
        write_episodes(make_log(3, 7), tmp_path / "trace")
        dataset = TraceDataset(tmp_path / "trace")
        assert dataset.manifest["episodes"] == 3
        assert dataset.manifest["transitions"] == 21
        assert dataset.num_rows == 3 * 8  # 7 steps + 1 final snapshot

    def test_unfeaturized_log_is_rejected(self, tmp_path):
        episode = LoggedEpisode(actions=[0], behavior_probs=[0.5],
                                rewards=[1.0], gamma=1.0, features=None,
                                masks=None)
        with pytest.raises(TraceError, match="no features"):
            write_episodes([episode], tmp_path / "trace")

    def test_iter_episode_chunks_boundaries(self):
        episodes = make_log(5, 3)
        chunks = list(iter_episode_chunks(episodes, 2))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert [id(e) for c in chunks for e in c] == [id(e) for e in episodes]
        with pytest.raises(ValueError):
            list(iter_episode_chunks(episodes, 0))


# ----------------------------------------------------------------------
# crash tolerance
# ----------------------------------------------------------------------
class TestCrashTolerance:
    def _trace(self, tmp_path, **kwargs):
        path = tmp_path / "trace"
        write_episodes(make_log(6, 10), path, shard_rows=16, **kwargs)
        return path

    def test_unlisted_partial_shard_is_ignored(self, tmp_path):
        path = self._trace(tmp_path)
        before = len(TraceDataset(path))
        # a crashed writer's un-manifested partial flush
        (path / "shard-99999.bin").write_bytes(b"\x00" * 123)
        dataset = TraceDataset(path)
        assert len(dataset) == before
        assert not dataset.dropped_truncated_final

    def test_listed_truncated_final_shard_is_dropped(self, tmp_path):
        path = self._trace(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        last = manifest["shards"][-1]["file"]
        payload = (path / last).read_bytes()
        (path / last).write_bytes(payload[:-7])
        dataset = TraceDataset(path)
        assert dataset.dropped_truncated_final
        survivors = sum(len(s["episodes"]) for s in manifest["shards"][:-1])
        assert len(dataset) == survivors
        assert len(list(dataset)) == survivors  # episodes still decode

    def test_listed_truncated_middle_shard_is_fatal(self, tmp_path):
        path = self._trace(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert len(manifest["shards"]) > 1
        first = manifest["shards"][0]["file"]
        (path / first).write_bytes((path / first).read_bytes()[:-8])
        with pytest.raises(TraceIntegrityError, match="truncated"):
            TraceDataset(path)

    def test_missing_listed_shard_is_fatal(self, tmp_path):
        path = self._trace(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        (path / manifest["shards"][0]["file"]).unlink()
        with pytest.raises(TraceIntegrityError, match="missing"):
            TraceDataset(path)

    def test_crash_mid_recording_leaves_readable_store(self, tmp_path):
        """An unclosed writer (a SIGKILLed recorder) leaves a manifest
        covering exactly the durably flushed shards."""
        path = tmp_path / "trace"
        rng = np.random.default_rng(9)
        writer = TraceWriter(path, shard_rows=16)
        for index in range(5):
            writer.write(index, make_episode(rng, 10, seed=index))
        # no close(): the process "dies" here with rows still pending
        flushed = writer.episodes_written - (
            sum(1 for _ in writer._pending_episodes))
        dataset = TraceDataset(path)
        assert len(dataset) == flushed < 5
        for episode in dataset:  # everything listed actually decodes
            assert len(episode) == 10

    def test_not_a_trace_dir(self, tmp_path):
        with pytest.raises(TraceIntegrityError, match=MANIFEST_NAME):
            TraceDataset(tmp_path)


# ----------------------------------------------------------------------
# schema guards and writer misuse
# ----------------------------------------------------------------------
class TestSchemaGuards:
    def _tamper(self, path, mutate):
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        mutate(manifest)
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_foreign_format_is_rejected(self, tmp_path):
        path = tmp_path / "trace"
        write_episodes(make_log(1, 2), path)
        self._tamper(path, lambda m: m.update(format="parquet"))
        with pytest.raises(TraceSchemaError):
            TraceDataset(path)

    def test_future_version_is_rejected(self, tmp_path):
        path = tmp_path / "trace"
        write_episodes(make_log(1, 2), path)
        self._tamper(path, lambda m: m.update(version=999))
        with pytest.raises(TraceSchemaError, match="version"):
            TraceDataset(path)

    def test_geometry_drift_is_rejected(self, tmp_path):
        path = tmp_path / "trace"
        write_episodes(make_log(1, 2), path)
        self._tamper(path,
                     lambda m: m["dims"].update(n_actions=DIMS.n_actions + 1))
        with pytest.raises(TraceSchemaError, match="incompatible"):
            TraceDataset(path)

    def test_writer_refuses_nonempty_dir(self, tmp_path):
        path = tmp_path / "trace"
        write_episodes(make_log(1, 2), path)
        with pytest.raises(TraceError, match="non-empty"):
            TraceWriter(path)

    def test_manifest_missing_episode_rows_is_rejected(self, tmp_path):
        """A shard's episode entries must account for all of its rows."""
        path = tmp_path / "trace"
        write_episodes(make_log(3, 5), path)
        self._tamper(path,
                     lambda m: m["shards"][0].update(
                         episodes=m["shards"][0]["episodes"][:1]))
        with pytest.raises(TraceIntegrityError, match="6 episode rows"):
            TraceDataset(path)

    def test_shape_drift_mid_recording_is_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        writer = TraceWriter(tmp_path / "trace")
        writer.write(0, make_episode(rng, 2, seed=0))
        drifted = dataclasses.replace(
            make_episode(rng, 2, seed=1, with_final=False),
            features=FeatureSet(node=np.zeros((2, 7, 2)),
                                plc=np.zeros((2, 1, 3)), glob=np.zeros((2, 3))),
            masks=np.ones((2, 4), dtype=bool))
        with pytest.raises(TraceSchemaError, match="geometry"):
            writer.write(1, drifted)

    def test_writer_misuse(self, tmp_path):
        rng = np.random.default_rng(0)
        writer = TraceWriter(tmp_path / "trace")
        writer.write(0, make_episode(rng, 2, seed=0))
        with pytest.raises(TraceError, match="already recorded"):
            writer.write(0, make_episode(rng, 2, seed=0))
        writer.write(2, make_episode(rng, 2, seed=2))  # waits for episode 1
        with pytest.raises(TraceError, match="already recorded"):
            writer.write(2, make_episode(rng, 2, seed=2))
        with pytest.raises(TraceError, match="never finished"):
            writer.close()
        with pytest.raises(TraceError, match="come together"):
            writer.write(1, dataclasses.replace(make_episode(rng, 2, seed=1),
                                                final_mask=None))


# ----------------------------------------------------------------------
# vectorized recording (tiny-network integration)
# ----------------------------------------------------------------------
QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                  encoder_layers=2, head_hidden=16)


class TestVecRecording:
    def _record(self, tmp_path, tiny_tables, num_envs: int, name: str):
        venv = repro.make_vec("inasim-tiny-v1", num_envs, seed=0, horizon=8,
                              backend="sync")
        qnet = AttentionQNetwork(QNET, seed=1)
        qnet.bind_topology(venv.policy_env(0).topology)

        def behavior_factory(ep: int):
            return StochasticQPolicy(qnet, tiny_tables, temperature=1.0,
                                     epsilon=0.3, seed=50 + ep)

        path = tmp_path / name
        with TraceWriter(path, shard_rows=32) as writer:
            transitions = record_episodes_vec(venv, behavior_factory, 4,
                                              writer, seed=11, max_steps=8)
        venv.close()
        return path, transitions

    def test_lane_count_invariance(self, tmp_path, tiny_tables):
        """The pinned property: the on-disk log is independent of how
        many lanes recorded it."""
        path1, n1 = self._record(tmp_path, tiny_tables, 1, "lanes1")
        path3, n3 = self._record(tmp_path, tiny_tables, 3, "lanes3")
        assert n1 == n3 > 0
        solo = list(TraceDataset(path1))
        fleet = list(TraceDataset(path3))
        assert len(solo) == len(fleet) == 4
        for a, b in zip(solo, fleet):
            # lanes differ, so compare decoded content, not raw bytes
            assert_episodes_identical(a, b)

    def test_recorder_captures_engine_info(self, tmp_path, tiny_tables):
        path, transitions = self._record(tmp_path, tiny_tables, 2, "info")
        dataset = TraceDataset(path)
        assert dataset.num_transitions == transitions
        rows = np.concatenate(list(dataset.iter_shards()))
        steps = rows[rows["kind"] == KIND_STEP]
        # engine step counters landed in the wire-format info fields
        assert steps["t"].min() >= 1
        per_episode = steps["episode"]
        for episode in np.unique(per_episode):
            ts = steps["t"][per_episode == episode]
            assert list(ts) == list(range(1, len(ts) + 1))
