"""The work one OPE suite run does: how often it decodes the log, joins
transition batches and scores states under the target policy.

A log of at most ``chunk_episodes`` episodes is decoded, joined and
scored once per suite (one target-network forward), and every
estimator reads that prepared chunk. A longer log is prepared again on
every pass and scores only the rows each pass reads. Either way the
report is bit for bit the in-memory list's.
"""

import pytest

import repro
from repro.config import tiny_network
from repro.rl import AttentionQNetwork, QNetConfig
from repro.validation import (
    StochasticQPolicy,
    TraceDataset,
    collect_logged_episodes,
    datasets,
    fqe,
    run_ope_suite,
    write_episodes,
)

COMPACT = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32,
                     head_hidden=32)
EPISODES = 5
ITERATIONS = 2


@pytest.fixture(scope="module")
def logged(tiny_tables):
    env = repro.make_env(tiny_network(tmax=30), seed=0)
    behaviour = StochasticQPolicy(
        AttentionQNetwork(COMPACT, seed=1).bind_topology(env.topology),
        tiny_tables, temperature=1.0, epsilon=0.3, seed=5)
    episodes = collect_logged_episodes(env, behaviour, episodes=EPISODES,
                                       seed=0, max_steps=9)
    return env.topology, tiny_tables, episodes


class Counts:
    """Counters over the suite's decode, join and scoring entry points."""

    def __init__(self, monkeypatch, target):
        self.decodes = self.joins = self.forwards = self.rows = 0
        decode, join = datasets._decode_episode, fqe._transition_batch
        forward, score = target.qnet.forward, target.action_probs_batch

        def counted_decode(*args):
            self.decodes += 1
            return decode(*args)

        def counted_join(*args):
            self.joins += 1
            return join(*args)

        def counted_forward(*args):
            self.forwards += 1
            return forward(*args)

        def counted_score(features, masks):
            self.rows += len(masks)
            return score(features, masks)

        monkeypatch.setattr(datasets, "_decode_episode", counted_decode)
        monkeypatch.setattr(fqe, "_transition_batch", counted_join)
        monkeypatch.setattr(target.qnet, "forward", counted_forward)
        monkeypatch.setattr(target, "action_probs_batch", counted_score)


def _suite(source, logged, chunk_episodes, monkeypatch=None):
    """The suite's report, and its work counts when ``monkeypatch`` is
    given."""
    topology, tables, _ = logged
    target = StochasticQPolicy(
        AttentionQNetwork(COMPACT, seed=7).bind_topology(topology), tables,
        temperature=0.5, epsilon=0.05)
    counts = None if monkeypatch is None else Counts(monkeypatch, target)
    report = run_ope_suite(
        source, target,
        AttentionQNetwork(COMPACT, seed=9).bind_topology(topology),
        clip=10.0, n_boot=100,
        fqe_options={"iterations": ITERATIONS, "epochs_per_iteration": 1,
                     "batch_size": 16, "chunk_episodes": chunk_episodes})
    return report, counts


@pytest.fixture()
def trace(logged, tmp_path):
    _, _, episodes = logged
    return TraceDataset(write_episodes(episodes, tmp_path / "trace",
                                       shard_rows=16))


class TestOneChunk:
    def test_decodes_joins_and_scores_once(self, logged, trace,
                                           monkeypatch):
        _, _, episodes = logged
        _, counts = _suite(trace, logged, 64, monkeypatch=monkeypatch)
        assert counts.decodes == EPISODES
        assert counts.joins == 1
        assert counts.forwards == 1
        # every logged state and every final state, once
        assert counts.rows == sum(len(ep) + 1 for ep in episodes)

    def test_report_equals_in_memory_list(self, logged, trace):
        _, _, episodes = logged
        disk, _ = _suite(trace, logged, 64)
        memory, _ = _suite(episodes, logged, 64)
        assert disk.to_json() == memory.to_json()


class TestTwoChunks:
    def test_prepares_each_chunk_on_each_pass(self, logged, trace,
                                              monkeypatch):
        _, _, episodes = logged
        _, counts = _suite(trace, logged, 2, monkeypatch=monkeypatch)
        # IS, the warm start, every Bellman iteration, start values, DR
        passes = ITERATIONS + 4
        assert counts.decodes == EPISODES * passes
        assert counts.joins == -(-EPISODES // 2) * passes
        transitions = sum(len(ep) for ep in episodes)
        # scoring each estimator's states separately: IS and DR the
        # logged states, every iteration the successors, the start states
        separate = (ITERATIONS + 2) * transitions + EPISODES
        assert 0 < counts.rows <= separate

    def test_report_equals_in_memory_list(self, logged, trace):
        _, _, episodes = logged
        disk, _ = _suite(trace, logged, 2)
        memory, _ = _suite(episodes, logged, 2)
        assert disk.to_json() == memory.to_json()
