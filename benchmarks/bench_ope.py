"""Experiment E11 (extension): off-policy evaluation accuracy.

"Data-efficient methods to validate learned policies" (paper Section 7):
this bench measures how well each OPE estimator recovers a target
policy's true value from logged behaviour episodes, without running the
target in the environment.

Protocol: log episodes under an exploratory behaviour policy (softmax-Q
with epsilon floor), estimate the value of a greedier target policy via
OIS / WIS / PDIS / FQE / DR, and compare against an on-policy Monte
Carlo ground truth of the same horizon. Expected shape: the weighted
and doubly-robust estimators sit closest to the ground truth, while
ordinary IS shows the worst effective sample size -- the textbook
ordering, and the reason DR exists.

Two entry points:

* pytest-benchmark accuracy cell (above protocol)::

      PYTHONPATH=src python -m pytest benchmarks/bench_ope.py

* the trace-store throughput sweep, which grows a synthetic columnar
  trace at small-network feature geometry and reports transitions/s
  for the write, read (full decode), and estimate (importance-sampling
  scalar pass) stages — what the nightly ``ope-bench`` CI job runs and
  gates through ``benchmarks/compare_bench_ope.py``::

      PYTHONPATH=src python benchmarks/bench_ope.py \
          --transitions 1000000 --out bench_ope.json

The throughput stages use synthetic feature records (a cycled pool of
pre-drawn states) and a linear-softmax target policy: the sweep
measures the trace store and the estimator *plumbing* — serialization,
shard IO, decode, propensity batching — not Q-network inference, which
would dominate wall time long before a million transitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

import repro
from repro.config import small_network, tiny_network
from repro.dbn import fit_dbn
from repro.defenders import SemiRandomPolicy
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.features import (
    FeatureSet,
    GLOBAL_FEATURE_DIM,
    NODE_FEATURE_DIM,
    PLC_FEATURE_DIM,
)
from repro.sim.orchestrator import enumerate_actions
from repro.validation import (
    LoggedEpisode,
    StochasticQPolicy,
    TraceDataset,
    TraceDims,
    TraceWriter,
    collect_logged_episodes,
    doubly_robust,
    episode_ope_stats,
    fitted_q_evaluation,
    ordinary_importance_sampling,
    per_decision_importance_sampling,
    trace_record_dtype,
    weighted_importance_sampling,
)

_HORIZON = 25
_QNET = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)


def test_ope_estimator_accuracy(benchmark):
    # imported here, not at module top: conftest resolves via pytest's
    # rootdir, which script mode (python benchmarks/bench_ope.py) lacks
    from benchmarks.conftest import episodes_per_cell, write_result

    n_logged = episodes_per_cell(6)
    n_truth = episodes_per_cell(6)
    cfg = tiny_network(tmax=_HORIZON)
    tables = fit_dbn(
        lambda: repro.make_env(cfg),
        lambda: SemiRandomPolicy(rate=3.0),
        episodes=4,
        seed=21,
        max_steps=_HORIZON,
    )

    def run():
        env = repro.make_env(cfg, seed=0)
        qnet = AttentionQNetwork(_QNET, seed=3)
        qnet.bind_topology(env.topology)
        behavior = StochasticQPolicy(qnet, tables, temperature=1.0, epsilon=0.4, seed=0)
        target = StochasticQPolicy(qnet, tables, temperature=0.25, epsilon=0.1, seed=1)

        logged = collect_logged_episodes(
            env, behavior, n_logged, seed=100, max_steps=_HORIZON
        )
        # Monte-Carlo ground truth: run the target on-policy
        truth_eps = collect_logged_episodes(
            env, target, n_truth, seed=100, max_steps=_HORIZON
        )
        truth = float(np.mean([ep.discounted_return() for ep in truth_eps]))

        ois = ordinary_importance_sampling(logged, target)
        wis = weighted_importance_sampling(logged, target)
        pdis = per_decision_importance_sampling(logged, target, clip=10.0)
        eval_net = AttentionQNetwork(_QNET, seed=11)
        eval_net.bind_topology(env.topology)
        fqe = fitted_q_evaluation(
            logged,
            target,
            eval_net,
            iterations=4,
            epochs_per_iteration=1,
            batch_size=32,
            lr=3e-3,
            mc_epochs=4,
        )
        dr = doubly_robust(
            logged, target, eval_net, clip=10.0, reward_scale=fqe.reward_scale
        )
        return truth, ois, wis, pdis, fqe, dr

    truth, ois, wis, pdis, fqe, dr = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"OPE accuracy ({n_logged} logged episodes, {_HORIZON}-step "
        "horizon, tiny network)",
        f"on-policy MC ground truth: {truth:.2f}",
        f"{'estimator':<8} {'estimate':>10} {'|error|':>9} {'ESS':>6}",
    ]
    for result in (ois, wis, pdis, dr):
        lines.append(
            f"{result.method:<8} {result.estimate:>10.2f} "
            f"{abs(result.estimate - truth):>9.2f} {result.ess:>6.1f}"
        )
    lines.append(
        f"{'FQE':<8} {fqe.value:>10.2f} {abs(fqe.value - truth):>9.2f}"
        "      - (model-based; no weights)"
    )
    write_result("ope_accuracy.txt", "\n".join(lines))

    for result in (ois, wis, pdis, dr):
        assert np.isfinite(result.estimate), result.method
    assert wis.ess <= n_logged + 1e-9
    assert np.isfinite(fqe.value)


# ----------------------------------------------------------------------
# trace-store throughput sweep (script mode; nightly ope-bench CI job)
# ----------------------------------------------------------------------

#: distinct pre-drawn synthetic states cycled through the writer: large
#: enough that shard compression/caching cannot fake the measurement,
#: small enough that state generation stays off the clock
_POOL_SIZE = 512


class _LinearSoftmaxPolicy:
    """Masked linear-softmax propensities over flattened features.

    A stand-in target policy for the throughput sweep: one matmul per
    episode via ``action_probs_batch`` — the same batched-propensity
    path the real :class:`StochasticQPolicy` exercises, without
    attention-network inference swamping the trace-store measurement.
    """

    def __init__(self, dims: TraceDims, seed: int, temperature: float = 2.0):
        rng = np.random.default_rng(seed)
        flat = dims.n_nodes * dims.node_dim + dims.n_plcs * dims.plc_dim + dims.glob_dim
        self._weights = rng.standard_normal((flat, dims.n_actions))
        self._temperature = float(temperature)

    def action_probs_batch(self, features: FeatureSet, masks) -> np.ndarray:
        n = len(masks)
        flats = np.concatenate(
            [features.node.reshape(n, -1), features.plc.reshape(n, -1), features.glob],
            axis=1,
        )
        z = np.where(masks, flats @ self._weights / self._temperature, -np.inf)
        z -= z.max(axis=1, keepdims=True)
        exp = np.exp(z)
        return exp / exp.sum(axis=1, keepdims=True)


def _small_net_dims(horizon: int) -> TraceDims:
    """The small network's real trace geometry (features + action space)."""
    env = repro.make_env(small_network(tmax=horizon), seed=0)
    return TraceDims(
        n_nodes=env.topology.n_nodes,
        node_dim=NODE_FEATURE_DIM,
        n_plcs=env.topology.n_plcs,
        plc_dim=PLC_FEATURE_DIM,
        glob_dim=GLOBAL_FEATURE_DIM,
        n_actions=len(enumerate_actions(env.topology)),
    )


def _synthetic_pool(dims: TraceDims, seed: int) -> tuple:
    """Pre-drawn states, masks, actions and behaviour probabilities,
    stacked along a leading pool axis."""
    rng = np.random.default_rng(seed)
    features = FeatureSet(
        node=rng.random((_POOL_SIZE, dims.n_nodes, dims.node_dim)),
        plc=rng.random((_POOL_SIZE, dims.n_plcs, dims.plc_dim)),
        glob=rng.random((_POOL_SIZE, dims.glob_dim)),
    )
    masks = rng.random((_POOL_SIZE, dims.n_actions)) < 0.5
    masks[~masks.any(axis=1), 0] = True
    actions = np.empty(_POOL_SIZE, dtype=np.int64)
    for i, mask in enumerate(masks):
        valid = np.flatnonzero(mask)
        actions[i] = valid[rng.integers(len(valid))]
    return features, masks, actions, 1.0 / masks.sum(axis=1)


def _pool_rows(features: FeatureSet, rows) -> FeatureSet:
    return FeatureSet(
        node=features.node[rows], plc=features.plc[rows], glob=features.glob[rows]
    )


def _bench_write(trace_dir, dims, episodes, horizon, shard_rows, seed):
    features, masks, actions, probs = _synthetic_pool(dims, seed)
    rng = np.random.default_rng(seed + 1)
    rewards = rng.standard_normal(episodes * horizon)
    start = time.perf_counter()
    with TraceWriter(
        trace_dir,
        shard_rows=shard_rows,
        meta={"generator": "bench_ope-synthetic", "horizon": horizon},
    ) as writer:
        for episode in range(episodes):
            index = episode * horizon
            rows = np.arange(index, index + horizon) % _POOL_SIZE
            final = (index + horizon + episode) % _POOL_SIZE
            logged = LoggedEpisode(
                actions=actions[rows],
                behavior_probs=probs[rows],
                rewards=rewards[index : index + horizon],
                gamma=0.99,
                features=_pool_rows(features, rows),
                masks=masks[rows],
                final_features=_pool_rows(features, final),
                final_mask=masks[final],
                seed=seed + episode,
            )
            writer.write(episode, logged)
    return time.perf_counter() - start


def _bench_read(trace_dir, expected_transitions):
    start = time.perf_counter()
    dataset = TraceDataset(trace_dir)
    transitions = sum(len(episode) for episode in dataset)
    elapsed = time.perf_counter() - start
    if transitions != expected_transitions:
        raise RuntimeError(
            f"trace round-trip lost transitions: wrote {expected_transitions}, "
            f"read back {transitions}"
        )
    return elapsed


def _bench_estimate(trace_dir, dims, seed):
    target = _LinearSoftmaxPolicy(dims, seed=seed + 2)
    start = time.perf_counter()
    dataset = TraceDataset(trace_dir)
    stats = [episode_ope_stats(episode, target) for episode in dataset]
    elapsed = time.perf_counter() - start
    weights = np.array([s.weight for s in stats])
    if not np.all(np.isfinite(weights)):
        raise RuntimeError("synthetic trace produced non-finite IS weights")
    return elapsed


def run_trace_sweep(
    transitions: int,
    *,
    horizon: int = 100,
    shard_rows: int = 16384,
    seed: int = 0,
    trace_dir: str | None = None,
) -> dict:
    """Grow a synthetic trace and measure write/read/estimate rates."""
    episodes = max(1, math.ceil(transitions / horizon))
    actual = episodes * horizon
    dims = _small_net_dims(horizon)
    record_bytes = trace_record_dtype(dims).itemsize

    def sweep(path):
        print(
            f"growing {actual} transitions ({episodes} episodes x {horizon} "
            f"steps, {record_bytes} B/record) in {path}",
            file=sys.stderr,
        )
        results = []

        def bench_write():
            return _bench_write(path, dims, episodes, horizon, shard_rows, seed)

        stages = (
            ("write", bench_write),
            ("read", lambda: _bench_read(path, actual)),
            ("estimate", lambda: _bench_estimate(path, dims, seed)),
        )
        for stage, run in stages:
            elapsed = run()
            results.append(
                {
                    "stage": stage,
                    "transitions": actual,
                    "seconds": round(elapsed, 3),
                    "transitions_per_s": round(actual / elapsed, 1),
                }
            )
            print(
                f"{stage:>9}: {actual / elapsed:>10.0f} transitions/s "
                f"({elapsed:.2f}s)",
                file=sys.stderr,
            )
        store_bytes = sum(
            f.stat().st_size for f in pathlib.Path(path).glob("shard-*.bin")
        )
        return results, store_bytes

    if trace_dir is not None:
        results, store_bytes = sweep(trace_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="bench_ope_") as tmp:
            results, store_bytes = sweep(os.path.join(tmp, "trace"))

    return {
        "meta": {
            "bench": "ope_trace_throughput",
            "network": "small",
            "dims": dims._asdict(),
            "record_bytes": record_bytes,
            "horizon": horizon,
            "episodes": episodes,
            "shard_rows": shard_rows,
            "store_bytes": store_bytes,
            "seed": seed,
            "host": {
                "python": platform.python_version(),
                "platform_system": platform.system(),
                "cpu_count": os.cpu_count(),
            },
        },
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--transitions",
        type=int,
        default=1_000_000,
        help="trace size to grow (default: 1,000,000 — the nightly floor)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=100,
        help="steps per synthetic episode (default: 100)",
    )
    parser.add_argument("--shard-rows", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="grow the trace here and keep it (default: a temp dir, deleted)",
    )
    parser.add_argument(
        "--out",
        default="bench_ope.json",
        help="JSON report path (feeds benchmarks/compare_bench_ope.py)",
    )
    args = parser.parse_args(argv)

    report = run_trace_sweep(
        args.transitions,
        horizon=args.horizon,
        shard_rows=args.shard_rows,
        seed=args.seed,
        trace_dir=args.trace_dir,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
