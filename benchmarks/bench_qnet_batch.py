"""Untaped Q-network forward cost per sample by batch size and row block.

Without a tape, ``AttentionQNetwork`` runs a batch of more than
``BLOCK_TOKENS // tokens`` rows as consecutive row blocks
(``repro.rl.qnetwork.in_row_blocks``). This sweep holds the evidence
for the budget: for each network it times one no-grad forward at
B in {1, 4, 16, 64, 156} under several token budgets and in one piece,
and counts the minor page faults each forward takes. How many pages a
forward faults in depends on what the process allocated before it:
glibc gives the top of the heap back when a free leaves more than its
trim threshold there, and raises that threshold when it frees a large
mapped chunk.

A second cell, ``recorded``, times one-state forwards over recorded
inputs, where the rows repeat as they do in use: every decision of one
seeded ACSO evaluation on ``inasim-paper-v1`` (400 steps, under the
default config and ``QNetConfig.paper()``), and every one-lane action
selection of a two-episode tiny-network training run shaped like
perfbench's ``dqn-train``. Its variants are ``distinct-rows`` (the
forward on each state's distinct node and PLC rows, forced on),
``all-rows`` (forced off) and ``baseline``; the first two are the
evidence for ``repro.rl.qnetwork.DISTINCT_MIN_TOKENS``.

Each variant runs in a fresh interpreter (``--worker``), so no variant
inherits another's heap, and the order of the variants alternates
between repeats. ``--baseline-src`` adds a variant, ``baseline``, that
imports another checkout's ``src/`` (e.g. the parent commit's; one whose
``forward`` takes the ``grad`` argument, so its default pass is the
untaped one) and runs its forward as it is::

    PYTHONPATH=src python benchmarks/bench_qnet_batch.py --repeats 3 \\
        --baseline-src ../parent/src --out BENCH_qnet_batch.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BATCHES = (1, 4, 16, 64, 156)
BUDGETS = (128, 256, 512, 1024, 2048)
NETWORKS = ("tiny-compact", "paper-default", "paper-paper")
#: seconds of forwards timed per (variant, batch) cell, after warm-up
CELL_SECONDS = 0.4
#: the recorded-state cell's networks and the scenario of their states
#: (``dqn-train`` for the tiny network's training episodes)
RECORDED = {
    "tiny-compact": "dqn-train",
    "small-default": "inasim-small-v1",
    "paper-default": "inasim-paper-v1",
    "paper-paper": "inasim-paper-v1",
}
#: variants of the recorded-state cell (plus ``baseline``)
RECORDED_VARIANTS = ("distinct-rows", "all-rows")
#: seconds of passes over the recorded states timed per variant
RECORDED_SECONDS = 1.5

SRC = Path(__file__).resolve().parent.parent / "src"


def _network(name: str):
    """The bound network and its topology."""
    import repro
    from repro.config import paper_network, small_network, tiny_network
    from repro.rl import AttentionQNetwork, QNetConfig

    compact = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
    topology, config = {
        "tiny-compact": (tiny_network, compact),
        "small-default": (small_network, QNetConfig()),
        "paper-default": (paper_network, QNetConfig()),
        "paper-paper": (paper_network, QNetConfig.paper()),
    }[name]
    topo = repro.make_env(topology(tmax=30), seed=0).topology
    return AttentionQNetwork(config, seed=3).bind_topology(topo), topo


def _tokens(topo) -> int:
    return topo.n_nodes + topo.n_plcs + 1


def _record_acso(config, scenario: str) -> list[tuple]:
    """The Q-network inputs of one seeded 400-step ACSO evaluation of
    ``scenario``, as perfbench ``acso-eval`` runs one on the paper
    network."""
    import repro
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy
    from repro.defenders.acso import ACSOPolicy
    from repro.eval import evaluate_policy
    from repro.rl import AttentionQNetwork

    env = repro.make(scenario, horizon=400)
    tables = fit_dbn(
        lambda: repro.make_env(env.config),
        lambda: SemiRandomPolicy(rate=5.0),
        episodes=4,
        seed=1,
    )
    qnet = AttentionQNetwork(config, seed=3)
    states = []
    q_values = qnet.q_values

    def recording(features):
        states.append(
            (features.node.copy(), features.plc.copy(), features.glob.copy())
        )
        return q_values(features)

    qnet.q_values = recording
    evaluate_policy(env, ACSOPolicy(qnet, tables), 1, seed=5, max_steps=400)
    return states


def _record_dqn(config, scenario: str) -> list[tuple]:
    """The one-state no-grad forwards of two 120-step training episodes
    in perfbench ``dqn-train``'s configuration (tiny network, 10x
    attacker, compact Q-network)."""
    import dataclasses

    import repro
    from repro.config import tiny_network
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy
    from repro.rl import ACSOFeaturizer, AttentionQNetwork
    from repro.rl.dqn import DQNConfig, DQNTrainer

    network = tiny_network(tmax=150)
    tables = fit_dbn(
        lambda: repro.make_env(network),
        lambda: SemiRandomPolicy(rate=3.0),
        episodes=4,
        seed=1,
        max_steps=150,
    )
    apt = dataclasses.replace(network.apt, time_scale=10.0)
    env = repro.make_env(network.with_apt(apt), seed=1)
    qnet = AttentionQNetwork(config, seed=3)
    dqn = DQNConfig(
        batch_size=16,
        warmup=32,
        update_every=4,
        target_update=100,
        eps_decay=0.995,
        buffer_size=5_000,
        n_step=8,
        seed=1,
    )
    trainer = DQNTrainer(env, qnet, ACSOFeaturizer(env.topology, tables), dqn)
    states = []
    forward = qnet.forward

    def recording(node, plc, glob, grad=False):
        if len(node) == 1 and not grad:
            states.append((node[0].copy(), plc[0].copy(), glob[0].copy()))
        return forward(node, plc, glob, grad=grad)

    qnet.forward = recording
    trainer.train(2, seed=11, max_steps=120)
    return states


def record(path: Path) -> None:
    """Record every recorded-cell network's states into ``path`` (npz)."""
    arrays = {}
    for name, scenario in RECORDED.items():
        config = _network(name)[0].config
        record_states = _record_dqn if scenario == "dqn-train" else _record_acso
        states = record_states(config, scenario)
        for i, part in enumerate(("node", "plc", "glob")):
            arrays[f"{name}/{part}"] = np.stack([state[i] for state in states])
    np.savez(path, **arrays)


def recorded_worker(name: str, variant: str, path: str) -> dict:
    """Median ms per one-state no-grad forward over the recorded states,
    by pass, in this process."""
    net, _ = _network(name)
    if variant != "baseline":
        net._distinct_rows = variant == "distinct-rows"
    with np.load(path) as data:
        parts = [data[f"{name}/{part}"][:, None] for part in ("node", "plc", "glob")]
    states = list(zip(*parts))
    times = []
    for state in states:
        net.forward(*state)
    began = time.perf_counter()
    while time.perf_counter() - began < RECORDED_SECONDS or len(times) < 3:
        start = time.perf_counter()
        for state in states:
            net.forward(*state)
        times.append(time.perf_counter() - start)
    return {
        "states": len(states),
        "ms_per_forward": statistics.median(times) * 1e3 / len(states),
    }


def _distinct_counts(path: Path, name: str) -> dict:
    """Mean distinct node and PLC rows per recorded state."""
    counts = {}
    with np.load(path) as data:
        for part in ("node", "plc"):
            states = data[f"{name}/{part}"]
            distinct = [len({row.tobytes() for row in state}) for state in states]
            counts[f"distinct_{part}_rows"] = round(float(np.mean(distinct)), 2)
    return counts


def worker(name: str, variant: str) -> list[dict]:
    """One variant of one network at every batch size, in this process.

    ``variant`` is a token budget, ``one-piece`` (no blocks) or
    ``baseline`` (the imported checkout's forward, untouched)."""
    from repro.rl.features import GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM, PLC_FEATURE_DIM

    net, topo = _network(name)
    rng = np.random.default_rng(0)
    rows = []
    for batch in BATCHES:
        if variant == "one-piece":
            net._block_rows = batch
        elif variant != "baseline":
            net._block_rows = max(1, int(variant) // _tokens(topo))
        feats = (
            rng.normal(size=(batch, topo.n_nodes, NODE_FEATURE_DIM)),
            rng.normal(size=(batch, topo.n_plcs, PLC_FEATURE_DIM)),
            rng.normal(size=(batch, GLOBAL_FEATURE_DIM)),
        )
        for _ in range(2):
            net.forward(*feats)
        times = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        began = time.perf_counter()
        while time.perf_counter() - began < CELL_SECONDS or len(times) < 5:
            start = time.perf_counter()
            net.forward(*feats)
            times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        rows.append(
            {
                "batch": batch,
                "ms_per_sample": statistics.median(times) * 1e3 / batch,
                "minor_faults": faults / len(times),
            }
        )
    return rows


def _run_worker(name: str, variant: str, src: Path, *extra: str):
    done = subprocess.run(
        [sys.executable, __file__, "--worker", name, variant, *extra],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def sweep(repeats: int, baseline_src: Path | None) -> dict:
    variants = [str(b) for b in BUDGETS] + ["one-piece"]
    if baseline_src is not None:
        variants.append("baseline")
    rows = []
    for name in NETWORKS:
        tokens = _tokens(_network(name)[1])
        runs: dict[str, list[list[dict]]] = {v: [] for v in variants}
        for repeat in range(repeats):
            # alternate the order so no variant always runs first
            for variant in variants if repeat % 2 == 0 else variants[::-1]:
                src = baseline_src if variant == "baseline" else SRC
                runs[variant].append(_run_worker(name, variant, src))
        for variant in variants:
            for i, batch in enumerate(BATCHES):
                ms = [run[i]["ms_per_sample"] for run in runs[variant]]
                faults = [run[i]["minor_faults"] for run in runs[variant]]
                block_rows = batch
                if variant.isdigit():
                    block_rows = min(batch, max(1, int(variant) // tokens))
                rows.append(
                    {
                        "network": name,
                        "tokens": tokens,
                        "variant": variant,
                        "block_rows": block_rows,
                        "batch": batch,
                        "ms_per_sample": round(statistics.median(ms), 4),
                        "minor_faults": round(statistics.median(faults), 1),
                        "ms_per_sample_runs": [round(m, 4) for m in ms],
                    }
                )
            medians = [row["ms_per_sample"] for row in rows[-len(BATCHES) :]]
            print(name, variant, medians, file=sys.stderr, flush=True)
    return {
        "meta": {
            "bench": "qnet_batch",
            "metric": "ms per sample, faults per forward; recorded: ms per forward",
            "batches": list(BATCHES),
            "repeats": repeats,
            "cell_seconds": CELL_SECONDS,
            "baseline": None if baseline_src is None else "the parent commit",
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
        "recorded": recorded_sweep(repeats, baseline_src),
    }


def recorded_sweep(repeats: int, baseline_src: Path | None) -> list[dict]:
    """The recorded-state cell: each network's variants in fresh
    interpreters, alternating their order between repeats."""
    variants = list(RECORDED_VARIANTS)
    if baseline_src is not None:
        variants.append("baseline")
    rows = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = Path(tmp_dir) / "states.npz"
        record(path)
        for name in RECORDED:
            runs: dict[str, list[float]] = {v: [] for v in variants}
            for repeat in range(repeats):
                for variant in variants if repeat % 2 == 0 else variants[::-1]:
                    src = baseline_src if variant == "baseline" else SRC
                    result = _run_worker(name, variant, src, str(path))
                    runs[variant].append(result["ms_per_forward"])
            counts = _distinct_counts(path, name)
            for variant in variants:
                rows.append(
                    {
                        "network": name,
                        "states_of": RECORDED[name],
                        "tokens": _tokens(_network(name)[1]),
                        "variant": variant,
                        "states": result["states"],
                        **counts,
                        "ms_per_forward": round(statistics.median(runs[variant]), 4),
                        "ms_per_forward_runs": [round(m, 4) for m in runs[variant]],
                    }
                )
                print(name, variant, runs[variant], file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--baseline-src",
        type=Path,
        default=None,
        help="another checkout's src/ to run as variant 'baseline'",
    )
    parser.add_argument("--out", default="bench_qnet_batch.json")
    args = parser.parse_args(argv)
    if args.worker:
        run = recorded_worker if len(args.worker) == 3 else worker
        print(json.dumps(run(*args.worker)))
        return 0
    report = sweep(args.repeats, args.baseline_src)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
