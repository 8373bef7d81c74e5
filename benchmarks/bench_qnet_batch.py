"""No-grad Q-network forward cost per sample by batch size and row block.

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

Each variant runs in a fresh interpreter (``--worker``), so no variant
inherits another's heap, and the order of the variants alternates
between repeats. ``--baseline-src`` adds a variant, ``baseline``, that
imports another checkout's ``src/`` (e.g. the parent commit's) and runs
its forward as it is::

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
import time
from pathlib import Path

import numpy as np

BATCHES = (1, 4, 16, 64, 156)
BUDGETS = (128, 256, 512, 1024, 2048)
NETWORKS = ("tiny-compact", "paper-default", "paper-paper")
#: seconds of forwards timed per (variant, batch) cell, after warm-up
CELL_SECONDS = 0.4

SRC = Path(__file__).resolve().parent.parent / "src"


def _network(name: str):
    """The bound network and its topology."""
    import repro
    from repro.config import paper_network, tiny_network
    from repro.rl import AttentionQNetwork, QNetConfig

    compact = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
    topology, config = {
        "tiny-compact": (tiny_network, compact),
        "paper-default": (paper_network, QNetConfig()),
        "paper-paper": (paper_network, QNetConfig.paper()),
    }[name]
    topo = repro.make_env(topology(tmax=30), seed=0).topology
    return AttentionQNetwork(config, seed=3).bind_topology(topo), topo


def _tokens(topo) -> int:
    return topo.n_nodes + topo.n_plcs + 1


def worker(name: str, variant: str) -> list[dict]:
    """One variant of one network at every batch size, in this process.

    ``variant`` is a token budget, ``one-piece`` (no blocks) or
    ``baseline`` (the imported checkout's forward, untouched)."""
    from repro.nn import no_grad
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
        with no_grad():
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


def _run_worker(name: str, variant: str, src: Path) -> list[dict]:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", name, variant],
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
            "metric": "median ms per sample and minor faults per forward",
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
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
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
        print(json.dumps(worker(*args.worker)))
        return 0
    report = sweep(args.repeats, args.baseline_src)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
