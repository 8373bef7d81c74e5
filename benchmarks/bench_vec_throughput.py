"""Experiment E5b: vectorized simulator throughput across backends.

Companion to ``bench_sim_throughput.py``: the same three network
presets, stepping a lockstep vector environment of N ∈ {1, 4, 16}
lanes through each backend (``sync`` lanes stepped in turn, ``batched``
structure-of-arrays lanes). The benchmark reports *aggregate*
environment steps per second (lanes × lockstep rounds / wall time) —
the number tracked against the repo's perf trajectory.

Every cell times bare ``step(None)`` lockstep rounds of an engine that
is already built and reset: no construction, no reset, no defender
policy. Its one-lane cells therefore do not show which engine a whole
one-lane evaluation should run on; ``bench_engine_choice.py`` times
whole playbook evaluations on both engines and measures that.

Two entry points:

* pytest-benchmark cells (CI trend lines)::

      PYTHONPATH=src python -m pytest benchmarks/bench_vec_throughput.py

* the machine-readable sweep, which writes ``BENCH_vec_throughput.json``
  at the repo root (steps/s per backend × num_envs × network, plus the
  speedup against the PR 1 sequential-engine baseline)::

      PYTHONPATH=src python benchmarks/bench_vec_throughput.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import pytest

import repro

_SCENARIOS = {
    "tiny": "inasim-tiny-v1",
    "small": "inasim-small-v1",
    "paper": "inasim-paper-v1",
}

_STEPS = 100

#: Aggregate steps/s of the PR 1 engine (sequential VectorEnv, no
#: hot-path caches) at num_envs=16 on the paper network, measured on
#: this repo's reference host via a git-stash A/B of the same noop
#: workload (PR 1's own CHANGES.md records the same ~11k figure). The
#: sweep reports its speedups against this trajectory baseline — that
#: ratio is only meaningful on a host comparable to the fingerprint
#: below; elsewhere, re-measure the baseline (git checkout of PR 1,
#: same workload) and pass it via ``--baseline``.
PR1_BASELINE_PAPER_VEC16 = 11127.0
PR1_BASELINE_HOST = {"cpu_count": 1, "python": "3.11.7", "platform_system": "Linux"}


def _measure(venv, rounds: int, seed: int, warmup: int = 10) -> float:
    """Best-of-3 aggregate env steps/s for a noop lockstep workload."""
    venv.reset(seed=seed)
    for _ in range(warmup):
        venv.step(None)
    best = None
    for _ in range(3):
        venv.reset(seed=seed)
        start = time.perf_counter()
        for _ in range(rounds):
            venv.step(None)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return rounds * venv.num_envs / best


# ----------------------------------------------------------------------
# pytest-benchmark cells
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", list(_SCENARIOS))
@pytest.mark.parametrize("num_envs", [1, 4, 16])
def test_vec_steps_noop(benchmark, preset, num_envs):
    venv = repro.make_vec(_SCENARIOS[preset], num_envs, seed=0, backend="sync")

    def run_chunk():
        for _ in range(_STEPS):
            venv.step(None)

    benchmark.pedantic(
        run_chunk, rounds=3, iterations=1, setup=lambda: (venv.reset(seed=0), None)[1]
    )
    rate = _STEPS * num_envs / benchmark.stats.stats.mean
    benchmark.extra_info["aggregate_steps_per_s"] = rate
    benchmark.extra_info["num_envs"] = num_envs


@pytest.mark.parametrize("num_envs", [1, 16])
def test_vec_steps_noop_batched(benchmark, num_envs):
    """The SoA batched backend on the paper net (the tracked cell)."""
    venv = repro.make_vec(
        _SCENARIOS["paper"], num_envs, seed=0, backend="batched"
    )

    def run_chunk():
        for _ in range(_STEPS):
            venv.step(None)

    benchmark.pedantic(
        run_chunk, rounds=3, iterations=1, setup=lambda: (venv.reset(seed=0), None)[1]
    )
    rate = _STEPS * num_envs / benchmark.stats.stats.mean
    benchmark.extra_info["aggregate_steps_per_s"] = rate
    benchmark.extra_info["num_envs"] = num_envs
    benchmark.extra_info["backend"] = "batched"


def test_vec_matches_single_env_throughput(benchmark):
    """Sanity anchor: N=16 aggregate steps/s >= the single-env rate.

    Runs both inside one benchmark cell so the comparison shares a
    machine state; asserts the acceptance criterion directly.
    """
    env = repro.make("inasim-paper-v1", seed=0)
    venv = repro.make_vec("inasim-paper-v1", 16, seed=0)

    def measure(step_fn, steps):
        start = time.perf_counter()
        for _ in range(steps):
            step_fn()
        return time.perf_counter() - start

    env.reset(seed=0)
    venv.reset(seed=0)
    # warmup: first steps pay topology/alert cache costs
    measure(lambda: env.step(None), 20)
    measure(lambda: venv.step(None), 5)

    env.reset(seed=0)
    single_rate = _STEPS / measure(lambda: env.step(None), _STEPS)
    venv.reset(seed=0)
    vec_rate = 16 * 50 / measure(lambda: venv.step(None), 50)

    benchmark.extra_info["single_steps_per_s"] = single_rate
    benchmark.extra_info["vec16_aggregate_steps_per_s"] = vec_rate
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # the sync VectorEnv amortizes per-round overhead, so its aggregate
    # rate tracks the single-env rate; allow timer/scheduler jitter —
    # a real regression (per-step overhead in the vec path) shows up
    # far below this floor
    assert vec_rate >= 0.9 * single_rate, (
        f"VectorEnv aggregate rate {vec_rate:.0f} steps/s fell below 0.9x "
        f"the single-env baseline {single_rate:.0f} steps/s"
    )


# ----------------------------------------------------------------------
# machine-readable sweep
# ----------------------------------------------------------------------
def run_sweep(networks, backends, env_counts, rounds, seed=0) -> dict:
    results = []
    for network in networks:
        scenario = _SCENARIOS[network]
        for backend in backends:
            for num_envs in env_counts:
                venv = repro.make_vec(scenario, num_envs, seed=seed, backend=backend)
                rate = _measure(venv, rounds, seed)
                results.append(
                    {
                        "network": network,
                        "backend": backend,
                        "num_envs": num_envs,
                        "aggregate_steps_per_s": round(rate, 1),
                    }
                )
                print(
                    f"  {network:>5} {backend:>7} x{num_envs:<3} "
                    f"{rate:>10.0f} steps/s",
                    file=sys.stderr,
                )
    return {
        "meta": {
            "workload": "step(None) lockstep rounds, engine named per cell",
            "rounds_per_cell": rounds,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "note": (
                "aggregate_steps_per_s = num_envs * lockstep rounds / "
                "wall time, best of 3. Both backends run in-process; "
                "batched amortizes the per-step work over all lanes."
            ),
            "pr1_baseline": {
                "network": "paper",
                "num_envs": 16,
                "backend": "sync (PR 1 sequential engine)",
                "aggregate_steps_per_s": PR1_BASELINE_PAPER_VEC16,
                "host": PR1_BASELINE_HOST,
            },
        },
        "results": results,
    }


def summarize(report: dict) -> dict:
    cells = [
        r for r in report["results"] if r["network"] == "paper" and r["num_envs"] == 16
    ]
    if not cells:
        return {}
    best = max(cells, key=lambda r: r["aggregate_steps_per_s"])
    sync = next((r for r in cells if r["backend"] == "sync"), None)
    baseline = report["meta"]["pr1_baseline"]["aggregate_steps_per_s"]
    summary = {
        "paper_vec16_best_backend": best["backend"],
        "paper_vec16_best_steps_per_s": best["aggregate_steps_per_s"],
        "speedup_vs_pr1_sync_baseline": round(
            best["aggregate_steps_per_s"] / baseline, 2
        ),
    }
    host_matches = (
        os.cpu_count() == PR1_BASELINE_HOST["cpu_count"]
        and platform.system() == PR1_BASELINE_HOST["platform_system"]
    )
    if baseline == PR1_BASELINE_PAPER_VEC16 and not host_matches:
        summary["cross_host_warning"] = (
            "pr1 baseline was measured on a different host class; the "
            "speedup ratio mixes hardware and code effects — re-measure "
            "the baseline here and pass --baseline"
        )
    if sync is not None:
        summary["paper_vec16_sync_steps_per_s"] = sync["aggregate_steps_per_s"]
    batched = next((r for r in cells if r["backend"] == "batched"), None)
    if batched is not None:
        summary["paper_vec16_batched_steps_per_s"] = batched[
            "aggregate_steps_per_s"
        ]
        if sync is not None:
            summary["batched_speedup_vs_sync"] = round(
                batched["aggregate_steps_per_s"]
                / sync["aggregate_steps_per_s"], 2
            )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--networks", default="tiny,small,paper")
    parser.add_argument("--backends", default="sync,batched")
    parser.add_argument("--num-envs", default="1,4,16")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke grid: the tracked paper-net vec-16 "
        "cell on every backend, fewer rounds "
        "(feeds benchmarks/compare_bench_throughput.py)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=200,
        help="lockstep rounds per cell (default: 200)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--baseline",
        type=float,
        default=PR1_BASELINE_PAPER_VEC16,
        help="PR 1 paper-net vec-16 aggregate steps/s "
        "measured on THIS host (default: the "
        "reference-host figure)",
    )
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_vec_throughput.json"
        ),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.networks = "paper"
        args.num_envs = "16"
        args.rounds = min(args.rounds, 100)

    report = run_sweep(
        [n.strip() for n in args.networks.split(",") if n.strip()],
        [b.strip() for b in args.backends.split(",") if b.strip()],
        [int(n) for n in args.num_envs.split(",")],
        args.rounds,
        seed=args.seed,
    )
    report["meta"]["pr1_baseline"]["aggregate_steps_per_s"] = args.baseline
    report["summary"] = summarize(report)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if report["summary"]:
        print(json.dumps(report["summary"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
