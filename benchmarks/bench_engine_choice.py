"""Which vector engine runs a whole evaluation faster, by lane count.

``repro.make_vec`` (through ``repro.sim.vec_env.lockstep_env``) runs
one lane on the sync ``VectorEnv`` and two or more on the batched
engine. This benchmark holds the evidence for that rule: it times whole
``evaluate_policy_vec`` runs -- construction, resets and steps of a
playbook defender, the CLI's default policy -- on both engines in
alternated pairs, at one lane and at more.
``BENCH_vec_throughput.json`` times bare noop steps instead, where the
batched engine's idle-lane fast path wins even at one lane.

Two entry points:

* pytest-benchmark cells through ``repro.make_vec``'s own pick, one on
  each side of the rule (CI trend lines)::

      PYTHONPATH=src python -m pytest benchmarks/bench_engine_choice.py

* the paired sweep, which prints per-engine medians and exits 1 when
  the engine ``make_vec`` picks is not the faster one in most pairs at
  some lane count (its ``--out`` rows are those of
  ``BENCH_engine_choice.json``)::

      PYTHONPATH=src python benchmarks/bench_engine_choice.py --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import pytest

import repro
from repro.defenders import PlaybookPolicy
from repro.eval.runner import evaluate_policy_vec

_SCENARIO = "inasim-small-v1"
_EPISODES = 4
_NAMES = {"VectorEnv": "sync", "BatchedVectorEnv": "batched"}


def _run(num_envs: int, backend: str | None, scenario: str, episodes: int) -> str:
    """One evaluation run; returns the engine class that ran it."""
    venv = repro.make_vec(scenario, num_envs, seed=3, backend=backend)
    with venv:
        evaluate_policy_vec(venv, PlaybookPolicy(), episodes, seed=3)
    return type(venv).__name__


# ----------------------------------------------------------------------
# pytest-benchmark cells
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_envs", [1, 4])
def test_default_engine_evaluation(benchmark, num_envs):
    engine = benchmark.pedantic(
        _run, args=(num_envs, None, _SCENARIO, _EPISODES), rounds=3, iterations=1
    )
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["num_envs"] = num_envs


# ----------------------------------------------------------------------
# paired sweep
# ----------------------------------------------------------------------
def run_pairs(lane_counts, pairs: int, scenario: str, episodes: int) -> list[dict]:
    rows = []
    for num_envs in lane_counts:
        times = {"sync": [], "batched": []}
        for i in range(pairs):
            order = ("sync", "batched") if i % 2 else ("batched", "sync")
            for backend in order:
                start = time.perf_counter()
                _run(num_envs, backend, scenario, episodes)
                times[backend].append(time.perf_counter() - start)
        picked = _NAMES[type(repro.make_vec(scenario, num_envs)).__name__]
        sync, batched = times["sync"], times["batched"]
        wins = {"batched": sum(b < s for s, b in zip(sync, batched))}
        wins["sync"] = pairs - wins["batched"]
        row = {
            "num_envs": num_envs,
            "sync_median_s": round(statistics.median(sync), 4),
            "batched_median_s": round(statistics.median(batched), 4),
            "batched_faster_pairs": wins["batched"],
            "pairs": pairs,
            "picked": picked,
            # pair wins, not medians: a shared host drifts between pairs
            "picked_is_faster": 2 * wins[picked] > pairs,
            "sync_s": [round(t, 4) for t in sync],
            "batched_s": [round(t, 4) for t in batched],
        }
        rows.append(row)
        print(
            f"  x{num_envs:<3} sync {row['sync_median_s']:.3f}s  "
            f"batched {row['batched_median_s']:.3f}s  "
            f"(batched faster in {row['batched_faster_pairs']}/{pairs})  "
            f"make_vec picks {picked}",
            file=sys.stderr,
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=_SCENARIO)
    parser.add_argument("--num-envs", default="1,2,8")
    parser.add_argument("--episodes", type=int, default=_EPISODES)
    parser.add_argument(
        "--pairs", type=int, default=10, help="alternated runs per engine"
    )
    parser.add_argument("--out", default=None, help="also write the rows as JSON")
    args = parser.parse_args(argv)
    rows = run_pairs(
        [int(n) for n in args.num_envs.split(",")],
        args.pairs,
        args.scenario,
        args.episodes,
    )
    if args.out:
        with open(args.out, "w") as handle:
            meta = {
                "scenario": args.scenario,
                "policy": "playbook",
                "episodes": args.episodes,
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
            }
            json.dump({"meta": meta, "rows": rows}, handle, indent=2)
            handle.write("\n")
    return 0 if all(row["picked_is_faster"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
