"""Experiment E12 (extension): cross-network transfer.

The paper's scaling argument (Section 4.4) is that attention-network
parameters never grow with node count, so one policy can protect
networks of different sizes; its future work asks for pre-train /
fine-tune deployment. This bench runs that pipeline's evaluation half:
one set of weights is evaluated on the *grid-search* network (10
workstations / 3 HMIs / 30 PLCs) and zero-shot on the full evaluation
network (25/5/50, 329 actions), next to a second network of identical
architecture.

No trained checkpoint is committed yet (``benchmarks/data/acso_qnet.npz``
does not exist), so the ``acso_qnet`` fixture is the untrained seed-0
network and the bench compares two untrained seeds, 0 and 99. What it
checks today is the shape claim: identical parameter counts on both
networks, and finite returns everywhere. With a committed checkpoint,
the seed-0 rows become the trained policy, and it should then dominate
the untrained seed-99 network on the target.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import episodes_per_cell, write_result
from repro.config import paper_network, small_network
from repro.rl import AttentionQNetwork, QNetConfig
from repro.transfer import evaluate_greedy_policy

_MAX_STEPS = 800


def test_zero_shot_transfer(benchmark, eval_tables, acso_qnet):
    episodes = episodes_per_cell(2)
    source_cfg = small_network(tmax=_MAX_STEPS)
    target_cfg = paper_network(tmax=_MAX_STEPS)

    def run():
        rows = {}
        untrained = AttentionQNetwork(QNetConfig(), seed=99)
        rows["untrained seed 0, source"] = evaluate_greedy_policy(
            source_cfg, acso_qnet, eval_tables, episodes, seed=50, max_steps=_MAX_STEPS
        )
        rows["untrained seed 0, target"] = evaluate_greedy_policy(
            target_cfg, acso_qnet, eval_tables, episodes, seed=50, max_steps=_MAX_STEPS
        )
        rows["untrained seed 99, target"] = evaluate_greedy_policy(
            target_cfg, untrained, eval_tables, episodes, seed=50, max_steps=_MAX_STEPS
        )
        params = {
            "seed 0": acso_qnet.n_parameters(),
            "seed 99": untrained.n_parameters(),
        }
        return rows, params

    rows, params = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Zero-shot transfer, small -> paper network ({episodes} episodes, "
        f"{_MAX_STEPS}-step horizon)",
        f"parameters: {params['seed 0']} (identical on both networks)",
        f"{'network, evaluated on':<26} {'return':>10} {'PLCs off':>9} {'IT cost':>9} "
        f"{'compromised':>12}",
    ]
    for name, agg in rows.items():
        lines.append(
            f"{name:<26} {agg.mean('discounted_return'):>10.1f} "
            f"{agg.mean('final_plcs_offline'):>9.2f} "
            f"{agg.mean('avg_it_cost'):>9.3f} "
            f"{agg.mean('avg_nodes_compromised'):>12.2f}"
        )
    write_result("transfer.txt", "\n".join(lines))

    assert params["seed 0"] == params["seed 99"]
    for agg in rows.values():
        assert np.isfinite(agg.mean("discounted_return"))
