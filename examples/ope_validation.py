#!/usr/bin/env python
"""Certify a policy offline: off-policy evaluation on logged episodes.

Before handing a new ACSO policy control of a live ICS network, its
value must be estimated from data logged under the *current* (known,
trusted) policy -- the data-efficient validation the paper's future
work calls for. This example logs episodes under an exploratory
behaviour policy, then estimates a greedier target policy's value five
ways in one ``run_ope_suite`` call (OIS / WIS / PDIS / FQE /
doubly-robust, importance ratios clipped at 10) and compares against an
on-policy Monte-Carlo ground truth it would normally not have. It ends
with the number an operator actually signs off on: a high-confidence
lower bound.

Run:
    python examples/ope_validation.py [--episodes 6] [--horizon 25]
"""

from __future__ import annotations

import argparse

import numpy as np

import repro
from repro.config import tiny_network
from repro.dbn import fit_dbn
from repro.defenders import SemiRandomPolicy
from repro.rl import AttentionQNetwork, QNetConfig
from repro.validation import (
    StochasticQPolicy,
    bootstrap_ci,
    collect_logged_episodes,
    empirical_bernstein_lower_bound,
    run_ope_suite,
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=6)
    parser.add_argument("--horizon", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = tiny_network(tmax=args.horizon)
    print("Fitting DBN tables (the featurizer both policies share)...")
    tables = fit_dbn(
        lambda: repro.make_env(config),
        lambda: SemiRandomPolicy(rate=3.0),
        episodes=4,
        seed=21,
        max_steps=args.horizon,
    )

    env = repro.make_env(config, seed=args.seed)
    qnet = AttentionQNetwork(
        QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32),
        seed=3,
    )
    qnet.bind_topology(env.topology)
    behavior = StochasticQPolicy(
        qnet, tables, temperature=1.0, epsilon=0.4, seed=args.seed
    )
    target = StochasticQPolicy(
        qnet, tables, temperature=0.25, epsilon=0.1, seed=args.seed + 1
    )

    print(f"Logging {args.episodes} episodes under the behaviour policy...")
    logged = collect_logged_episodes(
        env, behavior, args.episodes, seed=100, max_steps=args.horizon
    )
    behavior_returns = [ep.discounted_return() for ep in logged]
    print(f"  behaviour-policy mean return: {np.mean(behavior_returns):.2f}")

    truth_eps = collect_logged_episodes(
        env, target, args.episodes, seed=100, max_steps=args.horizon
    )
    truth = float(np.mean([ep.discounted_return() for ep in truth_eps]))
    print(f"  (hidden) on-policy target value: {truth:.2f}\n")

    print("Estimating the target's value from the behaviour log only:")
    eval_net = AttentionQNetwork(qnet.config, seed=11)
    eval_net.bind_topology(env.topology)
    report = run_ope_suite(
        logged,
        target,
        eval_net,
        clip=10.0,
        fqe_options=dict(
            iterations=4,
            epochs_per_iteration=1,
            batch_size=32,
            lr=3e-3,
            mc_epochs=4,
        ),
    )
    for method in ("OIS", "WIS", "PDIS", "DR"):
        result = report[method]
        print(
            f"  {result.method:<5} {result.estimate:>10.2f}  "
            f"|err| {abs(result.estimate - truth):>8.2f}  "
            f"ESS {result.ess:.1f}/{len(logged)}"
        )
    fqe = report["FQE"].estimate
    print(f"  FQE   {fqe:>10.2f}  |err| {abs(fqe - truth):>8.2f}  (model-based)")

    print("\nCertification numbers (on the behaviour log's returns):")
    mean, lower, upper = bootstrap_ci(behavior_returns, alpha=0.05)
    print(f"  bootstrap 95% CI:            [{lower:.2f}, {upper:.2f}]")
    bound = empirical_bernstein_lower_bound(
        behavior_returns,
        delta=0.05,
        value_range=float(np.ptp(behavior_returns)) or 1.0,
    )
    print(f"  empirical-Bernstein L(0.95): {bound:.2f}")
    print(
        "\nOver long horizons the trajectory IS weights collapse (watch "
        "the ESS); WIS and the FQE/DR family are the estimators that "
        "survive -- exactly why they exist."
    )


if __name__ == "__main__":
    main()
