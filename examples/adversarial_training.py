#!/usr/bin/env python
"""Adversarial attacker search: find the APT that hurts your defender.

The paper probes defender robustness with two hand-picked attacker
perturbations (Fig 6, Fig 10) and names adversarial learning as future
work. This example automates the probe: a cross-entropy search over
the bounded attacker-parameter space (thresholds, labor, stealth,
objective, vector) discovers the empirical best response to a fixed
defender, then a robustness matrix compares the defender against the
nominal, aggressive, and discovered attackers.

Run:
    python examples/adversarial_training.py [--iterations 3] [--population 8]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.adversarial import (
    AttackerParameterSpace,
    CrossEntropySearch,
    format_matrix,
    make_defender_fitness_vec,
    robustness_matrix,
)
from repro.attacker import apt1, apt2
from repro.config import small_network
from repro.defenders import PlaybookPolicy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--population", type=int, default=8)
    parser.add_argument(
        "--episodes", type=int, default=1, help="episodes per fitness evaluation"
    )
    parser.add_argument("--max-steps", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--selfplay",
        action="store_true",
        help="also run one defender/attacker self-play "
        "round with a learned ACSO (slower)",
    )
    args = parser.parse_args()

    # a faster clock makes six-month campaigns observable in short runs
    config = small_network(tmax=args.max_steps)
    config = config.with_apt(replace(config.apt, time_scale=4.0))
    defender = PlaybookPolicy()
    space = AttackerParameterSpace(base=config.apt)

    print("Searching attacker space against the playbook defender...")
    fitness = make_defender_fitness_vec(
        config,
        defender,
        episodes=args.episodes,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    nominal_utility = float(fitness([config.apt])[0])
    print(f"  nominal APT1 utility: {nominal_utility:.2f}")

    search = CrossEntropySearch(
        space, fitness, population=args.population, seed=args.seed
    )
    result = search.run(iterations=args.iterations, init_mean=space.encode(config.apt))
    best = result.best_config
    print(
        f"  best-response utility: {result.best_fitness:.2f} "
        f"({result.evaluations} rollout evaluations)"
    )
    print(
        f"  discovered attacker: objective={best.objective} "
        f"vector={best.vector} lateral={best.lateral_threshold} "
        f"plc_threshold={best.plc_threshold} labor={best.labor_rate} "
        f"cleanup={best.cleanup_effectiveness:.2f}"
    )
    for i, (mean, elite, best_fit) in enumerate(result.history):
        print(
            f"  iter {i}: population mean {mean:.1f}, "
            f"elite mean {elite:.1f}, best {best_fit:.1f}"
        )

    print("\nRobustness matrix (rows: defenders, cols: attackers):")
    matrix = robustness_matrix(
        config,
        defenders={"Playbook": PlaybookPolicy()},
        attackers={
            "APT1": replace(apt1(), time_scale=4.0),
            "APT2": replace(apt2(), time_scale=4.0),
            "best-response": best,
        },
        episodes=args.episodes,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    print("\ndiscounted return (higher = more robust):")
    print(format_matrix(matrix, "discounted_return"))
    print("\navg nodes compromised per hour:")
    print(format_matrix(matrix, "avg_nodes_compromised"))
    print(
        "\nThe discovered attacker should match or beat the nominal one; "
        "adding it to a training population (SelfPlayLoop) is how the "
        "defender is hardened against it."
    )

    if args.selfplay:
        run_selfplay_round(config, args)


def run_selfplay_round(config, args) -> None:
    """One double-oracle round: train a small ACSO against the attacker
    population, then expand the population with its best response."""
    import repro
    from repro.adversarial import SelfPlayConfig, SelfPlayLoop
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy
    from repro.defenders.acso import ACSOPolicy
    from repro.rl import (
        ACSOFeaturizer,
        AttentionQNetwork,
        DQNConfig,
        DQNTrainer,
        QNetConfig,
    )

    print("\nSelf-play round (defender oracle + attacker oracle)...")
    tables = fit_dbn(
        lambda: repro.make_env(config),
        lambda: SemiRandomPolicy(rate=5.0),
        episodes=3,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    env = repro.make_env(config, seed=args.seed)
    qnet = AttentionQNetwork(QNetConfig(), seed=args.seed)
    trainer = DQNTrainer(
        env,
        qnet,
        ACSOFeaturizer(env.topology, tables),
        DQNConfig(
            warmup=128,
            batch_size=32,
            update_every=8,
            target_update=200,
            eps_decay=0.995,
            seed=args.seed,
        ),
    )
    loop = SelfPlayLoop(
        config,
        trainer,
        ACSOPolicy(qnet, tables),
        selfplay=SelfPlayConfig(
            rounds=1,
            train_episodes=2,
            train_max_steps=args.max_steps,
            cem_iterations=2,
            cem_population=4,
            fitness_episodes=1,
            eval_episodes=1,
            eval_max_steps=args.max_steps,
            seed=args.seed,
            run_name="example",
        ),
    )
    for record in loop.run():
        print(
            f"  round {record.round_index}: population utility "
            f"{record.population_utility:.1f}, best-response utility "
            f"{record.best_response_utility:.1f}, exploitability "
            f"{record.exploitability:.1f}"
        )
        print(
            f"  emitted scenario: {record.best_response_id} "
            f"(repro.make(id) verified: "
            f"{record.verified_utility == record.best_response_utility})"
        )
    print(f"  population size after expansion: {len(loop.population)}")


if __name__ == "__main__":
    main()
