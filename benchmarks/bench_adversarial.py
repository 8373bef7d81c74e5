"""Experiment E10 (extension): adversarial best-response probe.

The paper tests robustness with two hand-picked perturbations (Fig 6's
stealth sweep and Fig 10's APT2) and names adversarial learning as
future work. This bench automates the probe: a cross-entropy search
over the bounded attacker space finds the empirical best response to a
fixed defender, and a robustness matrix compares defenders against the
nominal, aggressive, and discovered attackers.

Expected shape: the discovered attacker achieves at least the utility
of the nominal APT1 against the same defender (the search includes APT1
in its space), and rule-based defenders leak more utility to the best
response than to the nominal attacker.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import episodes_per_cell, write_result
from repro.adversarial import (
    AttackerParameterSpace,
    CrossEntropySearch,
    format_matrix,
    make_defender_fitness_vec,
    robustness_matrix,
)
from repro.attacker import apt1, apt2
from repro.config import small_network
from repro.dbn import fit_dbn
from repro.defenders import (
    NoopPolicy,
    PlaybookPolicy,
    ScheduledSweepPolicy,
    SemiRandomPolicy,
    ThresholdPolicy,
)

#: a faster clock makes six-month campaigns observable in short runs
_TIME_SCALE = 4.0
_MAX_STEPS = 600


def _config():
    cfg = small_network(tmax=_MAX_STEPS)
    return cfg.with_apt(replace(cfg.apt, time_scale=_TIME_SCALE))


def test_best_response_search(benchmark):
    episodes = episodes_per_cell(1)
    cfg = _config()
    defender = PlaybookPolicy()
    space = AttackerParameterSpace(base=cfg.apt)

    def run():
        fitness = make_defender_fitness_vec(
            cfg, defender, episodes=episodes, seed=3, max_steps=_MAX_STEPS
        )
        nominal_utility = float(fitness([cfg.apt])[0])
        search = CrossEntropySearch(space, fitness, population=6, seed=0)
        result = search.run(iterations=2, init_mean=space.encode(cfg.apt))
        return nominal_utility, result

    nominal_utility, result = benchmark.pedantic(run, rounds=1, iterations=1)
    best = result.best_config
    text = "\n".join([
        "Adversarial best response vs playbook "
        f"(small network, {episodes} ep/candidate, {result.evaluations} evals)",
        f"nominal APT1 utility:      {nominal_utility:.2f}",
        f"best-response utility:     {result.best_fitness:.2f}",
        "discovered attacker: "
        f"objective={best.objective} vector={best.vector} "
        f"lateral={best.lateral_threshold} plc={best.plc_threshold} "
        f"labor={best.labor_rate} cleanup={best.cleanup_effectiveness:.2f}",
    ])
    write_result("adversarial_best_response.txt", text)

    # the search space contains APT1, so the maximum over sampled
    # candidates cannot do meaningfully worse than the nominal attack
    assert result.best_fitness >= nominal_utility - 5.0


def test_robustness_matrix(benchmark):
    episodes = episodes_per_cell(2)
    cfg = _config()
    attackers = {
        "APT1": replace(apt1(), time_scale=_TIME_SCALE),
        "APT2": replace(apt2(), time_scale=_TIME_SCALE),
        "stealthy": replace(apt1(), cleanup_effectiveness=0.9, time_scale=_TIME_SCALE),
    }
    import repro

    tables = fit_dbn(
        lambda: repro.make_env(cfg),
        lambda: SemiRandomPolicy(rate=5.0),
        episodes=2,
        seed=9,
        max_steps=_MAX_STEPS,
    )
    defenders = {
        "Noop": NoopPolicy(),
        "Playbook": PlaybookPolicy(),
        "Semi Random": SemiRandomPolicy(seed=0),
        "Sweep": ScheduledSweepPolicy(period=24, batch=4),
        "Threshold": ThresholdPolicy(tables),
    }

    def run():
        return robustness_matrix(
            cfg, defenders, attackers, episodes=episodes, seed=0, max_steps=_MAX_STEPS
        )

    matrix = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        f"Robustness matrix ({episodes} episodes/cell, "
        f"{_MAX_STEPS}-step horizon)\n\n"
        "discounted return (defender payoff; higher = more robust)\n"
        + format_matrix(matrix, "discounted_return")
        + "\n\nfinal PLCs offline\n"
        + format_matrix(matrix, "final_plcs_offline")
        + "\n\navg nodes compromised / hour\n"
        + format_matrix(matrix, "avg_nodes_compromised")
    )
    write_result("adversarial_matrix.txt", text)

    for attacker_name in attackers:
        noop = matrix["Noop"][attacker_name].mean("avg_nodes_compromised")
        playbook = matrix["Playbook"][attacker_name].mean("avg_nodes_compromised")
        # an active defender must not tolerate more compromise than
        # no defense at all
        assert playbook <= noop + 1e-9, attacker_name
