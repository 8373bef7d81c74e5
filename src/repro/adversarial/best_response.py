"""Empirical attacker best response via cross-entropy-method search.

Against a *fixed* defender, the most damaging attacker in the bounded
space of :class:`~repro.adversarial.space.AttackerParameterSpace` is an
empirical best response; its achieved utility is an exploitability
estimate for that defender. The paper probes this by hand with two
fixed perturbations (Fig 6's stealth sweep, Fig 10's APT2); the CEM
search automates the probe over the whole behaviour space.

The optimizer is deliberately simple and derivative-free (the fitness
is a stochastic episode rollout): maintain a Gaussian over the unit
box, sample candidates, evaluate, refit to the elite fraction, repeat.
A noise floor on the standard deviation prevents premature collapse.

The search scores a whole generation in one call.
:func:`make_defender_fitness_vec` builds that call for a fixed defender:
it fans the candidates over the lanes of a vector environment
(``repro.make_vec_from_specs``, on the engine it picks for the lane
count), one candidate per lane. For deterministic defenders each lane's
utility equals a one-candidate evaluation through ``repro.make`` — the
fan-out is a wall-clock optimization, not a different experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

import repro
from repro.adversarial.space import (
    AttackerParameterSpace,
    as_base_spec,
    scenario_for_attacker,
)
from repro.config import APTConfig
from repro.eval.runner import evaluate_policy_per_lane
from repro.utils.rng import ensure_rng

__all__ = [
    "attack_utility",
    "make_defender_fitness_vec",
    "evaluate_attackers_vec",
    "CrossEntropySearch",
    "BestResponseResult",
]


def attack_utility(aggregate) -> float:
    """Scalar attacker payoff from a defender evaluation aggregate.

    The game is zero-sum on the defender's objective, so the attacker
    maximizes the negative mean discounted return. Returns are anchored
    near the ~2,200 no-attack ceiling (Section 4.1), so utilities are
    large negative numbers that grow toward zero as attacks succeed.
    """
    return -aggregate.mean("discounted_return")


def evaluate_attackers_vec(
    scenario,
    attackers: Sequence[APTConfig],
    defender,
    episodes: int = 2,
    seed: int = 0,
    max_steps: int | None = None,
):
    """Score a batch of attacker configs in one vectorized pass.

    Lane ``i`` runs ``attackers[i]`` bridged onto ``scenario``; every
    lane evaluates ``episodes`` seeded episodes of ``defender``
    (:func:`~repro.eval.runner.evaluate_policy_per_lane`). Returns the
    per-attacker ``(aggregate, per-episode metrics)`` list.
    """
    base = as_base_spec(scenario)
    specs = [
        scenario_for_attacker(base, apt, f"{base.scenario_id}#candidate-{i}")
        for i, apt in enumerate(attackers)
    ]
    venv = repro.make_vec_from_specs(specs, seed=seed)
    with venv:
        return evaluate_policy_per_lane(venv, defender, episodes, seed=seed,
                                        max_steps=max_steps)


def make_defender_fitness_vec(
    scenario,
    defender,
    episodes: int = 2,
    seed: int = 0,
    max_steps: int | None = None,
) -> Callable[[Sequence[APTConfig]], np.ndarray]:
    """Build the fixed-defender fitness: list[APTConfig] -> utilities.

    ``scenario`` is a registered id, a :class:`ScenarioSpec`, or a
    preset-derived :class:`~repro.config.SimConfig`. Each candidate is
    bridged onto that base
    (:func:`~repro.adversarial.space.scenario_for_attacker`), so it is a
    named, reconstructible scenario, not an ad-hoc wiring; every lane
    runs ``episodes`` seeded evaluations of the fixed defender. Feed it
    to :class:`CrossEntropySearch` and every CEM generation is one
    fan-out over a vector environment (one candidate per lane).
    """

    def batch_fitness(attackers: Sequence[APTConfig]) -> np.ndarray:
        per_lane = evaluate_attackers_vec(
            scenario, attackers, defender, episodes=episodes, seed=seed,
            max_steps=max_steps,
        )
        return np.array([attack_utility(agg) for agg, _ in per_lane])

    return batch_fitness


@dataclass
class BestResponseResult:
    """Outcome of one CEM best-response search."""

    best_config: APTConfig
    best_fitness: float
    #: per-iteration (mean fitness, elite-mean fitness, best-so-far)
    history: list[tuple[float, float, float]] = field(default_factory=list)
    evaluations: int = 0


class CrossEntropySearch:
    """Cross-entropy method over the attacker parameter space.

    ``fitness`` maps a generation's ``K`` :class:`APTConfig` candidates
    to a ``(K,)`` array of payoffs to *maximize*; use
    :func:`make_defender_fitness_vec` for the standard fixed-defender
    exploitability probe, or inject a synthetic function for testing.
    """

    def __init__(
        self,
        space: AttackerParameterSpace,
        fitness: Callable[[Sequence[APTConfig]], np.ndarray],
        population: int = 12,
        elite_frac: float = 0.25,
        init_std: float = 0.3,
        min_std: float = 0.05,
        seed: int = 0,
    ):
        if population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 < elite_frac <= 1.0:
            raise ValueError("elite_frac must be in (0, 1]")
        self.space = space
        self.fitness = fitness
        self.population = population
        self.n_elite = max(1, int(round(elite_frac * population)))
        self.init_std = init_std
        self.min_std = min_std
        self.rng = ensure_rng(seed)

    def _evaluate(self, candidates: np.ndarray) -> np.ndarray:
        configs = [self.space.decode(c) for c in candidates]
        fits = np.asarray(self.fitness(configs), dtype=float)
        if fits.shape != (len(configs),):
            raise ValueError(
                f"fitness returned shape {fits.shape}, expected "
                f"({len(configs)},)"
            )
        return fits

    def run(self, iterations: int = 5,
            init_mean: np.ndarray | None = None) -> BestResponseResult:
        dim = self.space.dim
        mean = (np.full(dim, 0.5) if init_mean is None
                else self.space.clip(init_mean))
        std = np.full(dim, self.init_std)
        best_vec = mean.copy()
        best_fit = -np.inf
        history: list[tuple[float, float, float]] = []
        evaluations = 0

        for _ in range(iterations):
            candidates = self.space.clip(
                mean + std * self.rng.standard_normal((self.population, dim))
            )
            fits = self._evaluate(candidates)
            evaluations += self.population
            order = np.argsort(fits)[::-1]
            elite = candidates[order[: self.n_elite]]
            if fits[order[0]] > best_fit:
                best_fit = float(fits[order[0]])
                best_vec = candidates[order[0]].copy()
            mean = elite.mean(axis=0)
            std = np.maximum(elite.std(axis=0), self.min_std)
            history.append(
                (float(fits.mean()), float(fits[order[: self.n_elite]].mean()),
                 best_fit)
            )

        return BestResponseResult(
            best_config=self.space.decode(best_vec),
            best_fitness=best_fit,
            history=history,
            evaluations=evaluations,
        )
