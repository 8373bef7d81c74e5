"""Adversarial attacker search and self-play training.

The paper's conclusion names adversarial learning as the priority for
future work: "focus should be placed on adversarial learning methods
that can discover and obviate new attacks before they are observed in
the real-world" (Section 7). This package implements that programme on
top of the INASIM substrate:

* :mod:`repro.adversarial.space` -- a bounded parameter space over APT
  behaviour (thresholds, labor, stealth, objective, vector) with an
  encode/decode map to the unit box, making attacker behaviour
  searchable.
* :mod:`repro.adversarial.best_response` -- cross-entropy-method search
  for the attacker parameters that most hurt a *fixed* defender: an
  empirical best response, and the exploitability probe the paper's
  fixed-perturbation experiments (Fig 6 / Fig 10) approximate by hand.
* :mod:`repro.adversarial.selfplay` -- a double-oracle-style loop that
  alternates defender training against an attacker population with
  best-response expansion of that population.
* :mod:`repro.adversarial.matrix` -- the defender x attacker robustness
  matrix, generalizing the paper's APT1/APT2 comparison (Fig 10) to
  arbitrary attacker sets.
"""

from repro.adversarial.space import (
    AttackerParameterSpace,
    ParameterSpec,
    as_base_spec,
    scenario_for_attacker,
)
from repro.adversarial.best_response import (
    BestResponseResult,
    CrossEntropySearch,
    attack_utility,
    evaluate_attackers_vec,
    make_defender_fitness_vec,
)
from repro.adversarial.selfplay import (
    AttackerPopulation,
    SelfPlayConfig,
    SelfPlayLoop,
    SelfPlayRound,
    load_population,
    save_population,
)
from repro.adversarial.matrix import format_matrix, robustness_matrix

__all__ = [
    "AttackerParameterSpace",
    "ParameterSpec",
    "as_base_spec",
    "scenario_for_attacker",
    "BestResponseResult",
    "CrossEntropySearch",
    "attack_utility",
    "evaluate_attackers_vec",
    "make_defender_fitness_vec",
    "AttackerPopulation",
    "SelfPlayConfig",
    "SelfPlayLoop",
    "SelfPlayRound",
    "save_population",
    "load_population",
    "format_matrix",
    "robustness_matrix",
]
