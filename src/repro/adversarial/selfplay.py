"""Population-based adversarial training (double-oracle style).

The loop alternates two oracles, both running on the vectorized
scenario infrastructure:

1. **Defender oracle** -- continue DQN training against the current
   attacker population. The population is fanned over the lanes of a
   ``repro.make_vec_from_specs`` vector environment (one sampled
   attacker per lane, on the engine it picks for the lane count), so
   what used to be a round-robin of sequential episodes is one lockstep
   collection pass.
2. **Attacker oracle** -- a CEM best-response search against the frozen
   defender. Each CEM generation is evaluated as a batched fan-out over
   a vector environment (one candidate per lane,
   :func:`~repro.adversarial.best_response.make_defender_fitness_vec`).

Every best response that joins the population is bridged to a frozen
:class:`~repro.scenarios.spec.ScenarioSpec` (ids like
``selfplay/inasim-small-v1-r3-br1``, tagged ``selfplay`` +
``adversarial``) and registered, so ``repro.make(id)`` rebuilds the
exact environment the search evaluated; :func:`save_population` /
:func:`load_population` persist a whole population (specs + weights +
round records) as JSON through :mod:`repro.scenarios.serialization`.

The gap between the defender's value against its training population
and against the fresh best response is an empirical exploitability
estimate: it shrinking over rounds is the signal that the defender is
becoming robust to attacker adaptation -- the property the paper
measures one-shot with APT2 (Fig 10) and names as future work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.adversarial.best_response import (
    BestResponseResult,
    CrossEntropySearch,
    attack_utility,
    make_defender_fitness_vec,
)
from repro.adversarial.space import (
    AttackerParameterSpace,
    as_base_spec,
    scenario_for_attacker,
)
from repro.config import APTConfig
from repro.eval.runner import evaluate_policy, evaluate_policy_per_lane
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import ensure_rng

__all__ = [
    "AttackerPopulation",
    "SelfPlayConfig",
    "SelfPlayRound",
    "SelfPlayLoop",
    "save_population",
    "load_population",
]

POPULATION_FORMAT = "selfplay-population-v1"


class AttackerPopulation:
    """A weighted set of attacker members.

    Members are :class:`~repro.scenarios.spec.ScenarioSpec` instances
    in the self-play loop (named, reconstructible attacker behaviours);
    the container itself is agnostic and also accepts raw
    :class:`~repro.config.APTConfig` members for ad-hoc use.
    """

    def __init__(self, members: list, weights=None):
        if not members:
            raise ValueError("population cannot be empty")
        self.members = list(members)
        if weights is None:
            weights = np.ones(len(self.members))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(self.members),):
            raise ValueError("weights must match members")
        if (self.weights < 0).any() or self.weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def add(self, member, weight: float = 1.0) -> None:
        self.members.append(member)
        self.weights = np.append(self.weights, weight)

    def sample(self, rng: np.random.Generator):
        index = rng.choice(len(self.members), p=self.probabilities)
        return self.members[int(index)]


@dataclass
class SelfPlayConfig:
    rounds: int = 3
    #: defender-oracle training episodes per round; the oracle opens a
    #: vector environment with one lane per episode, each lane running
    #: a population-sampled attacker
    train_episodes: int = 4
    train_max_steps: int | None = None
    #: CEM budget for the attacker oracle
    cem_iterations: int = 3
    cem_population: int = 8
    #: episodes per fitness evaluation inside the CEM
    fitness_episodes: int = 2
    #: episodes for the exploitability bookkeeping
    eval_episodes: int = 2
    eval_max_steps: int | None = None
    seed: int = 0
    #: name used in emitted scenario ids ``selfplay/<run_name>-rN-brK``
    #: (default: the base scenario id); vary it to keep several runs'
    #: emissions side by side in the registry
    run_name: str | None = None


@dataclass
class SelfPlayRound:
    """Bookkeeping for one defender/attacker oracle round."""

    round_index: int
    #: attacker utility of the best response found this round
    best_response_utility: float
    #: attacker utility of the (pre-expansion) population mixture
    population_utility: float
    #: exploitability estimate: best response minus population utility
    exploitability: float
    best_response: APTConfig
    #: registry id of the emitted best-response scenario
    best_response_id: str | None = None
    best_response_spec: ScenarioSpec | None = None
    #: seed the winning fitness evaluation ran with (replaying
    #: ``repro.make(best_response_id)`` with it reproduces
    #: ``best_response_utility``)
    fitness_seed: int = 0
    #: utility re-measured from the *registered* scenario id against the
    #: round's frozen defender, before the next round trains it; equals
    #: ``best_response_utility`` when the emitted spec reconstructs the
    #: searched behaviour exactly
    verified_utility: float | None = None
    search: BestResponseResult = field(repr=False, default=None)


class SelfPlayLoop:
    """Alternating defender training and attacker best response.

    ``scenario`` is a registered scenario id, a
    :class:`~repro.scenarios.spec.ScenarioSpec`, or a preset-derived
    :class:`~repro.config.SimConfig`; everything the loop builds
    resolves through ``repro.make`` / ``repro.make_vec_from_specs``.
    ``trainer`` is a :class:`~repro.rl.dqn.DQNTrainer` (or API-equal
    object with ``set_env`` / ``train``) bound to the scenario's
    topology; ``defender_policy`` is the frozen-greedy view of the same
    Q-network used for fitness evaluations. With ``register_responses``
    (the default) every best response is registered under the
    ``selfplay/`` namespace (existing ids from earlier runs with the
    same ``run_name`` are overwritten — the loop owns that namespace).
    """

    def __init__(
        self,
        scenario,
        trainer,
        defender_policy,
        space: AttackerParameterSpace | None = None,
        selfplay: SelfPlayConfig | None = None,
        initial_population: AttackerPopulation | None = None,
        register_responses: bool = True,
    ):
        self.base_spec = as_base_spec(scenario)
        self.config = self.base_spec.build_config()
        self.trainer = trainer
        self.defender_policy = defender_policy
        self.space = space or AttackerParameterSpace(base=self.config.apt)
        self.selfplay = selfplay or SelfPlayConfig()
        self.register_responses = register_responses
        self.run_name = self.selfplay.run_name or self.base_spec.scenario_id
        if initial_population is None:
            initial_population = AttackerPopulation([
                scenario_for_attacker(
                    self.base_spec, self.config.apt,
                    f"selfplay/{self.run_name}-base",
                    description="Self-play base attacker "
                                f"(nominal {self.base_spec.scenario_id}).",
                    tags=("selfplay", "adversarial"),
                )
            ])
        else:
            initial_population = AttackerPopulation(
                [self._coerce_member(m, i)
                 for i, m in enumerate(initial_population.members)],
                initial_population.weights,
            )
        self.population = initial_population
        self.rng = ensure_rng(self.selfplay.seed)
        self.rounds: list[SelfPlayRound] = []

    # ------------------------------------------------------------------
    def _coerce_member(self, member, index: int) -> ScenarioSpec:
        """Bridge raw APTConfig members onto the base scenario."""
        if isinstance(member, APTConfig):
            return scenario_for_attacker(
                self.base_spec, member,
                f"selfplay/{self.run_name}-init{index}",
                tags=("selfplay", "adversarial"),
            )
        return as_base_spec(member)

    def _train_defender(self, seed: int) -> None:
        """Defender oracle: one vectorized pass over population lanes.

        ``train_episodes`` attackers are drawn from the population
        mixture and assigned one per lane; episode ``i`` of the
        training run collects from lane ``i``'s attacker.
        """
        sp = self.selfplay
        sampled = [self.population.sample(self.rng)
                   for _ in range(sp.train_episodes)]
        venv = repro.make_vec_from_specs(sampled, seed=seed)
        try:
            self.trainer.set_env(venv)
            self.trainer.train(sp.train_episodes, seed=seed,
                               max_steps=sp.train_max_steps)
        finally:
            venv.close()

    def _population_utility(self, seed: int) -> float:
        """Mixture-weighted attacker utility against the defender.

        One lane per population member; every lane runs the same
        seeded evaluation episodes against its own clone of the frozen
        defender.
        """
        sp = self.selfplay
        venv = repro.make_vec_from_specs(list(self.population.members),
                                         seed=seed)
        with venv:
            per_lane = evaluate_policy_per_lane(
                venv, self.defender_policy, sp.eval_episodes, seed=seed,
                max_steps=sp.eval_max_steps,
            )
        return float(sum(
            prob * attack_utility(agg)
            for prob, (agg, _) in zip(self.population.probabilities, per_lane)
        ))

    def _best_response(self, seed: int) -> BestResponseResult:
        sp = self.selfplay
        fitness = make_defender_fitness_vec(
            self.base_spec, self.defender_policy,
            episodes=sp.fitness_episodes, seed=seed,
            max_steps=sp.eval_max_steps,
        )
        search = CrossEntropySearch(
            self.space, fitness, population=sp.cem_population, seed=seed,
        )
        # warm-start the Gaussian at the current nominal attacker
        return search.run(
            iterations=sp.cem_iterations,
            init_mean=self.space.encode(self.config.apt),
        )

    def _emit_best_response(self, apt: APTConfig, round_index: int,
                            utility: float) -> ScenarioSpec:
        """Freeze a best response as a tagged, registered scenario."""
        scenario_id = f"selfplay/{self.run_name}-r{round_index + 1}-br1"
        spec = scenario_for_attacker(
            self.base_spec, apt, scenario_id,
            description=(
                f"Self-play best response, round {round_index + 1} vs "
                f"{self.base_spec.scenario_id} (attacker utility "
                f"{utility:.2f})."
            ),
            tags=("selfplay", "adversarial"),
        )
        if self.register_responses:
            repro.register(spec, overwrite=True)
        return spec

    # ------------------------------------------------------------------
    def run(self) -> list[SelfPlayRound]:
        sp = self.selfplay
        for _ in range(sp.rounds):
            self.run_round()
        return self.rounds

    def run_round(self) -> SelfPlayRound:
        """One defender-oracle + attacker-oracle round."""
        sp = self.selfplay
        round_index = len(self.rounds)
        seed = sp.seed + 1000 * round_index
        self._train_defender(seed)
        population_utility = self._population_utility(seed + 500)
        search = self._best_response(seed + 700)
        spec = self._emit_best_response(
            search.best_config, round_index, search.best_fitness
        )
        record = SelfPlayRound(
            round_index=round_index,
            best_response_utility=search.best_fitness,
            population_utility=population_utility,
            exploitability=search.best_fitness - population_utility,
            best_response=search.best_config,
            best_response_id=spec.scenario_id,
            best_response_spec=spec,
            fitness_seed=seed + 700,
            search=search,
        )
        # verify now, against this round's frozen defender — the next
        # round's defender oracle will train the shared Q-network, after
        # which the winning evaluation is no longer replayable
        record.verified_utility = self.verify_best_response(record)
        self.rounds.append(record)
        self.population.add(spec)
        return record

    # ------------------------------------------------------------------
    def verify_best_response(self, record: SelfPlayRound) -> float:
        """Re-evaluate a round's best response from its registry id.

        Rebuilds the environment with ``repro.make`` (by id when the
        spec was registered) and replays the winning fitness
        evaluation; for deterministic defenders the returned utility
        equals ``record.best_response_utility`` exactly — the proof
        that the emitted scenario reconstructs the searched behaviour.
        :meth:`run_round` calls this automatically (stored as
        ``record.verified_utility``) because the comparison is only
        meaningful against the round's frozen defender: once a later
        round trains the shared Q-network, replays use the drifted
        defender and the utilities legitimately diverge.
        """
        sp = self.selfplay
        scenario = (record.best_response_id if self.register_responses
                    else record.best_response_spec)
        env = repro.make(scenario)
        aggregate, _ = evaluate_policy(
            env, self.defender_policy, sp.fitness_episodes,
            seed=record.fitness_seed, max_steps=sp.eval_max_steps,
        )
        return attack_utility(aggregate)

    def save(self, path) -> None:
        """Persist the population (+ round records) as JSON."""
        save_population(path, self.population, base=self.base_spec,
                        rounds=self.rounds)


# ----------------------------------------------------------------------
# population persistence (registry-compatible JSON)
# ----------------------------------------------------------------------
def save_population(path, population: AttackerPopulation, *,
                    base: ScenarioSpec | None = None, rounds=()) -> None:
    """Write a spec-membered population to ``path`` as JSON.

    Members are stored with :func:`repro.scenarios.spec_to_dict`, so
    :func:`load_population` can re-register every attacker and
    ``repro.make(id)`` reconstructs it on any machine.
    """
    from repro.scenarios.serialization import spec_to_dict

    members = []
    for member, weight in zip(population.members, population.weights):
        if not isinstance(member, ScenarioSpec):
            raise TypeError(
                "save_population needs ScenarioSpec members; bridge raw "
                "APTConfigs with scenario_for_attacker first"
            )
        members.append({"spec": spec_to_dict(member), "weight": float(weight)})
    payload = {
        "format": POPULATION_FORMAT,
        "base": None if base is None else spec_to_dict(base),
        "members": members,
        "rounds": [
            {
                "round_index": r.round_index,
                "best_response_utility": r.best_response_utility,
                "population_utility": r.population_utility,
                "exploitability": r.exploitability,
                "best_response_id": r.best_response_id,
                "fitness_seed": r.fitness_seed,
            }
            for r in rounds
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_population(path, *, register: bool = True,
                    overwrite: bool = True) -> AttackerPopulation:
    """Load a persisted population; optionally re-register its members.

    With ``register`` (the default) every member spec re-enters the
    global registry — overwriting same-id entries, which is the point
    of reloading a run — so ``repro.make(<member id>)`` works
    immediately and evaluations of the loaded population are
    bit-identical to the run that saved it.
    """
    from repro.scenarios.registry import REGISTRY
    from repro.scenarios.serialization import spec_from_dict

    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != POPULATION_FORMAT:
        raise ValueError(
            f"{path} is not a self-play population file "
            f"(format={payload.get('format')!r})"
        )
    specs = [spec_from_dict(entry["spec"]) for entry in payload["members"]]
    weights = [float(entry["weight"]) for entry in payload["members"]]
    if register:
        for spec in specs:
            REGISTRY.register(spec, overwrite=overwrite)
    return AttackerPopulation(specs, weights)
