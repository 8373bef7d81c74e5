"""The rule table: which rules police which files, with what knobs.

The default policy encodes the repo's actual contracts:

* ``rng-discipline`` has jurisdiction over the simulation core and
  everything that behaves inside it (``sim/``, ``attacker/``,
  ``defenders/``) -- randomness there must flow in as a
  ``numpy.random.Generator`` parameter, and ``utils/rng.py`` is the
  only sanctioned generator factory;
* ``forbidden-import`` bans pickle/dill from the columnar OPE trace
  store, and every layer above the simulation core (serve, eval, rl,
  dbn, validation, defenders) from ``repro.sim``.

The table is keyed by the rule ids that findings carry; the one way to
accept a finding is an inline ``# repro: allow[rule] -- why``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RuleConfig", "Policy", "RULE_CATALOG"]

#: rule id -> one-line description (the ``--list-rules`` catalog)
RULE_CATALOG = {
    "rng-global-state": (
        "module-state RNG call (random.*/np.random.*) in deterministic "
        "code: the draw bypasses the injected per-component Generator"
    ),
    "rng-wall-clock": (
        "wall-clock/OS entropy (time.time, uuid, os.urandom, secrets) "
        "in deterministic code: replays cannot reproduce the value"
    ),
    "rng-unsanctioned-factory": (
        "np.random.default_rng()/RandomState() constructed outside the "
        "sanctioned factory module: accept a Generator parameter or use "
        "repro.utils.rng.ensure_rng/RngFactory"
    ),
    "forbidden-import": (
        "an import banned by policy (pickle/dill in the trace store; "
        "an upper layer such as repro.serve or repro.rl from repro.sim)"
    ),
    "suppression-syntax": (
        "malformed inline suppression: '# repro: allow[rule]' requires "
        "a '-- justification' clause"
    ),
}


@dataclass(frozen=True)
class RuleConfig:
    """Jurisdiction + knobs for one rule."""

    include: tuple[str, ...] = ("**",)
    options: dict = field(default_factory=dict)


_RNG_JURISDICTION = (
    "sim/**",
    "attacker/**",
    "defenders/**",
)

#: np.random attributes that are types/factories, not module RNG state
_NP_RANDOM_SANCTIONED = (
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "default_rng",
)

_DEFAULT_RULES: dict[str, RuleConfig] = {
    "rng-global-state": RuleConfig(
        include=_RNG_JURISDICTION,
        options={"np_sanctioned": list(_NP_RANDOM_SANCTIONED)},
    ),
    "rng-wall-clock": RuleConfig(include=_RNG_JURISDICTION),
    "rng-unsanctioned-factory": RuleConfig(
        include=_RNG_JURISDICTION,
        options={"sanctioned_modules": ["utils/rng.py"]},
    ),
    "forbidden-import": RuleConfig(
        options={
            "bans": [
                {
                    "modules": [
                        "validation/tracestore.py",
                        "validation/datasets.py",
                    ],
                    "banned": ["pickle", "dill", "cloudpickle", "marshal",
                               "shelve"],
                    "reason": (
                        "the trace store is a pickle-free columnar "
                        "format: traces must be safe to read from any "
                        "producer and portable across python versions"
                    ),
                },
                {
                    "modules": ["sim/**"],
                    "banned": ["repro.serve", "repro.eval", "repro.rl",
                               "repro.dbn", "repro.validation",
                               "repro.defenders"],
                    "reason": (
                        "layering: the simulation core and its episode "
                        "driver are the bottom layer; the agent, "
                        "evaluation and serving layers build on them"
                    ),
                },
            ],
        },
    ),
}


class Policy:
    """The rule table the runner hands to each checker."""

    def __init__(self, rules: dict[str, RuleConfig]):
        self.rules = dict(rules)

    @classmethod
    def default(cls) -> "Policy":
        return cls(dict(_DEFAULT_RULES))

    def rule(self, rule_id: str) -> RuleConfig:
        return self.rules[rule_id]

    def jurisdiction(self, project, rule_id: str) -> list[str]:
        """The project files a rule has authority over."""
        return project.select(self.rules[rule_id].include)
