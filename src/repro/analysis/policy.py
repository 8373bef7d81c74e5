"""Per-package policy: which rules police which files, with what knobs.

The default policy encodes the repo's actual contracts:

* ``rng-discipline`` has jurisdiction over the simulation core and
  everything that behaves inside it (``sim/``, ``attacker/``,
  ``defenders/``, ``adversarial/``) -- randomness there must flow in as
  a ``numpy.random.Generator`` parameter, and ``utils/rng.py`` is the
  only sanctioned generator factory;
* ``forbidden-imports`` bans pickle/dill from the columnar OPE trace
  store, and every layer above the simulation core (serve, eval, rl,
  dbn, validation, defenders, adversarial) from ``repro.sim``.

A JSON policy file (``repro check --policy FILE``) deep-merges over the
defaults: per rule, ``enabled``, ``include``, ``exclude``, and
``options`` may be overridden. Tests use the same mechanism to point
checkers at fixture trees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import AnalysisError

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
    "baseline-unused": (
        "a baseline entry no longer matches any finding: delete it"
    ),
    "baseline-parked": (
        "a baseline entry still carries the 'baseline-parked' machine "
        "tag (or a TODO placeholder) instead of a real justification: "
        "edit it"
    ),
}


@dataclass(frozen=True)
class RuleConfig:
    """Jurisdiction + knobs for one rule."""

    enabled: bool = True
    include: tuple[str, ...] = ("**",)
    exclude: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)

    def merged(self, override: dict) -> "RuleConfig":
        unknown = set(override) - {"enabled", "include", "exclude", "options"}
        if unknown:
            raise AnalysisError(
                f"unknown rule-config keys {sorted(unknown)} "
                "(expected enabled/include/exclude/options)"
            )
        options = dict(self.options)
        options.update(override.get("options", {}))
        return RuleConfig(
            enabled=override.get("enabled", self.enabled),
            include=tuple(override.get("include", self.include)),
            exclude=tuple(override.get("exclude", self.exclude)),
            options=options,
        )


_RNG_JURISDICTION = (
    "sim/**",
    "attacker/**",
    "defenders/**",
    "adversarial/**",
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
    "forbidden-imports": RuleConfig(
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
                               "repro.defenders", "repro.adversarial"],
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
    """The resolved rule set the runner hands to each checker."""

    def __init__(self, rules: dict[str, RuleConfig]):
        self.rules = dict(rules)

    @classmethod
    def default(cls) -> "Policy":
        return cls(dict(_DEFAULT_RULES))

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        """The default policy with a JSON override file deep-merged in."""
        try:
            overrides = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AnalysisError(f"cannot load policy {path}: {exc}") from exc
        return cls.default().merge(overrides)

    def merge(self, overrides: dict) -> "Policy":
        if not isinstance(overrides, dict) or "rules" not in overrides:
            raise AnalysisError('a policy file must be {"rules": {...}}')
        rules = dict(self.rules)
        for rule_id, override in overrides["rules"].items():
            base = rules.get(rule_id)
            if base is None:
                raise AnalysisError(
                    f"policy overrides unknown rule {rule_id!r} "
                    f"(known: {', '.join(sorted(rules))})"
                )
            rules[rule_id] = base.merged(override)
        return Policy(rules)

    def rule(self, rule_id: str) -> RuleConfig:
        return self.rules[rule_id]

    def enabled(self, rule_id: str) -> bool:
        config = self.rules.get(rule_id)
        return config is not None and config.enabled

    def jurisdiction(self, project, rule_id: str) -> list[str]:
        """The project files a rule has authority over."""
        config = self.rules[rule_id]
        return project.select(config.include, config.exclude)
