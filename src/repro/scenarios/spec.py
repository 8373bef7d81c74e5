"""Frozen scenario specifications.

A :class:`ScenarioSpec` names everything needed to reconstruct an
experiment environment: network preset, attacker profile and
qualitative (objective, vector) pair, reward variant, horizon, and the
Fig 6 stealth knob. Specs are immutable and hashable, so a scenario id
is a complete, reproducible description of an environment — the same
role RLlib's registered env creators and OBP's named datasets play in
their pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.config import (
    APTConfig,
    RewardConfig,
    SimConfig,
    paper_network,
    small_network,
    tiny_network,
)

__all__ = [
    "ScenarioSpec",
    "NETWORK_PRESETS",
    "REWARD_VARIANTS",
    "ATTACKER_KINDS",
    "ATTACKER_PROFILES",
    "spec_for_config",
]

#: network preset name -> SimConfig constructor
NETWORK_PRESETS = {
    "tiny": tiny_network,
    "small": small_network,
    "paper": paper_network,
}

#: named reward parameterisations (eqs 1-4 with different trade-offs):
#: ``paper`` is the published objective; ``cost_sensitive`` triples the
#: IT-availability weight (defenders that over-respond score worse);
#: ``availability`` doubles the process-outage penalties (PLC uptime
#: dominates IT cost).
REWARD_VARIANTS: dict[str, RewardConfig] = {
    "paper": RewardConfig(),
    "cost_sensitive": RewardConfig(lambda_it=0.3),
    "availability": RewardConfig(disrupted_penalty=0.1, destroyed_penalty=0.2),
}

#: attacker construction strategies
ATTACKER_KINDS = ("fsm", "scripted")

#: quantitative FSM profiles: ``apt1`` keeps the preset's thresholds
#: (the nominal Section 3.2 attacker), ``apt2`` applies the aggressive
#: Section 5 overrides (lateral threshold 1, PLC thresholds 5/10).
ATTACKER_PROFILES = ("apt1", "apt2")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, reproducible experiment configuration.

    ``objective``/``vector`` fix the FSM attacker's qualitative pair
    (one of the four Fig 8 configurations); leaving both ``None`` draws
    the pair uniformly at each episode reset, the paper's training
    regime. ``horizon`` overrides the preset's ``tmax``;
    ``cleanup_effectiveness`` overrides the Fig 6 stealth knob.

    ``apt_overrides`` replaces arbitrary quantitative
    :class:`~repro.config.APTConfig` fields (thresholds, labor rate,
    time scale, ...) *after* the profile/objective/stealth steps — the
    bridge that lets any attacker configuration become a named,
    reproducible scenario.
    Accepts a mapping at construction; stored as a sorted tuple of
    ``(name, value)`` pairs so specs stay hashable.
    """

    scenario_id: str
    network: str = "paper"
    attacker: str = "fsm"
    profile: str = "apt1"
    objective: str | None = None
    vector: str | None = None
    reward_variant: str = "paper"
    horizon: int | None = None
    cleanup_effectiveness: float | None = None
    apt_overrides: tuple[tuple[str, object], ...] = ()
    description: str = ""
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            raise ValueError("scenario_id must be a non-empty string")
        if self.network not in NETWORK_PRESETS:
            raise ValueError(
                f"unknown network preset {self.network!r}; "
                f"choose from {sorted(NETWORK_PRESETS)}"
            )
        if self.attacker not in ATTACKER_KINDS:
            raise ValueError(
                f"unknown attacker kind {self.attacker!r}; "
                f"choose from {ATTACKER_KINDS}"
            )
        if self.profile not in ATTACKER_PROFILES:
            raise ValueError(
                f"unknown attacker profile {self.profile!r}; "
                f"choose from {ATTACKER_PROFILES}"
            )
        if (self.objective is None) != (self.vector is None):
            raise ValueError(
                "objective and vector must be fixed together or both "
                "left None (sampled each reset)"
            )
        if self.objective is not None and self.objective not in ("disrupt", "destroy"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.vector is not None and self.vector not in ("opc", "hmi"):
            raise ValueError(f"unknown vector {self.vector!r}")
        if self.reward_variant not in REWARD_VARIANTS:
            raise ValueError(
                f"unknown reward variant {self.reward_variant!r}; "
                f"choose from {sorted(REWARD_VARIANTS)}"
            )
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.cleanup_effectiveness is not None and not (
            0.0 <= self.cleanup_effectiveness <= 1.0
        ):
            raise ValueError("cleanup_effectiveness must be in [0, 1]")
        overrides = self.apt_overrides
        if isinstance(overrides, dict):
            overrides = tuple(sorted(overrides.items()))
        else:
            overrides = tuple(sorted((str(k), v) for k, v in overrides))
        apt_fields = {f.name for f in fields(APTConfig)}
        names = [name for name, _ in overrides]
        unknown = sorted(set(names) - apt_fields)
        if unknown:
            raise ValueError(f"unknown APTConfig fields in apt_overrides: {unknown}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names in apt_overrides")
        reserved = {"objective", "vector", "cleanup_effectiveness"} & set(names)
        if reserved:
            raise ValueError(
                f"set {sorted(reserved)} through the spec's own fields, "
                "not apt_overrides"
            )
        object.__setattr__(self, "apt_overrides", overrides)
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------------
    @property
    def sample_qualitative(self) -> bool:
        """Whether the FSM (objective, vector) pair is drawn per episode."""
        return self.objective is None

    def build_config(self) -> SimConfig:
        """Materialise the :class:`SimConfig` this spec describes."""
        config = NETWORK_PRESETS[self.network]()
        apt = config.apt
        if self.profile == "apt2":
            apt = replace(
                apt,
                lateral_threshold=1,
                hmi_threshold=1,
                plc_threshold_destroy=min(5, apt.plc_threshold_destroy),
                plc_threshold_disrupt=min(10, apt.plc_threshold_disrupt),
            )
        if self.objective is not None:
            apt = replace(apt, objective=self.objective, vector=self.vector)
        if self.cleanup_effectiveness is not None:
            apt = replace(apt, cleanup_effectiveness=self.cleanup_effectiveness)
        if self.apt_overrides:
            apt = replace(apt, **dict(self.apt_overrides))
        config = replace(
            config, apt=apt, reward=REWARD_VARIANTS[self.reward_variant]
        )
        if self.horizon is not None:
            config = config.with_tmax(self.horizon)
        return config

    def build_attacker(self, config: SimConfig):
        """Construct the attacker policy this spec names."""
        if self.attacker == "scripted":
            from repro.scenarios.scripted import BeachheadRushAttacker

            return BeachheadRushAttacker()
        from repro.attacker import FSMAttacker

        return FSMAttacker(config.apt, sample_qualitative=self.sample_qualitative)

    def build_env(self, seed: int | None = None,
                  config: SimConfig | None = None):
        """Construct a ready :class:`~repro.sim.env.InasimEnv`.

        ``config`` overrides :meth:`build_config` when the caller has
        already derived one (e.g. the CLI capping ``tmax``).
        """
        from repro.sim.env import InasimEnv

        if config is None:
            config = self.build_config()
        env = InasimEnv(config, self.build_attacker(config), seed=seed)
        env.scenario = self
        return env

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy with ``overrides`` applied (keeps the frozen contract)."""
        return replace(self, **overrides)


def spec_for_config(config: SimConfig, scenario_id: str,
                    **fields) -> ScenarioSpec:
    """Express a preset-derived :class:`SimConfig` as a :class:`ScenarioSpec`.

    The reverse bridge of :meth:`ScenarioSpec.build_config`: matches
    ``config.topology`` against the named network presets and
    ``config.reward`` against the reward variants, carries a non-preset
    ``tmax`` as ``horizon``, and expresses attacker deviations through
    ``cleanup_effectiveness`` / ``apt_overrides``. Raises ``ValueError``
    for configurations the catalogue cannot express (custom topologies
    or reward parameterisations). The attacker's qualitative
    (objective, vector) pair is left sampled-per-episode — matching
    ``repro.make_env`` defaults — *unless* the config deviates from the
    preset's pair, in which case the deviation is honoured by fixing
    the pair through the spec fields.
    """
    from repro.attacker.profiles import apt_diff

    network = next(
        (name for name, preset in NETWORK_PRESETS.items()
         if preset().topology == config.topology),
        None,
    )
    if network is None:
        raise ValueError(
            "config.topology matches no network preset; register a custom "
            "scenario (repro.register) instead of bridging the config"
        )
    reward_variant = next(
        (name for name, reward in REWARD_VARIANTS.items()
         if reward == config.reward),
        None,
    )
    if reward_variant is None:
        raise ValueError(
            "config.reward matches no reward variant; register a custom "
            "scenario (repro.register) instead of bridging the config"
        )
    preset = NETWORK_PRESETS[network]()
    overrides = apt_diff(config.apt, preset.apt)
    overrides.pop("objective", None)
    overrides.pop("vector", None)
    cleanup = overrides.pop("cleanup_effectiveness", None)
    # a pair that deviates from the preset was chosen deliberately; pin
    # it (both fields: the spec requires them fixed together)
    pair_deviates = (config.apt.objective != preset.apt.objective
                     or config.apt.vector != preset.apt.vector)
    spec_fields = dict(
        network=network,
        reward_variant=reward_variant,
        objective=config.apt.objective if pair_deviates else None,
        vector=config.apt.vector if pair_deviates else None,
        horizon=None if config.tmax == preset.tmax else config.tmax,
        cleanup_effectiveness=cleanup,
        apt_overrides=overrides,
    )
    spec_fields.update(fields)
    return ScenarioSpec(scenario_id, **spec_fields)
