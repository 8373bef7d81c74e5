"""Global scenario registry: named construction of environments.

``make("inasim-paper-v1")`` replaces hand-wiring a config, attacker,
and environment in every consumer. User code extends the catalogue with
:func:`register`; experiment sweeps discover it with
:func:`list_scenarios`.

:func:`make_vec` / :func:`make_vec_from_specs` build lockstep vector
envs; :func:`~repro.sim.vec_env.lockstep_env` picks their engine by
lane count unless the caller names one.
"""

from __future__ import annotations

import difflib
from typing import Iterable

from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ScenarioRegistry",
    "REGISTRY",
    "register",
    "get_scenario",
    "list_scenarios",
    "make",
    "make_vec",
    "make_vec_from_specs",
]


class ScenarioRegistry:
    """An id -> :class:`ScenarioSpec` map with duplicate protection."""

    def __init__(self) -> None:
        self._specs: dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"expected ScenarioSpec, got {type(spec).__name__}")
        if spec.scenario_id in self._specs and not overwrite:
            raise ValueError(
                f"scenario {spec.scenario_id!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._specs[spec.scenario_id] = spec
        return spec

    def unregister(self, scenario_id: str) -> None:
        self._specs.pop(scenario_id, None)

    def get(self, scenario_id: str) -> ScenarioSpec:
        try:
            return self._specs[scenario_id]
        except KeyError:
            close = difflib.get_close_matches(
                scenario_id, self._specs, n=3, cutoff=0.4
            )
            hint = f"; did you mean {close}?" if close else ""
            raise KeyError(
                f"unknown scenario {scenario_id!r}{hint} "
                "(repro.list_scenarios() shows the catalogue)"
            ) from None

    def list(self, tag: str | None = None) -> list[ScenarioSpec]:
        specs = sorted(self._specs.values(), key=lambda s: s.scenario_id)
        if tag is None:
            return specs
        return [s for s in specs if tag in s.tags]

    def ids(self, tag: str | None = None) -> list[str]:
        return [s.scenario_id for s in self.list(tag)]

    def __contains__(self, scenario_id: str) -> bool:
        return scenario_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterable[ScenarioSpec]:
        return iter(self.list())


#: the process-wide catalogue (built-ins load on package import)
REGISTRY = ScenarioRegistry()


def register(spec: ScenarioSpec | None = None, *, overwrite: bool = False,
             **fields) -> ScenarioSpec:
    """Register a scenario, given a spec or its fields.

    ``register(ScenarioSpec(...))`` and
    ``register(scenario_id="my-scn", network="small", ...)`` are both
    accepted; duplicate ids raise unless ``overwrite=True``.
    """
    if spec is None:
        spec = ScenarioSpec(**fields)
    elif fields:
        raise TypeError("pass either a ScenarioSpec or fields, not both")
    return REGISTRY.register(spec, overwrite=overwrite)


def get_scenario(scenario_id: str) -> ScenarioSpec:
    """Look up a registered :class:`ScenarioSpec` by id."""
    return REGISTRY.get(scenario_id)


def list_scenarios(tag: str | None = None) -> list[ScenarioSpec]:
    """All registered scenarios (optionally filtered by tag), sorted by id."""
    return REGISTRY.list(tag)


def _resolve(scenario: str | ScenarioSpec, overrides: dict) -> ScenarioSpec:
    spec = REGISTRY.get(scenario) if isinstance(scenario, str) else scenario
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


def make(scenario: str | ScenarioSpec, *, seed: int | None = None,
         **overrides):
    """Build an :class:`~repro.sim.env.InasimEnv` from a scenario.

    ``scenario`` is a registered id or an (unregistered) spec;
    ``overrides`` replace spec fields for this construction only, e.g.
    ``make("inasim-paper-v1", horizon=500)``.
    """
    return _resolve(scenario, overrides).build_env(seed=seed)


def make_vec(scenario: str | ScenarioSpec, num_envs: int, *,
             seed: int | None = None, auto_reset: bool = True,
             backend: str | None = None, **overrides):
    """Build a lockstep vector environment of ``num_envs`` independent
    copies of a scenario, seeded ``seed + i`` per lane.

    ``backend`` names the execution engine behind the identical
    lockstep API (trajectories do not depend on it). ``None``, the
    default the CLI and the evaluation service take, lets
    :func:`~repro.sim.vec_env.lockstep_env` pick by lane count: the
    sync :class:`~repro.sim.vec_env.VectorEnv` (the parity
    oracle) for one lane, the structure-of-arrays
    :class:`~repro.sim.batched_engine.BatchedVectorEnv` for more.
    ``"sync"`` or ``"batched"`` forces one; any other name raises
    :class:`ValueError`.

    This is :func:`make_vec_from_specs` over ``num_envs`` copies of the
    scenario.
    """
    if num_envs < 1:
        raise ValueError("num_envs must be >= 1")
    return make_vec_from_specs(
        [_resolve(scenario, overrides)] * num_envs, seed=seed,
        auto_reset=auto_reset, backend=backend,
    )


def make_vec_from_specs(specs, *, seed: int | None = None,
                        auto_reset: bool = True,
                        backend: str | None = None):
    """Build a lockstep vector env whose lane ``i`` runs ``specs[i]``.

    The general form behind :func:`make_vec` (which passes ``num_envs``
    copies of one spec): each entry is a registered scenario id or a
    (possibly unregistered) :class:`~repro.scenarios.spec.ScenarioSpec`,
    and all entries must share a topology (same action space). Lane
    ``i`` is seeded ``seed + i``; ``backend`` is as in :func:`make_vec`.
    """
    resolved = [_resolve(s, {}) for s in specs]
    if not resolved:
        raise ValueError("make_vec_from_specs needs at least one spec")
    from repro.sim.vec_env import lockstep_env

    envs = [
        spec.build_env(seed=None if seed is None else seed + i)
        for i, spec in enumerate(resolved)
    ]
    return lockstep_env(envs, auto_reset=auto_reset, base_seed=seed,
                        backend=backend)
