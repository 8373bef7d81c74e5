"""JSON (de)serialization for scenario specifications.

The companion of :mod:`repro.config_io`, one layer up: where a
``SimConfig`` JSON file reproduces a single environment, a
:class:`~repro.scenarios.spec.ScenarioSpec` JSON document reproduces a
*named* experiment (network preset, attacker, reward variant, horizon)
and can be shipped in serve job payloads, checkpoints, or to other machines
and re-registered there. Every spec field is a JSON-native type, so the
round trip is exact.
"""

from __future__ import annotations

import dataclasses
import json

from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
    "save_spec",
    "load_spec",
    "save_registry",
    "load_registry",
]


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """ScenarioSpec -> plain dict (JSON-compatible types only)."""
    data = dataclasses.asdict(spec)
    data["tags"] = list(data["tags"])
    # stored as a sorted tuple of pairs for hashability; a JSON object
    # is the natural wire form (values are int/float/str already)
    data["apt_overrides"] = dict(data["apt_overrides"])
    return data


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Plain dict -> ScenarioSpec, validating field names."""
    known = {f.name for f in dataclasses.fields(ScenarioSpec)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
    kwargs = dict(data)
    if "tags" in kwargs:
        kwargs["tags"] = tuple(kwargs["tags"])
    if "apt_overrides" in kwargs and not isinstance(kwargs["apt_overrides"], dict):
        # accept the pair-tuple storage form as well as the JSON object
        kwargs["apt_overrides"] = dict(kwargs["apt_overrides"])
    return ScenarioSpec(**kwargs)


def spec_to_json(spec: ScenarioSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def spec_from_json(text: str) -> ScenarioSpec:
    return spec_from_dict(json.loads(text))


def save_spec(spec: ScenarioSpec, path) -> None:
    with open(path, "w") as handle:
        handle.write(spec_to_json(spec))
        handle.write("\n")


def load_spec(path) -> ScenarioSpec:
    with open(path) as handle:
        return spec_from_json(handle.read())


def save_registry(path, specs=None) -> None:
    """Write a scenario catalogue (default: the global registry) as JSON."""
    if specs is None:
        from repro.scenarios.registry import REGISTRY

        specs = list(REGISTRY)
    payload = {"scenarios": [spec_to_dict(spec) for spec in specs]}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_registry(path, *, register: bool = True,
                  overwrite: bool = False) -> list[ScenarioSpec]:
    """Load a scenario catalogue; optionally register every entry."""
    with open(path) as handle:
        payload = json.load(handle)
    entries = payload["scenarios"] if isinstance(payload, dict) else payload
    specs = [spec_from_dict(entry) for entry in entries]
    if register:
        from repro.scenarios.registry import REGISTRY

        for spec in specs:
            REGISTRY.register(spec, overwrite=overwrite)
    return specs
