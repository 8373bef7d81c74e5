"""Attacker profiles used in the paper's experiments.

* :func:`apt1` -- the nominal attacker (Section 3.2 defaults): lateral
  threshold 3, PLC thresholds 15 (destroy) / 25 (disrupt), two
  full-time attackers at keyboard (labor rate 2).
* :func:`apt2` -- the aggressive attacker of Section 5: lateral
  threshold 1, PLC thresholds 5 / 10; it moves faster through the
  tactics graph but is less resilient to setbacks.
* :func:`with_cleanup_effectiveness` -- the Fig 6 perturbation.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.config import APTConfig

__all__ = ["apt1", "apt2", "with_cleanup_effectiveness", "apt_diff"]


def apt1(**overrides) -> APTConfig:
    """Nominal attacker profile (used for ACSO training)."""
    return APTConfig(**overrides)


def apt2(**overrides) -> APTConfig:
    """Aggressive attacker: faster escalation, less redundant access."""
    params = dict(
        lateral_threshold=1,
        hmi_threshold=1,
        plc_threshold_destroy=5,
        plc_threshold_disrupt=10,
    )
    params.update(overrides)
    return APTConfig(**params)


def with_cleanup_effectiveness(config: APTConfig, effectiveness: float) -> APTConfig:
    """Return a copy of ``config`` with a different cleanup effectiveness."""
    return replace(config, cleanup_effectiveness=effectiveness)


def apt_diff(apt: APTConfig, base: APTConfig | None = None) -> dict:
    """Fields of ``apt`` that differ from ``base`` (default profile).

    The values are JSON-native (int/float/str), so the diff can ride in
    a :class:`~repro.scenarios.spec.ScenarioSpec`'s ``apt_overrides``
    and ``replace(base, **diff)`` reconstructs ``apt`` exactly — the
    bridge that lets an arbitrary attacker configuration become a
    named, registered scenario.
    """
    if base is None:
        base = APTConfig()
    return {
        f.name: getattr(apt, f.name)
        for f in fields(APTConfig)
        if getattr(apt, f.name) != getattr(base, f.name)
    }
