"""The built-in scenario catalogue.

Ids follow ``<network>-<variant>-v<rev>``; the three flagship ids keep
the ``inasim-`` prefix. The catalogue crosses the paper's three network
presets with the Fig 8 attacker configurations plus the aggressive
APT2 (Fig 10), stealth (Fig 6), scripted, and reward-variant
scenarios. Tags group scenarios for sweeps:

* ``eval`` / ``train`` / ``test`` — intended use;
* ``fig8`` / ``fig10`` / ``fig6`` — the paper experiment they back;
* ``adversarial`` / ``scripted`` — attacker family;
* ``reward`` — non-paper reward parameterisation.
"""

from __future__ import annotations

from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import ScenarioSpec

__all__ = ["BUILTIN_SCENARIOS", "register_builtin_scenarios"]

BUILTIN_SCENARIOS: tuple[ScenarioSpec, ...] = (
    # flagship presets: FSM attacker, (objective, vector) sampled per
    # episode -- the paper's training/evaluation regime
    ScenarioSpec(
        scenario_id="inasim-paper-v1",
        network="paper",
        description="Fig 2 evaluation network, nominal APT1, sampled "
                    "Fig 8 qualitative pair, paper reward.",
        tags=("paper", "eval"),
    ),
    ScenarioSpec(
        scenario_id="inasim-small-v1",
        network="small",
        description="Section 4.2 grid-search network, nominal APT1.",
        tags=("small", "train"),
    ),
    ScenarioSpec(
        scenario_id="inasim-tiny-v1",
        network="tiny",
        description="Minimal unit-test network, fast attacker, short "
                    "horizon.",
        tags=("tiny", "test"),
    ),
    # the four Fig 8 FSM configurations on the evaluation network
    ScenarioSpec(
        scenario_id="paper-disrupt-opc-v1",
        network="paper",
        objective="disrupt",
        vector="opc",
        description="Fig 8 config: disrupt PLCs through the OPC server.",
        tags=("paper", "eval", "fig8"),
    ),
    ScenarioSpec(
        scenario_id="paper-disrupt-hmi-v1",
        network="paper",
        objective="disrupt",
        vector="hmi",
        description="Fig 8 config: disrupt PLCs from captured L1 HMIs.",
        tags=("paper", "eval", "fig8"),
    ),
    ScenarioSpec(
        scenario_id="paper-destroy-opc-v1",
        network="paper",
        objective="destroy",
        vector="opc",
        description="Fig 8 config: flash firmware and destroy PLCs "
                    "through the OPC server.",
        tags=("paper", "eval", "fig8"),
    ),
    ScenarioSpec(
        scenario_id="paper-destroy-hmi-v1",
        network="paper",
        objective="destroy",
        vector="hmi",
        description="Fig 8 config: flash firmware and destroy PLCs from "
                    "captured L1 HMIs.",
        tags=("paper", "eval", "fig8"),
    ),
    # adversarial variants: the aggressive APT2 and the stealth sweep
    ScenarioSpec(
        scenario_id="paper-apt2-v1",
        network="paper",
        profile="apt2",
        description="Fig 10 robustness probe: aggressive APT2 "
                    "(lateral threshold 1, PLC thresholds 5/10).",
        tags=("paper", "eval", "fig10", "adversarial"),
    ),
    ScenarioSpec(
        scenario_id="small-apt2-v1",
        network="small",
        profile="apt2",
        description="APT2 on the training network (transfer studies).",
        tags=("small", "train", "fig10", "adversarial"),
    ),
    ScenarioSpec(
        scenario_id="paper-stealth-v1",
        network="paper",
        cleanup_effectiveness=0.9,
        description="Fig 6 stealth extreme: cleanup removes 90% of the "
                    "forensic evidence.",
        tags=("paper", "eval", "fig6", "adversarial"),
    ),
    # scripted deterministic campaigns (regression / debugging)
    ScenarioSpec(
        scenario_id="tiny-scripted-rush-v1",
        network="tiny",
        attacker="scripted",
        description="Deterministic beachhead-rush campaign on the tiny "
                    "network.",
        tags=("tiny", "test", "scripted"),
    ),
    ScenarioSpec(
        scenario_id="small-scripted-rush-v1",
        network="small",
        attacker="scripted",
        description="Deterministic beachhead-rush campaign on the "
                    "training network.",
        tags=("small", "test", "scripted"),
    ),
    # reward variants
    ScenarioSpec(
        scenario_id="paper-cost-sensitive-v1",
        network="paper",
        reward_variant="cost_sensitive",
        description="Paper network with 3x IT-availability weight "
                    "(penalises over-response).",
        tags=("paper", "eval", "reward"),
    ),
    ScenarioSpec(
        scenario_id="paper-availability-v1",
        network="paper",
        reward_variant="availability",
        description="Paper network with doubled process-outage "
                    "penalties (PLC uptime dominates).",
        tags=("paper", "eval", "reward"),
    ),
)


def register_builtin_scenarios() -> None:
    """Idempotently load the built-in catalogue into the registry."""
    for spec in BUILTIN_SCENARIOS:
        if spec.scenario_id not in REGISTRY:
            REGISTRY.register(spec)
