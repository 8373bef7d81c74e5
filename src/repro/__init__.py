"""Reproduction of "Autonomous Attack Mitigation for Industrial Control
Systems" (Mern et al., DSN 2022).

Public entry points:

* :func:`make` / :func:`make_vec` -- build a single environment or an
  N-way batched :class:`~repro.sim.vec_env.VectorEnv` from a registered
  scenario id (``repro.make("inasim-paper-v1")``).
* :func:`register` / :func:`list_scenarios` / :func:`get_scenario` --
  the scenario registry (see :mod:`repro.scenarios`).
* :func:`make_env` -- legacy config-first construction; kept as a thin
  compatibility shim over the scenario machinery.
* :mod:`repro.config` -- network presets (`paper_network`, `small_network`).
* :mod:`repro.defenders` -- baseline and learned defender policies.
* :mod:`repro.rl` -- the DQN training stack for the ACSO agent: the
  attention Q-network under double DQN, prioritized replay and n-step
  TD, and the convolutional baseline of Table 7.
* :mod:`repro.eval` -- the experiment harness for Table 2 / Fig 6 / Fig 10,
  text charts, markdown reports, and SOC trace analytics.
* :mod:`repro.validation` -- off-policy evaluation and policy certification.
* :mod:`repro.transfer` -- cross-network pre-train / fine-tune studies.
* :mod:`repro.cli` -- the ``repro`` command-line entry point.
"""

from __future__ import annotations

from repro.config import (
    APTConfig,
    SimConfig,
    paper_network,
    small_network,
    tiny_network,
)
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    make,
    make_vec,
    make_vec_from_specs,
    register,
)

__version__ = "1.2.0"

__all__ = [
    "APTConfig",
    "SimConfig",
    "ScenarioSpec",
    "paper_network",
    "small_network",
    "tiny_network",
    "make",
    "make_vec",
    "make_vec_from_specs",
    "make_env",
    "register",
    "get_scenario",
    "list_scenarios",
]


def make_env(
    config: SimConfig,
    seed: int | None = None,
    attacker=None,
    sample_qualitative: bool = True,
):
    """Build a simulation environment with the paper's FSM attacker.

    Compatibility shim predating the scenario registry: prefer
    ``repro.make("inasim-paper-v1")`` and friends for named, shareable
    configurations. ``make_env(paper_network())`` is equivalent to
    ``make("inasim-paper-v1")``.

    Parameters
    ----------
    config:
        Simulation configuration (see :func:`repro.config.paper_network`).
    seed:
        Root seed; episodes are deterministic given (config, seed).
    attacker:
        Optional custom attacker policy; defaults to the FSM attacker
        parameterised by ``config.apt``.
    sample_qualitative:
        When using the default attacker, draw the (objective, vector)
        pair uniformly at each reset (covers the four Fig 8 configs).
    """
    from repro.attacker import FSMAttacker
    from repro.sim.env import InasimEnv

    if attacker is None:
        attacker = FSMAttacker(config.apt, sample_qualitative=sample_qualitative)
    return InasimEnv(config, attacker, seed=seed)
