"""Gym-style environment wrapper around the simulation engine.

The paper exposes INASIM through an OpenAI-Gym-compatible external API;
:class:`InasimEnv` is that interface. The action argument to
:meth:`step` may be a single :class:`DefenderAction`, a list of them
(baseline policies coordinate several actions per hour), or an integer
index into :attr:`action_list`.
"""

from __future__ import annotations

import numbers
from typing import Any, Iterable

import numpy as np

from repro.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.observations import Observation
from repro.sim.orchestrator import (
    DefenderAction,
    action_busy_positions,
    action_mask_from_busy,
)

__all__ = ["InasimEnv"]


class InasimEnv:
    def __init__(self, config: SimConfig, attacker, seed: int | None = None):
        self.config = config
        self.sim = Simulation(config, attacker, seed=seed)
        self.action_list: list[DefenderAction] = list(self.sim.actions)
        self.action_index: dict[DefenderAction, int] = {
            a: i for i, a in enumerate(self.action_list)
        }
        self._mask_positions = action_busy_positions(self.action_list,
                                                     self.topology.n_nodes)

    # ------------------------------------------------------------------
    @property
    def topology(self):
        return self.sim.topology

    @property
    def n_actions(self) -> int:
        return len(self.action_list)

    @property
    def t(self) -> int:
        return self.sim.state.t

    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> Observation:
        return self.sim.reset(seed)

    def step(
        self, action: DefenderAction | int | Iterable[DefenderAction]
    ) -> tuple[Observation, float, bool, dict[str, Any]]:
        actions = self._coerce(action)
        result = self.sim.step(actions)
        return result.observation, result.reward, result.done, result.info

    def _coerce(self, action) -> list[DefenderAction]:
        if isinstance(action, DefenderAction):
            return [action]
        if isinstance(action, (numbers.Integral, np.integer)):
            # covers builtin int and numpy integer scalars (np.int64 from
            # rng.integers / argmax), which the RL stack produces
            return [self.action_list[int(action)]]
        if action is None:
            return []
        return list(action)

    # ------------------------------------------------------------------
    def action_mask(self) -> np.ndarray:
        """Boolean validity mask over :attr:`action_list`.

        An action is valid when its target is not occupied by an
        in-flight defender action (noop is always valid); launching an
        action on a busy target is rejected by the orchestrator and
        wastes the decision step.
        """
        state = self.sim.state
        return action_mask_from_busy(self._mask_positions,
                                     state.node_busy_until > state.t,
                                     state.plc_busy_until > state.t)

    def sample_action(self, rng) -> int:
        """Uniform random action index (exploration helper)."""
        return int(rng.integers(self.n_actions))
