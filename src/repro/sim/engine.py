"""The network simulation engine.

One :meth:`Simulation.step` call advances the clock by one hour (the
paper's decision resolution). Within a step:

1. defender actions chosen from the previous observation are launched
   (each occupies its target until completion);
2. the attacker policy observes its view and launches new actions,
   limited by its labor budget;
3. the clock advances and all actions completing by the new hour take
   effect (with preconditions re-validated);
4. the IDS emits passive and false alerts;
5. the reward module scores the step and a new observation is built.

Episodes are deterministic given (config, attacker policy, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.config import SimConfig
from repro.net.nodes import NodeType
from repro.net.topology import Topology, build_topology
from repro.sim.apt_actions import (
    APT_ACTION_SPECS,
    APTActionRequest,
    APTActionType,
    APTKnowledge,
    APTView,
    apply_apt_action,
    sample_duration,
)
from repro.sim.events import EventQueue
from repro.sim.ids import IDSModule
from repro.sim.observations import Alert, Observation, ScanResult
from repro.sim.orchestrator import (
    DEFENDER_ACTION_SPECS,
    DefenderAction,
    apply_mitigation,
    enumerate_actions,
    scan_detection_prob,
)
from repro.sim.reward import RewardModule
from repro.sim.state import NetworkState
from repro.utils.rng import RngFactory

__all__ = ["Simulation", "StepResult"]


@dataclass
class StepResult:
    observation: Observation
    reward: float
    done: bool
    info: dict[str, Any]


class Simulation:
    """INASIM core: network state, event queue, IDS, attacker, reward."""

    def __init__(self, config: SimConfig, attacker, seed: int | None = None):
        self.config = config
        self.attacker = attacker
        self.topology: Topology = build_topology(config.topology)
        self.reward_module = RewardModule(config.reward)
        self.actions: list[DefenderAction] = enumerate_actions(self.topology)
        self._skip_saturated = bool(getattr(attacker, "skip_when_saturated", False))
        self._attacker_observe = getattr(attacker, "observe", None)
        self._mark_phase_dirty = getattr(attacker, "mark_phase_dirty", None)
        self._labor_rate = int(config.apt.labor_rate)
        self.reset(seed)

    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> Observation:
        self.rngs = RngFactory(seed)
        self.state = NetworkState(self.topology)
        self.ids = IDSModule(self.config.ids, self.topology, self.rngs.child("ids"))
        self.knowledge = APTKnowledge()
        self.queue = EventQueue()
        self._apt_rng = self.rngs.child("apt")
        self._def_rng = self.rngs.child("defender")
        self.in_flight: list[APTActionRequest] = []
        #: multiset of in-flight target keys, maintained incrementally
        #: so each attacker consult skips re-deriving them from scratch
        self._in_flight_keys: dict[tuple, int] = {}
        #: latest busy-until hour across all nodes/PLCs; lets hot paths
        #: rule out any active busy window with one scalar compare
        self._max_busy = 0
        self._beachhead_rng = self.rngs.child("beachhead")
        self._reintrusion_at: int | None = None
        self._phase_stale = True
        self._beachhead = self._establish_beachhead()
        self.attacker.reset(self.rngs.child("attacker-policy"))
        return self._observation([], [])

    def _establish_beachhead(self) -> int:
        """Initial intrusion: the APT controls one random L2 workstation."""
        candidates = [
            n.node_id for n in self.topology.nodes
            if n.ntype is NodeType.WORKSTATION and n.level == 2
        ]
        node_id = int(self._beachhead_rng.choice(candidates))
        from repro.net.nodes import Condition

        self.state.set_condition(node_id, Condition.SCANNED)
        self.state.set_condition(node_id, Condition.COMPROMISED)
        self.knowledge.known_vlan[node_id] = self.state.node_vlan[node_id]
        return node_id

    def _apt_has_access(self) -> bool:
        """True while the APT controls at least one reachable node."""
        return self.state.has_reachable_compromise()

    def _maybe_reintrude(self, t1: int) -> bool:
        """APTs that lose all access mount a new initial intrusion
        (e.g. fresh social engineering) after a re-intrusion delay.
        Without this, a single lucky eviction ends a six-month campaign,
        which contradicts the persistence that defines APTs (Section 3).
        Returns True when a new beachhead was just established.
        """
        if self._apt_has_access():
            self._reintrusion_at = None
            return False
        if self._reintrusion_at is None:
            apt = self.config.apt
            n = max(1, round(apt.reintrusion_hours / 0.9))
            delay = self._beachhead_rng.binomial(n, 0.9) / apt.time_scale
            self._reintrusion_at = t1 + max(1, int(delay))
        elif t1 >= self._reintrusion_at:
            self._beachhead = self._establish_beachhead()
            self._reintrusion_at = None
            return True
        return False

    # ------------------------------------------------------------------
    # step phases -- the batched engine drives these per lane and
    # replaces only the trailing IDS/reward/observation assembly with
    # array programs, so the per-lane dynamics live in exactly one place
    # ------------------------------------------------------------------
    def step_launch(
        self, defender_actions: Iterable[DefenderAction], t0: int
    ) -> list[DefenderAction]:
        """Phase 1: launch defender actions chosen from the last obs."""
        launched: list[DefenderAction] = []
        for action in defender_actions:
            if self._launch_defender(action, t0):
                launched.append(action)
        return launched

    def step_attacker(self, t0: int, t1: int, alerts: list[Alert]) -> None:
        """Phase 2: attacker turn.

        An attacker that recomputes its decisions from the live state
        (skip_when_saturated) is not consulted while its labor budget is
        exhausted -- its requests would be truncated away regardless.
        Its *reported* phase is a pure function of (state, knowledge),
        so while skipping it only needs a refresh (observe(); draws no
        randomness) after those inputs actually changed -- completions,
        re-intrusion, or the knowledge updates of a previous act().
        """
        labor_available = max(0, self._labor_rate - len(self.in_flight))
        if labor_available > 0 or not self._skip_saturated:
            # the view aliases the live in-flight list/key multiset; both
            # are only read inside act()/observe(), before any launch
            # below mutates them
            view = APTView(
                t0, self.state, self.knowledge, self.topology,
                labor_available, self.in_flight,
                self._in_flight_keys.keys(),
            )
            requests = list(self.attacker.act(view))[:labor_available]
            for req in requests:
                self._launch_apt(req, t0, alerts, t1)
            self._phase_stale = True  # act() may mutate knowledge after
        elif self._attacker_observe is not None and self._phase_stale:
            self._attacker_observe(APTView(
                t0, self.state, self.knowledge, self.topology,
                labor_available, self.in_flight,
                self._in_flight_keys.keys(),
            ))
            self._phase_stale = False

    def step_advance(
        self, t1: int, scan_results: list[ScanResult]
    ) -> tuple[float, list[DefenderAction]]:
        """Phases 3+4: advance the clock, apply completions, re-intrude."""
        self.state.t = t1
        completed_cost = 0.0
        completed_defender: list[DefenderAction] = []
        due = self.queue.pop_due(t1)
        if due:
            self._phase_stale = True
            if self._mark_phase_dirty is not None:
                self._mark_phase_dirty()
        for payload in due:
            kind = payload[0]
            if kind == "apt":
                _, req, success = payload
                self._complete_apt(req, success)
            else:
                _, action = payload
                completed_cost += self._complete_defender(action, t1, scan_results)
                completed_defender.append(action)

        if self._maybe_reintrude(t1):
            self._phase_stale = True
            if self._mark_phase_dirty is not None:
                self._mark_phase_dirty()
        return completed_cost, completed_defender

    # ------------------------------------------------------------------
    def step(self, defender_actions: Iterable[DefenderAction]) -> StepResult:
        t0 = self.state.t
        t1 = t0 + 1
        alerts: list[Alert] = []
        scan_results: list[ScanResult] = []

        launched = self.step_launch(defender_actions, t0)
        self.step_attacker(t0, t1, alerts)
        completed_cost, completed_defender = self.step_advance(t1, scan_results)

        # 5. passive and false alerts for this hour
        alerts.extend(
            self.ids.passive_alerts(
                self.state, t1, self.config.apt.cleanup_effectiveness
            )
        )
        alerts.extend(self.ids.false_alerts(t1))

        # 5. reward (PLC / compromise tallies computed once, shared with
        # the info dict below — these reductions are per-step hot path)
        state = self.state
        n_compromised = state.n_compromised()
        n_srv = state.n_servers_compromised()
        n_destroyed = int(np.count_nonzero(state.plc_destroyed))
        n_offline = int(np.count_nonzero(state.plc_disrupted | state.plc_destroyed))
        n_disrupted = n_offline - n_destroyed  # disrupted & not destroyed
        breakdown = self.reward_module.compute(
            n_disrupted,
            n_destroyed,
            completed_cost,
            t1,
            self.config.tmax,
        )
        done = t1 >= self.config.tmax

        observation = self._observation(alerts, scan_results)
        observation.completed_actions = completed_defender
        info: dict[str, Any] = {
            "t": t1,
            "reward_breakdown": breakdown,
            "it_cost": completed_cost,
            "n_compromised": n_compromised,
            "n_ws_compromised": n_compromised - n_srv,
            "n_srv_compromised": n_srv,
            "n_plcs_offline": n_offline,
            "n_plcs_disrupted": n_disrupted,
            "n_plcs_destroyed": n_destroyed,
            "launched": launched,
            "completed": completed_defender,
            "apt_phase": getattr(self.attacker, "phase_name", None),
            "conditions": state.conditions.copy(),
        }
        return StepResult(observation, breakdown.total, done, info)

    # ------------------------------------------------------------------
    def _launch_defender(self, action: DefenderAction, t0: int) -> bool:
        if action.is_noop:
            return False
        spec = DEFENDER_ACTION_SPECS[action.atype]
        until = t0 + spec.duration
        if spec.targets == "node":
            if self.state.node_busy_until[action.target] > t0:
                return False
            self.state.node_busy_until[action.target] = until
        elif spec.targets == "plc":
            if self.state.plc_busy_until[action.target] > t0:
                return False
            self.state.plc_busy_until[action.target] = until
        if until > self._max_busy:
            self._max_busy = until
        self.queue.push(until, ("def", action))
        return True

    def _launch_apt(
        self, req: APTActionRequest, t0: int, alerts: list[Alert], alert_t: int
    ) -> None:
        spec = APT_ACTION_SPECS[req.atype]
        success = self._apt_rng.random() < spec.success_prob
        duration = sample_duration(spec, self._apt_rng, self.config.apt.time_scale)
        alert = self.ids.action_alert(req, self.state, alert_t)
        if alert is not None:
            alerts.append(alert)
        if req.atype is APTActionType.ANALYZE_HISTORIAN:
            self.knowledge.historian_analysis_started = True
            if self._mark_phase_dirty is not None:
                self._mark_phase_dirty()
        self.queue.push(t0 + duration, ("apt", req, success))
        self.in_flight.append(req)
        key = req.target_key()
        keys = self._in_flight_keys
        keys[key] = keys.get(key, 0) + 1

    def _complete_apt(self, req: APTActionRequest, success: bool) -> None:
        self.in_flight.remove(req)
        key = req.target_key()
        keys = self._in_flight_keys
        count = keys.get(key, 0) - 1
        if count > 0:
            keys[key] = count
        else:
            keys.pop(key, None)
        applied = False
        if success:
            applied = apply_apt_action(
                req, self.state, self.knowledge, self.topology,
                self.config.apt, self._apt_rng,
            )
        if req.atype is APTActionType.ANALYZE_HISTORIAN and not applied:
            # analysis was interrupted; the FSM must re-start it
            self.knowledge.historian_analysis_started = self.knowledge.historian_analyzed

    def _complete_defender(
        self, action: DefenderAction, t1: int, scan_results: list[ScanResult]
    ) -> float:
        spec = DEFENDER_ACTION_SPECS[action.atype]
        if spec.targets == "plc":
            apply_mitigation(action, self.state, self.topology)
            return spec.cost_host
        node = self.topology.nodes[action.target]
        if spec.is_investigation:
            p = scan_detection_prob(
                spec, self.state, action.target,
                self.config.apt.cleanup_effectiveness,
            )
            detected = bool(self._def_rng.random() < p)
            scan_results.append(ScanResult(t1, action.target, detected, action.atype))
        else:
            apply_mitigation(action, self.state, self.topology)
        return spec.cost(node.is_server)

    # ------------------------------------------------------------------
    def _observation(
        self, alerts: list[Alert], scan_results: list[ScanResult]
    ) -> Observation:
        state = self.state
        t = state.t
        quarantined = state.quarantined.copy()
        return Observation(
            t=t,
            alerts=alerts,
            scan_results=scan_results,
            plc_disrupted=state.plc_disrupted.copy(),
            plc_destroyed=state.plc_destroyed.copy(),
            node_busy=state.node_busy_until > t,
            plc_busy=state.plc_busy_until > t,
            quarantined=quarantined,
        )
