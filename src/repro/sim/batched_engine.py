"""Structure-of-arrays batched engine: one array program per lockstep.

:class:`BatchedVectorEnv` is the ``backend="batched"`` engine behind the
:class:`~repro.sim.vec_env.VectorEnv` lockstep contract. Instead of
asking each lane's :class:`~repro.sim.engine.Simulation` to assemble its
own step result, it holds every lane's dynamic state in ``(num_envs,
...)`` batch arrays and computes the dense per-step work — IDS
passive/false alert thresholds, PLC/compromise tallies, rewards, action
masks, observation batches — as single numpy programs over all lanes.

The per-object engine stays the oracle. Each lane's :class:`NetworkState`
arrays are *adopted* after every reset: their contents are copied into a
row of the batch arrays and the state attributes are re-pointed at row
views, which is sound because every mutation in the simulator is an
in-place element write (``conditions[i, c] = True``, ``busy[tgt] = t``;
pinned by ``tests/test_batched_engine.py``). The sparse, event-driven
dynamics — defender launches, the attacker FSM turn, action completions
(:meth:`Simulation.step_launch` / :meth:`~Simulation.step_attacker` /
:meth:`~Simulation.step_advance`) — still run through the engine's own
phase methods, so the dynamics live in exactly one place and the batched
backend cannot drift from sync.

Most simulated hours are quiet, so :meth:`BatchedVectorEnv.step` has a
fast path for them. Every lane runs phase 1 (the defender launch) first;
a lane that launched nothing -- no action, ``[]``, a noop, or an action
rejected on a busy target, none of which writes engine state -- and
whose next event is not due takes the fast path when its attacker turn
is provably a no-op: the clock moves, the IDS draws run, and the
observation reuses the lane's snapshot arrays from its last slow step.
Those arrays are therefore shared across steps and read-only; a consumer
that writes one gets a ``ValueError`` instead of corrupting later
observations.

Bit-exactness with the sync backend is a hard invariant, not a goal:

* every lane keeps its own per-component ``Generator`` streams, and the
  batched step consumes them in exactly the sync order — one
  ``random(n_compromised)`` passive draw (only when nonzero, matching
  :meth:`IDSModule.passive_alerts`'s early return), one
  ``random(n_channels)`` false-alert draw, then one ``choice`` per
  firing channel in channel order;
* the batched threshold compare uses each lane's *loosest* passive rate
  and re-checks cleaned nodes against the cleanup-scaled rate per hit,
  which reproduces the per-node thresholds without per-lane fancy
  indexing;
* reward arithmetic evaluates in the same operand order as
  :meth:`RewardModule.compute`, so IEEE-754 results are identical.

The golden-trajectory fixtures and the backend-parity suites run the
batched backend against sync digest-for-digest.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.net.nodes import Condition
from repro.sim.env import InasimEnv
from repro.sim.observations import Alert, AlertSource, Observation
from repro.sim.reward import RewardBreakdown
from repro.sim.vec_env import _UNSET, VecStep, VectorEnv, _reset_info

__all__ = ["BatchedVectorEnv"]

#: sentinel "no scheduled event" time; any real event time is smaller
_FAR_FUTURE = 2**62


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a snapshot read-only: quiescent steps hand the same array
    object out again, so a consumer's write must fail, not leak."""
    array.setflags(write=False)
    return array


class BatchedVectorEnv(VectorEnv):
    """Lockstep vector env advancing all lanes through one array program.

    Construction, lane seeding, auto-reset semantics, and the
    step/reset return contract are inherited from
    :class:`VectorEnv`; only the per-step execution strategy differs.
    All lanes must share the network geometry (same node/PLC counts and
    action list) — heterogeneous *configs* (reward weights, horizons,
    attacker settings) are fine and tracked per lane.
    """

    def __init__(self, envs: Sequence[InasimEnv], *, auto_reset: bool = True,
                 base_seed: int | None = None):
        super().__init__(envs, auto_reset=auto_reset, base_seed=base_seed)
        first = self.envs[0]
        n_nodes = first.topology.n_nodes
        n_plcs = first.topology.n_plcs
        for env in self.envs[1:]:
            if (env.topology.n_nodes != n_nodes
                    or env.topology.n_plcs != n_plcs
                    or env.action_list != first.action_list):
                raise ValueError(
                    "batched backend needs lanes with identical network "
                    "geometry (node/PLC counts and action list); use the "
                    "sync backend for mixed topologies"
                )
        n = self.num_envs
        self._n_nodes = n_nodes
        self._n_plcs = n_plcs
        # batch state arrays; lane i's NetworkState attributes are row
        # views of these after adoption. The state that observations and
        # step infos copy out is one contiguous row of _SNAP_ROWS per
        # lane (PLC disrupted | PLC destroyed | quarantined | conditions),
        # so a snapshot refresh takes one copy and freezes one array
        n_cond = len(Condition)
        cut_des, cut_quar = n_plcs, 2 * n_plcs
        cut_cond = cut_quar + n_nodes
        self._snap_cuts = (cut_des, cut_quar, cut_cond)
        self._cond_shape = (n_nodes, n_cond)
        self._SNAP_ROWS = np.zeros((n, cut_cond + n_nodes * n_cond),
                                   dtype=bool)
        self._PLC_DIS = self._SNAP_ROWS[:, :cut_des]
        self._PLC_DES = self._SNAP_ROWS[:, cut_des:cut_quar]
        self._QUAR = self._SNAP_ROWS[:, cut_quar:cut_cond]
        self._C = self._SNAP_ROWS[:, cut_cond:].reshape(n, n_nodes, n_cond)
        self._PLC_FW = np.zeros((n, n_plcs), dtype=bool)
        self._NODE_BUSY = np.zeros((n, n_nodes), dtype=np.int64)
        self._PLC_BUSY = np.zeros((n, n_plcs), dtype=np.int64)
        self._T = np.zeros(n, dtype=np.int64)
        self._C_cleaned = self._C[:, :, Condition.CLEANED]
        self._C_admin = self._C[:, :, Condition.ADMIN]
        self._passive_buf = np.ones((n, n_nodes))
        self._passive_rows = list(self._passive_buf)
        self._sims = [env.sim for env in self.envs]
        self._ids_rngs = [env.sim.ids.rng for env in self.envs]
        self._attackers = [env.sim.attacker for env in self.envs]
        # per-lane aliases refreshed by _adopt, feeding the fast path:
        # a lane with no due event, a labor-saturated skippable attacker
        # whose reported phase is fresh, and live APT access advances
        # without entering the engine at all (the skipped calls are
        # provably no-ops there; see step())
        self._states = [env.sim.state for env in self.envs]
        self._queues = [env.sim.queue for env in self.envs]
        self._in_flights = [env.sim.in_flight for env in self.envs]
        self._comp_sets = [env.sim.state._comp_set for env in self.envs]
        self._quar_sets = [env.sim.state._quar_set for env in self.envs]
        self._next_event = np.zeros(n, dtype=np.int64)
        # clock-independent half of the fast-path gate (see step()),
        # recomputed with the lane snapshots: between slow steps it can
        # only flip when the lane state moves, so one vectorized compare
        # against _next_event classifies every lane per step
        self._gate_ok = np.zeros(n, dtype=bool)
        # shared list for the per-step collections of quiescent lanes
        # and of lanes stepped with no action (alerts swap to a fresh
        # list copy-on-write when an IDS channel fires); like the
        # snapshot arrays, these are part of the returned observations
        # and must not be mutated by consumers
        self._empty: list = []
        # telemetry cache: phase_name only moves when the attacker's
        # act/observe runs, i.e. on slow-path lanes (and resets)
        self._phase_names: list[str | None] = [None] * n
        # per-lane observation snapshots, refreshed only after slow-path
        # steps (and resets): the fast-path gate guarantees a quiescent
        # lane mutates nothing, and every busy-mask flip coincides with
        # a defender completion event, which forces the slow path -- so
        # a snapshot stays value-exact until the lane next goes slow.
        # Consecutive quiescent steps therefore share array objects
        # (sync hands out fresh copies), so every snapshot is read-only.
        self._snap_plc_dis: list[np.ndarray] = [None] * n  # type: ignore
        self._snap_plc_des: list[np.ndarray] = [None] * n  # type: ignore
        self._snap_quar: list[np.ndarray] = [None] * n  # type: ignore
        self._snap_node_busy: list[np.ndarray] = [None] * n  # type: ignore
        self._snap_plc_busy: list[np.ndarray] = [None] * n  # type: ignore
        self._snap_cond: list[np.ndarray] = [None] * n  # type: ignore
        self._n_des = [0] * n
        self._n_off = [0] * n
        # quiescent-step reward/info caches: a fast-path step has zero
        # completion cost and unchanged tallies, so its reward total,
        # (frozen, shareable) breakdown, and info fields other than
        # t/launched/completed are bit-identical to these
        self._fast_total = [0.0] * n
        self._fast_breakdown: list[RewardBreakdown | None] = [None] * n
        self._fast_info: list[dict[str, Any] | None] = [None] * n
        # compromise roster snapshot (ids array + count): only slow
        # steps/resets change it, so the per-step IDS draw sizing reads
        # these instead of calling back into each lane's state
        self._comp_snap: list[np.ndarray] = [None] * n  # type: ignore
        self._n_comp = [0] * n
        self._n_srv = [0] * n
        self._obs_tmpl: list[dict[str, Any]] = [None] * n  # type: ignore
        self._zero_node_busy = [
            _frozen(np.zeros(n_nodes, dtype=bool)) for _ in range(n)
        ]
        self._zero_plc_busy = [
            _frozen(np.zeros(n_plcs, dtype=bool)) for _ in range(n)
        ]
        self._refresh_lane_params()
        for i in range(n):
            self._adopt(i)

    # ------------------------------------------------------------------
    # adoption: re-point a lane's state at batch-array row views
    # ------------------------------------------------------------------
    _ADOPTED = (
        ("_C", "conditions"),
        ("_QUAR", "quarantined"),
        ("_PLC_FW", "plc_firmware"),
        ("_PLC_DIS", "plc_disrupted"),
        ("_PLC_DES", "plc_destroyed"),
        ("_NODE_BUSY", "node_busy_until"),
        ("_PLC_BUSY", "plc_busy_until"),
    )

    def _adopt(self, i: int) -> None:
        """Copy lane ``i``'s freshly (re)built state into batch row ``i``
        and alias the state attributes to the row views, so every
        in-place write the engine makes lands in the batch arrays."""
        sim = self.envs[i].sim
        self._sims[i] = sim
        self._ids_rngs[i] = sim.ids.rng
        self._attackers[i] = sim.attacker
        state = sim.state
        self._states[i] = state
        self._queues[i] = sim.queue
        self._in_flights[i] = sim.in_flight
        self._comp_sets[i] = state._comp_set
        self._quar_sets[i] = state._quar_set
        due = sim.queue.peek_time()
        self._next_event[i] = _FAR_FUTURE if due is None else due
        self._phase_names[i] = getattr(sim.attacker, "phase_name", None)
        for batch_name, attr in self._ADOPTED:
            row = getattr(self, batch_name)[i]
            row[...] = getattr(state, attr)
            setattr(state, attr, row)
        self._T[i] = state.t
        self._refresh_lane_snapshots(i)

    def _refresh_lane_snapshots(self, i: int) -> None:
        """Re-materialize lane ``i``'s observation snapshot after a
        slow-path step or reset (the only points where state moves)."""
        state = self._states[i]
        snap = _frozen(self._SNAP_ROWS[i].copy())
        cut_des, cut_quar, cut_cond = self._snap_cuts
        self._snap_plc_dis[i] = snap[:cut_des]
        self._snap_plc_des[i] = snap[cut_des:cut_quar]
        self._snap_quar[i] = snap[cut_quar:cut_cond]
        self._snap_cond[i] = snap[cut_cond:].reshape(self._cond_shape)
        n_des = int(np.count_nonzero(state.plc_destroyed))
        self._n_des[i] = n_des
        # offline = destroyed + (disrupted and not destroyed)
        n_dis = int(np.count_nonzero(state.plc_disrupted))
        if n_dis and n_des:
            n_dis -= int(np.count_nonzero(
                state.plc_disrupted & state.plc_destroyed
            ))
        self._n_off[i] = n_des + n_dis
        if self._sims[i]._max_busy > state.t:
            self._snap_node_busy[i] = _frozen(state.node_busy_until > state.t)
            self._snap_plc_busy[i] = _frozen(state.plc_busy_until > state.t)
        else:
            self._snap_node_busy[i] = self._zero_node_busy[i]
            self._snap_plc_busy[i] = self._zero_plc_busy[i]
        comp = state.compromised_ids()
        self._comp_snap[i] = comp
        self._n_comp[i] = comp.size
        self._n_srv[i] = state._n_srv_comp
        # Observation.__dict__ prototype; step() copies it and fills the
        # per-step fields (t / alerts / scan_results / completed_actions)
        self._obs_tmpl[i] = {
            "t": 0,
            "alerts": None,
            "scan_results": None,
            "plc_disrupted": self._snap_plc_dis[i],
            "plc_destroyed": self._snap_plc_des[i],
            "node_busy": self._snap_node_busy[i],
            "plc_busy": self._snap_plc_busy[i],
            "quarantined": self._snap_quar[i],
            "completed_actions": None,
        }
        # invalidate the quiescent-step template; it is rebuilt lazily
        # on the lane's next fast step (many slow steps never need one)
        self._fast_info[i] = None
        # clock-independent gate half: live APT access plus a provably
        # no-op attacker turn; every input (comp/quar sets, in-flight
        # labor, _phase_stale, the attacker's phase cache) only moves on
        # slow steps, so the value holds until the next refresh
        sim = self._sims[i]
        noop_act = self._noop_acts[i]
        self._gate_ok[i] = (
            not self._comp_sets[i] <= self._quar_sets[i]
            and (
                (self._fastable[i]
                 and self._labor_rates[i] <= len(self._in_flights[i])
                 and (self._observe_none[i] or not sim._phase_stale))
                or (noop_act is not None and noop_act(state))
            )
        )

    def _build_fast_template(self, i: int) -> dict[str, Any]:
        """Zero-cost-step reward and info template (same operand order
        as ``RewardModule.compute`` with ``it_cost == 0.0``, so the
        cached floats are IEEE-identical to what sync computes)."""
        n_des = self._n_des[i]
        n_off = self._n_off[i]
        n_dis = n_off - n_des
        r_plc = 1.0 - self._dis_pen_l[i] * n_dis - self._des_pen_l[i] * n_des
        r_it = 1.0 - 0.0
        total = r_plc + self._lambda_it_l[i] * r_it + 0.0
        breakdown = RewardBreakdown.__new__(RewardBreakdown)
        object.__setattr__(breakdown, "__dict__", {
            "r_plc": r_plc, "r_it": r_it, "r_term": 0.0,
            "total": total, "it_cost": 0.0,
        })
        self._fast_total[i] = total
        self._fast_breakdown[i] = breakdown
        n_comp = self._n_comp[i]
        n_srv = self._n_srv[i]
        info: dict[str, Any] = {
            "t": 0,
            "reward_breakdown": breakdown,
            "it_cost": 0.0,
            "n_compromised": n_comp,
            "n_ws_compromised": n_comp - n_srv,
            "n_srv_compromised": n_srv,
            "n_plcs_offline": n_off,
            "n_plcs_disrupted": n_dis,
            "n_plcs_destroyed": n_des,
            "launched": None,
            "completed": None,
            "apt_phase": self._phase_names[i],
            "conditions": self._snap_cond[i],
        }
        self._fast_info[i] = info
        return info

    def _refresh_lane_params(self) -> None:
        """Per-lane scalars hoisted into arrays."""
        sims = self._sims
        self._tmax = [int(sim.config.tmax) for sim in sims]
        reward_cfgs = [sim.reward_module.config for sim in sims]
        self._dis_pen_l = [c.disrupted_penalty for c in reward_cfgs]
        self._des_pen_l = [c.destroyed_penalty for c in reward_cfgs]
        self._lambda_it_l = [c.lambda_it for c in reward_cfgs]
        self._term_reward_l = [c.terminal_reward for c in reward_cfgs]
        # static fast-path flags (set once in Simulation.__init__)
        self._fastable = [sim._skip_saturated for sim in sims]
        self._labor_rates = [sim._labor_rate for sim in sims]
        self._observe_none = [sim._attacker_observe is None for sim in sims]
        self._noop_acts = [
            getattr(sim.attacker, "act_is_noop", None) for sim in sims
        ]
        base = [sim.ids.config.passive_alert_rate for sim in sims]
        strict = [
            rate * (1.0 - sim.config.apt.cleanup_effectiveness)
            for rate, sim in zip(base, sims)
        ]
        self._passive_base = base
        self._passive_strict = strict
        self._passive_loose = np.array(
            [max(b, s) for b, s in zip(base, strict)]
        )[:, None]
        # false-alert channels in the exact order IDSModule.false_alerts
        # walks them: (level, severity) with severity minor; the node
        # pools and rates are per-topology/config invariants
        channels: list[list[tuple[np.ndarray, int]]] = []
        rates: list[list[float]] = []
        for sim in sims:
            ids = sim.ids
            lane_channels: list[tuple[np.ndarray, int]] = []
            lane_rates: list[float] = []
            for _level, nodes in ids._false_levels:
                for severity, rate in enumerate(ids._false_rates, start=1):
                    lane_channels.append((nodes, severity))
                    lane_rates.append(rate)
            channels.append(lane_channels)
            rates.append(lane_rates)
        n_false = len(rates[0])
        if any(len(lane) != n_false for lane in rates):
            raise ValueError(
                "batched backend needs lanes with the same IDS false-alert "
                "channel structure"
            )
        self._false_channels = channels
        self._false_rates_mat = np.array(rates)
        self._n_false = n_false
        self._false_buf = np.ones((self.num_envs, n_false))
        self._false_rows = list(self._false_buf)

    # ------------------------------------------------------------------
    # resets: defer to VectorEnv, then re-adopt the rebuilt lane state
    # ------------------------------------------------------------------
    def reset(self, seed=_UNSET) -> list[Observation]:
        obs = super().reset(seed)
        for i in range(self.num_envs):
            self._adopt(i)
        return obs

    def reset_env(self, i: int, seed: int | None = None) -> Observation:
        obs = super().reset_env(i, seed)
        self._adopt(i)
        return obs

    # ------------------------------------------------------------------
    def step(self, actions=None, mask: Sequence[bool] | None = None) -> VecStep:
        """Advance all (unmasked) lanes by one hour, batched.

        Same contract and bit-identical results as
        :meth:`VectorEnv.step`; see the module docstring for how the
        work is split between per-lane dynamics and array programs.
        """
        n = self.num_envs
        sims = self._sims
        envs = self.envs
        lanes = range(n) if mask is None else [i for i in range(n) if mask[i]]
        acts = self._split_actions(actions)

        # -- phases 1-3 + IDS draws: one pass over the lanes -----------
        # per-lane RNG stream order matches sync exactly: the attacker's
        # launch draws, then one passive draw (only when the lane has
        # compromised nodes, matching IDSModule.passive_alerts's early
        # return), then one false-alert draw; the choice draws for
        # firing false channels follow below in channel order
        #
        # per-lane step lists: a fast lane keeps the shared empty list
        empty = self._empty
        alerts_per: list[list[Alert]] = [empty] * n
        scans_per: list[list] = [empty] * n
        launched_per: list[list] = [empty] * n
        completed_per: list[list] = [empty] * n
        costs = [0.0] * n
        passive_buf = self._passive_buf
        passive_buf.fill(1.0)
        passive_rows = self._passive_rows
        false_buf = self._false_buf
        if mask is not None:
            false_buf.fill(1.0)
        false_rows = self._false_rows
        ids_rngs = self._ids_rngs
        comp_arrs: list[np.ndarray | None] = [None] * n
        any_comp = False
        # quiescent-lane fast path: when a lane launches nothing, has
        # no event due by t1, live APT access, and an attacker turn
        # that is provably a no-op, phases 2-3 reduce to
        # ``state.t = t1``: step_advance pops nothing and
        # _maybe_reintrude short-circuits (access implies
        # ``_reintrusion_at is None`` after every slow step). Phase 1
        # runs first on every lane: no action, ``[]``, a noop, or a
        # launch rejected on a busy target all return before any
        # engine write, so "nothing launched" is the one test. The
        # attacker turn is a no-op either because the engine would skip
        # a labor-saturated attacker whose reported phase is fresh, or
        # because the attacker itself certifies act() does nothing
        # (act_is_noop: e.g. an FSM campaign in its DONE phase with
        # unchanged inputs). The IDS draws below still run, so RNG
        # streams and alerts stay bit-identical to sync.
        next_event = self._next_event
        states = self._states
        queues = self._queues
        phase_names = self._phase_names
        refresh_snapshots = self._refresh_lane_snapshots
        # the clock-independent gate half is cached per lane (_gate_ok,
        # refreshed with the snapshots); one vectorized compare against
        # the event-queue mirror finishes the classification for every
        # lane at once
        t1s_arr = self._T + 1
        fast_lane = (self._gate_ok & (next_event > t1s_arr)).tolist()
        t1s = t1s_arr.tolist()
        n_comp = self._n_comp
        comp_snap = self._comp_snap
        for i in lanes:
            a_i = acts[i]
            if a_i is not None:
                launched = sims[i].step_launch(envs[i]._coerce(a_i),
                                               t1s[i] - 1)
                if launched:
                    launched_per[i] = launched
                    fast_lane[i] = False
            if fast_lane[i]:
                states[i].t = t1s[i]
            else:
                sim = sims[i]
                t1 = t1s[i]
                alerts_per[i] = alerts = []
                scans_per[i] = scans = []
                sim.step_attacker(t1 - 1, t1, alerts)
                cost, completed = sim.step_advance(t1, scans)
                costs[i] = cost
                completed_per[i] = completed
                due = queues[i].peek_time()
                next_event[i] = _FAR_FUTURE if due is None else due
                phase_names[i] = getattr(sim.attacker, "phase_name", None)
                refresh_snapshots(i)
            rng = ids_rngs[i]
            k = n_comp[i]
            if k:
                rng.random(out=passive_rows[i][:k])
                comp_arrs[i] = comp_snap[i]
                any_comp = True
            rng.random(out=false_rows[i])
        if mask is None:
            np.add(self._T, 1, out=self._T)
        else:
            for i in lanes:
                self._T[i] += 1

        if any_comp:
            hit_rows, hit_cols = np.nonzero(passive_buf < self._passive_loose)
            strict = self._passive_strict
            base = self._passive_base
            cleaned = self._C_cleaned
            admin = self._C_admin
            for i, j in zip(hit_rows.tolist(), hit_cols.tolist()):
                node_id = int(comp_arrs[i][j])
                if cleaned[i, node_id]:
                    if passive_buf[i, j] >= strict[i]:
                        continue
                elif passive_buf[i, j] >= base[i]:
                    continue
                severity = 2 if admin[i, node_id] else 1
                alerts = alerts_per[i]
                if alerts is self._empty:  # copy-on-write for fast lanes
                    alerts = alerts_per[i] = []
                alerts.append(
                    Alert(t1s[i], severity, node_id, source=AlertSource.PASSIVE)
                )
        hit_rows, hit_cols = np.nonzero(false_buf < self._false_rates_mat)
        if hit_rows.size:
            for i, j in zip(hit_rows.tolist(), hit_cols.tolist()):
                nodes, severity = self._false_channels[i][j]
                rng = ids_rngs[i]
                node_id = int(nodes[rng.integers(0, len(nodes))])
                alerts = alerts_per[i]
                if alerts is self._empty:  # copy-on-write for fast lanes
                    alerts = alerts_per[i] = []
                alerts.append(
                    Alert(t1s[i], severity, node_id, source=AlertSource.FALSE)
                )

        # -- assembly + rewards + auto-reset ---------------------------
        # the observation snapshots come from the per-lane caches kept
        # fresh by _refresh_lane_snapshots: only slow-path lanes (the
        # only ones whose state moved) re-materialized theirs above
        # the reward terms are evaluated per lane in plain Python (same
        # operand order as RewardModule.compute, so IEEE-identical):
        # at num_envs-scale these scalars beat numpy's dispatch overhead
        observations: list[Observation | None] = [None] * n
        rewards = [0.0] * n
        dones = [False] * n
        infos: list[dict[str, Any]] = [None] * n  # type: ignore[list-item]
        last_obs = self._last_obs
        tmax = self._tmax
        dis_pen = self._dis_pen_l
        des_pen = self._des_pen_l
        lambda_it = self._lambda_it_l
        term_reward = self._term_reward_l
        auto_reset = self.auto_reset
        snap_cond = self._snap_cond
        n_des_l = self._n_des
        n_off_l = self._n_off
        fast_total = self._fast_total
        fast_info = self._fast_info
        obs_cls = Observation
        obs_new = Observation.__new__
        bd_new = RewardBreakdown.__new__
        bd_cls = RewardBreakdown
        set_dict = object.__setattr__
        if mask is not None:
            for i in range(n):
                if not mask[i]:
                    observations[i] = last_obs[i]
                    dones[i] = True
                    infos[i] = {}
        n_srv_l = self._n_srv
        obs_tmpl = self._obs_tmpl
        for i in lanes:
            t1 = t1s[i]
            obs = obs_new(obs_cls)
            obs.__dict__ = d = dict(obs_tmpl[i])
            d["t"] = t1
            d["alerts"] = alerts_per[i]
            d["scan_results"] = scans_per[i]
            d["completed_actions"] = completed_per[i]
            done = t1 >= tmax[i]
            if fast_lane[i] and not done:
                # quiescent step: reward and info fields are the cached
                # zero-cost values; only t and the per-step lists move
                template = fast_info[i]
                if template is None:
                    template = self._build_fast_template(i)
                info = dict(template)
                info["t"] = t1
                info["launched"] = launched_per[i]
                info["completed"] = completed_per[i]
                rewards[i] = fast_total[i]
                observations[i] = obs
                infos[i] = info
                last_obs[i] = obs
                continue
            n_destroyed = n_des_l[i]
            n_offline = n_off_l[i]
            n_disrupted = n_offline - n_destroyed
            cost = costs[i]
            r_plc = 1.0 - dis_pen[i] * n_disrupted - des_pen[i] * n_destroyed
            r_it = 1.0 - cost
            r_term = term_reward[i] if done else 0.0
            total = r_plc + lambda_it[i] * r_it + r_term
            breakdown = bd_new(bd_cls)
            set_dict(breakdown, "__dict__", {
                "r_plc": r_plc, "r_it": r_it, "r_term": r_term,
                "total": total, "it_cost": cost,
            })
            n_comp_i = n_comp[i]
            n_srv = n_srv_l[i]
            info: dict[str, Any] = {
                "t": t1,
                "reward_breakdown": breakdown,
                "it_cost": cost,
                "n_compromised": n_comp_i,
                "n_ws_compromised": n_comp_i - n_srv,
                "n_srv_compromised": n_srv,
                "n_plcs_offline": n_offline,
                "n_plcs_disrupted": n_disrupted,
                "n_plcs_destroyed": n_destroyed,
                "launched": launched_per[i],
                "completed": completed_per[i],
                "apt_phase": phase_names[i],
                "conditions": snap_cond[i],
            }
            rewards[i] = total
            if done:
                dones[i] = True
                if auto_reset:
                    info["final_observation"] = obs
                    self._episode_counts[i] += 1
                    obs = self.envs[i].reset(seed=self._seed_for(i))
                    self._adopt(i)
                    self.reset_infos[i] = _reset_info(self.envs[i])
            observations[i] = obs
            infos[i] = info
            last_obs[i] = obs
        return VecStep(
            observations, np.asarray(rewards), np.asarray(dones), infos
        )

    # ------------------------------------------------------------------
    def action_masks(self) -> np.ndarray:
        """Stacked validity masks via one batched busy compare."""
        t_col = self._T[:, None]
        busy = np.concatenate(
            (self._NODE_BUSY > t_col, self._PLC_BUSY > t_col,
             np.zeros((self.num_envs, 1), dtype=bool)),
            axis=1,
        )
        return np.logical_not(busy[:, self.envs[0]._mask_positions])
