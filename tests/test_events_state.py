"""Tests for the event queue and the dynamic network state."""

import pytest

from repro.config import tiny_network
from repro.net import Condition, build_topology
from repro.net.topology import L2_OPS, L2_QUAR
from repro.sim.events import EventQueue
from repro.sim.state import NetworkState


@pytest.fixture()
def state():
    return NetworkState(build_topology(tiny_network().topology))


class TestEventQueue:
    def test_pop_due_returns_in_time_order(self):
        q = EventQueue()
        q.push(5, "c")
        q.push(1, "a")
        q.push(3, "b")
        assert q.pop_due(5) == ["a", "b", "c"]

    def test_pop_due_leaves_future_events(self):
        q = EventQueue()
        q.push(1, "now")
        q.push(10, "later")
        assert q.pop_due(5) == ["now"]
        assert len(q) == 1
        assert q.peek_time() == 10

    def test_same_time_fifo(self):
        q = EventQueue()
        for name in "abc":
            q.push(2, name)
        assert q.pop_due(2) == ["a", "b", "c"]

    def test_same_hour_payloads_pop_in_push_order_uncompared(self):
        """Dicts cannot be ordered: the queue must never compare two
        payloads, and same-hour events pop in push order."""
        q = EventQueue()
        payloads = [{"launch": i} for i in range(5)]
        for payload in payloads:
            q.push(3, payload)
        q.push(1, {"launch": "first"})
        due = q.pop_due(3)
        assert due == [{"launch": "first"}, *payloads]
        assert all(got is want for got, want in zip(due[1:], payloads))

    def test_empty_pop(self):
        q = EventQueue()
        assert q.pop_due(100) == []
        assert q.peek_time() is None

    def test_clear(self):
        q = EventQueue()
        q.push(1, "x")
        q.clear()
        assert len(q) == 0


class TestConditionManipulation:
    def test_set_requires_prereq(self, state):
        assert not state.set_condition(0, Condition.COMPROMISED)
        assert state.set_condition(0, Condition.SCANNED)
        assert state.set_condition(0, Condition.COMPROMISED)
        assert state.is_compromised(0)

    def test_full_ladder(self, state):
        for cond in (Condition.SCANNED, Condition.COMPROMISED, Condition.ADMIN,
                     Condition.CRED_PERSIST, Condition.CLEANED,
                     Condition.REBOOT_PERSIST):
            assert state.set_condition(0, cond)
        assert state.conditions[0].all()

    def test_cred_persist_needs_admin(self, state):
        state.set_condition(0, Condition.SCANNED)
        state.set_condition(0, Condition.COMPROMISED)
        assert not state.set_condition(0, Condition.CRED_PERSIST)

    def test_clear_node(self, state):
        state.set_condition(0, Condition.SCANNED)
        state.set_condition(0, Condition.COMPROMISED)
        state.clear_node(0)
        assert not state.conditions[0].any()


class TestQuarantine:
    def test_move_and_flag(self, state):
        assert not state.is_quarantined(0)
        state.move_node(0, L2_QUAR)
        assert state.is_quarantined(0)
        state.move_node(0, L2_OPS)
        assert not state.is_quarantined(0)

    def test_unknown_vlan_rejected(self, state):
        with pytest.raises(KeyError):
            state.move_node(0, "vlan-nope")


class TestBusyBookkeeping:
    def test_node_busy_until(self, state):
        state.node_busy_until[0] = 5
        state.t = 4
        assert state.node_busy(0)
        state.t = 5
        assert not state.node_busy(0)

    def test_plc_busy(self, state):
        state.plc_busy_until[1] = 3
        state.t = 0
        assert state.plc_busy(1)
        assert not state.plc_busy(0)


class TestAggregates:
    def test_compromise_counts_split_by_type(self, state):
        ws = 0  # workstation id in tiny topology
        server = next(
            n.node_id for n in state.topology.nodes if n.is_server
        )
        for node in (ws, server):
            state.set_condition(node, Condition.SCANNED)
            state.set_condition(node, Condition.COMPROMISED)
        assert state.n_compromised() == 2
        assert state.n_workstations_compromised() == 1
        assert state.n_servers_compromised() == 1

    def test_plc_counts(self, state):
        state.plc_disrupted[0] = True
        state.plc_disrupted[1] = True
        state.plc_destroyed[1] = True
        assert state.n_plcs_disrupted() == 1  # destroyed subsumes disrupted
        assert state.n_plcs_destroyed() == 1
        assert state.n_plcs_offline() == 2

    def test_snapshot_is_independent_copy(self, state):
        snap = state.snapshot()
        state.set_condition(0, Condition.SCANNED)
        assert not snap["conditions"][0, Condition.SCANNED]

    def test_compromised_mask_copy(self, state):
        mask = state.compromised_mask()
        mask[:] = True
        assert state.n_compromised() == 0
