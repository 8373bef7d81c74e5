"""Property-based tests (hypothesis) on core data structures and
invariants: sum tree consistency, event-queue ordering, belief
normalization, shaping telescoping, canonical-state mapping, and
autograd broadcasting in the per-op oracle."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import OpTensor as Tensor
from repro.dbn.states import canonical_states, mu_bucket
from repro.net.nodes import CONDITION_PREREQS, Condition
from repro.rl.replay import NStepAssembler, SumTree
from repro.rl.shaping import PotentialShaper
from repro.sim.events import EventQueue
from repro.utils.stats import discounted_return


@st.composite
def priority_updates(draw):
    size = draw(st.integers(2, 32))
    n_ops = draw(st.integers(1, 40))
    ops = [
        (draw(st.integers(0, size - 1)),
         draw(st.floats(0, 100, allow_nan=False, allow_infinity=False)))
        for _ in range(n_ops)
    ]
    return size, ops


class TestSumTreeProperties:
    @given(priority_updates())
    @settings(max_examples=60, deadline=None)
    def test_total_equals_sum_of_leaves(self, case):
        size, ops = case
        tree = SumTree(size)
        reference = np.zeros(size)
        for index, priority in ops:
            tree.set(index, priority)
            reference[index] = priority
        assert np.isclose(tree.total, reference.sum())
        for i in range(size):
            assert np.isclose(tree.get(i), reference[i])

    @given(priority_updates(), st.floats(0, 1, exclude_max=True))
    # rounding once sent find() into a zero-mass right subtree (leaf 14)
    @example(case=(17, [(3, 1.1), (10, 2.0), (15, 5.0), (9, 10.0),
                        (1, 0.5), (7, 2.0), (8, 10.0), (0, 0.5)]),
             frac=0.9999999999999999)
    @settings(max_examples=60, deadline=None)
    def test_find_lands_on_positive_mass(self, case, frac):
        size, ops = case
        tree = SumTree(size)
        for index, priority in ops:
            tree.set(index, priority)
        if tree.total <= 0:
            return
        found = tree.find(frac * tree.total)
        assert 0 <= found < size
        assert tree.get(found) > 0 or tree.total == 0


class TestEventQueueProperties:
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_pop_order_is_nondecreasing(self, times):
        q = EventQueue()
        for i, t in enumerate(times):
            q.push(t, (t, i))
        popped = q.pop_due(200)
        assert [p[0] for p in popped] == sorted(times)
        # FIFO within equal times
        by_time = {}
        for t, i in popped:
            by_time.setdefault(t, []).append(i)
        for seq in by_time.values():
            assert seq == sorted(seq)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=30),
           st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_pop_due_partitions_by_time(self, times, now):
        q = EventQueue()
        for t in times:
            q.push(t, t)
        popped = q.pop_due(now)
        assert all(t <= now for t in popped)
        assert len(popped) + len(q) == len(times)


class TestCanonicalStateProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_mapping_total_and_monotone(self, bitmasks):
        """Every prerequisite-consistent condition row maps to a state,
        and compromised rows never map below COMP."""
        rows = np.zeros((len(bitmasks), 6), dtype=bool)
        for i, bits in enumerate(bitmasks):
            for c in Condition:
                rows[i, c] = bool(bits >> int(c) & 1)
            # enforce Table 1 prerequisites bottom-up
            for cond in Condition:
                prereq = CONDITION_PREREQS[cond]
                if prereq is not None and not rows[i, prereq]:
                    rows[i, cond] = False
        states = canonical_states(rows)
        assert ((0 <= states) & (states <= 8)).all()
        compromised = rows[:, Condition.COMPROMISED]
        assert (states[compromised] >= 2).all()
        assert (states[~compromised] <= 1).all()

    @given(st.integers(0, 1000))
    def test_mu_bucket_monotone(self, n):
        assert mu_bucket(n) <= mu_bucket(n + 1)
        assert 0 <= mu_bucket(n) <= 3


class TestShapingProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)),
                    min_size=2, max_size=30),
           st.floats(0.5, 0.9999))
    @settings(max_examples=60, deadline=None)
    def test_telescoping(self, counts, gamma):
        shaper = PotentialShaper(gamma)
        phis = [shaper.potential(w, s) for w, s in counts]
        total = 0.0
        for t in range(len(phis) - 1):
            done = t == len(phis) - 2
            total += gamma ** t * shaper.shape(phis[t], phis[t + 1], done=done)
        assert np.isclose(total, -phis[0])


class TestNStepProperties:
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
           st.integers(1, 8), st.floats(0.5, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_flushed_rewards_match_discounted_suffix(self, rewards, n, gamma):
        asm = NStepAssembler(n, gamma)
        emitted = []
        for i, r in enumerate(rewards):
            done = i == len(rewards) - 1
            emitted.extend(asm.push(i, 0, r, i + 1, done))
        assert len(emitted) == len(rewards)
        # transition starting at index i carries the discounted sum of
        # the next min(n, T-i) rewards
        for i, tr in enumerate(emitted):
            window = rewards[i:i + n]
            assert np.isclose(tr.reward, discounted_return(window, gamma))


class TestAutogradProperties:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_add_grad_shapes(self, a, b, c):
        x = Tensor(np.ones((a, 1, c)), requires_grad=True)
        y = Tensor(np.ones((b, c)), requires_grad=True)
        ((x + y) ** 2).sum().backward()
        assert x.grad.shape == x.shape
        assert y.grad.shape == y.shape

    @given(st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_softmax_grad_sums_to_zero(self, n):
        """d(softmax)/dx satisfies sum-to-zero rows: gradient of any
        single output wrt inputs sums to ~0."""
        x = Tensor(np.linspace(-1, 1, n), requires_grad=True)
        y = x.softmax(axis=-1)
        y[0].sum().backward()
        assert np.isclose(x.grad.sum(), 0.0, atol=1e-10)
