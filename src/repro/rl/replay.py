"""Experience replay: prioritized sampling (sum tree) and n-step
transition assembly (Rainbow components used by the paper: prioritized
experience replay and n-step TD loss, Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "SumTree",
    "PrioritizedReplay",
    "UniformReplay",
    "Transition",
    "NStepAssembler",
]


class SumTree:
    """Binary tree of priorities in one flat list; O(log n) ops.

    The nodes are Python floats: a walk of a few dozen scalar reads and
    writes costs less on a list than on an ndarray, and float and
    float64 arithmetic round alike, so the sums are the same bits.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.tree = [0.0] * (2 * capacity)
        self.size = 0

    @property
    def total(self) -> float:
        return self.tree[1]

    def set(self, index: int, priority: float) -> None:
        if priority < 0:
            raise ValueError("priority must be non-negative")
        i = index + self.capacity
        # write the leaf exactly, then recompute each ancestor as the
        # sum of its children: propagating the delta instead leaves
        # floating-point residue in internal nodes after overwrites
        # (e.g. a tree of all-zero leaves with total ~1e-14), which
        # lets find() land on a zero-mass leaf
        tree = self.tree
        tree[i] = float(priority)
        i //= 2
        while i >= 1:
            tree[i] = tree[2 * i] + tree[2 * i + 1]
            i //= 2

    def get(self, index: int) -> float:
        return self.tree[index + self.capacity]

    def find(self, value: float) -> int:
        """Index of the leaf where the prefix sum crosses ``value``.

        The comparison is strict so zero-mass left subtrees are skipped
        (value 0.0 must land on the first leaf with positive mass), and
        a zero-mass right subtree is never entered: rounding can leave
        ``value`` at or above the left mass even when ``value`` is below
        the node's total, which would otherwise end on a zero-mass leaf.
        """
        tree = self.tree
        value = float(value)
        i = 1
        while i < self.capacity:
            left = 2 * i
            if value < tree[left] or tree[left + 1] <= 0.0:
                i = left
            else:
                value -= tree[left]
                i = left + 1
        return i - self.capacity


@dataclass(frozen=True)
class Transition:
    """An (n-step) transition over featurized states."""

    state: Any  # FeatureSet (or raw history for the conv baseline)
    action: int
    reward: float  # already n-step-discounted, shaped, normalized
    next_state: Any
    done: bool
    discount: float  # gamma ** n for bootstrapping
    #: Monte-Carlo return-to-go (demonstrations only); anchors the
    #: pretraining value scale without a bootstrap runaway
    mc_return: float | None = None


class PrioritizedReplay:
    """Proportional prioritized replay (Schaul et al. 2016)."""

    def __init__(self, capacity: int, alpha: float = 0.6,
                 eps: float = 1e-3, seed: int = 0):
        self.capacity = capacity
        self.alpha = alpha
        self.eps = eps
        self.rng = np.random.default_rng(seed)
        self.tree = SumTree(capacity)
        self._data: list[Transition | None] = [None] * capacity
        self._next = 0
        self._size = 0
        self._max_priority = 1.0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition, priority: float | None = None) -> int:
        index = self._next
        self._data[index] = transition
        p = self._max_priority if priority is None else priority
        self.tree.set(index, (p + self.eps) ** self.alpha)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return index

    def sample(self, batch_size: int, beta: float = 0.4):
        """Returns (indices, transitions, importance weights)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        total = self.tree.total
        segment = total / batch_size
        offsets = self.rng.random(batch_size) * segment
        values = offsets + np.arange(batch_size) * segment
        indices = np.array([self.tree.find(v) for v in values], np.int64)
        indices = np.clip(indices, 0, self._size - 1)
        priorities = np.array([self.tree.get(int(i)) for i in indices])
        probs = priorities / total
        weights = (self._size * probs) ** (-beta)
        weights = weights / weights.max()
        transitions = [self._data[int(i)] for i in indices]
        return indices, transitions, weights

    def update_priorities(self, indices, td_errors) -> None:
        for index, err in zip(indices, np.abs(np.asarray(td_errors, float))):
            self._max_priority = max(self._max_priority, float(err))
            self.tree.set(int(index), (float(err) + self.eps) ** self.alpha)


class UniformReplay:
    """Uniform-sampling replay with the prioritized-replay interface.

    ``sample`` returns unit importance weights and ``update_priorities``
    is a no-op, so the trainer code is identical for both buffers --
    the PER-vs-uniform ablation flips one config flag.
    """

    def __init__(self, capacity: int, seed: int = 0, **_ignored):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self._data: list[Transition | None] = [None] * capacity
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition, priority: float | None = None) -> int:
        index = self._next
        self._data[index] = transition
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return index

    def sample(self, batch_size: int, beta: float = 0.4):
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        indices = self.rng.integers(self._size, size=batch_size)
        transitions = [self._data[int(i)] for i in indices]
        return indices, transitions, np.ones(batch_size)

    def update_priorities(self, indices, td_errors) -> None:
        return None


class NStepAssembler:
    """Builds n-step transitions from a stream of 1-step experiences."""

    def __init__(self, n: int, gamma: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.gamma = gamma
        self._pending: list[tuple[Any, int, float]] = []

    def push(self, state, action: int, reward: float,
             next_state, done: bool) -> list[Transition]:
        """Feed one experience; returns any matured n-step transitions."""
        self._pending.append((state, action, reward))
        out: list[Transition] = []
        if done:
            # flush everything with progressively shorter horizons
            while self._pending:
                out.append(self._assemble(next_state, True))
                self._pending.pop(0)
            return out
        if len(self._pending) == self.n:
            out.append(self._assemble(next_state, False))
            self._pending.pop(0)
        return out

    def _assemble(self, bootstrap_state, done: bool) -> Transition:
        state, action, _ = self._pending[0]
        reward = 0.0
        for k, (_, _, r) in enumerate(self._pending):
            reward += (self.gamma ** k) * r
        return Transition(
            state=state,
            action=action,
            reward=reward,
            next_state=bootstrap_state,
            done=done,
            discount=self.gamma ** len(self._pending),
        )

    def reset(self) -> None:
        self._pending.clear()
