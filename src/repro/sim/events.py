"""Event queue for scheduled action completions.

The simulation advances in one-hour decision steps; actions started at
hour ``t`` with duration ``d`` take effect at hour ``t + d``. The queue
orders events by (time, insertion sequence) so same-hour completions
apply in launch order, keeping episodes deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

__all__ = ["EventQueue"]


class EventQueue:
    """A heap of ``(time, seq, payload)`` entries. ``seq`` is unique,
    so the heap never compares two payloads."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: int, payload: Any) -> None:
        if self._heap and time < self._heap[0][0] - 10_000_000:
            raise ValueError("event scheduled unreasonably far in the past")
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: int) -> list[Any]:
        """Remove and return payloads of all events with time <= now."""
        heap = self._heap
        due: list[Any] = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        return due

    def clear(self) -> None:
        self._heap.clear()
