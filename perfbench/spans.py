"""Self-time span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary:
:meth:`SpanRecorder.wrap` replaces a method or module function with a
timing wrapper, so no program file needs to know it is being measured.
A span's *self* time is its duration minus the time of the spans it
encloses, so the self times of all layers plus the root span's self
time ("unattributed") add up to the wall time of the root spans.

Wrapping is only done in ``--trace 1`` runs; end-to-end metrics come
from runs without any wrapper installed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class SpanRecorder:
    """Per-name self time and call counts, kept in memory."""

    def __init__(self):
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_seconds[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def add(self, name: str, value: float) -> None:
        """Accumulate a value measured elsewhere (e.g. by a server)."""
        self.extra[name] += value

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a class (all instances), an instance, or a module.
        A missing attribute is reported on stderr and skipped, so a
        refactored program still runs; its layer then reads zero. Calls
        made outside every open span (set-up, per-request preparation,
        output checks) are not timed.
        """
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: cannot trace {getattr(owner, '__name__', owner)}"
                  f".{attr} (not found); {name} reads 0", file=sys.stderr)
            return False
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder._stack:
                return original(*args, **kwargs)
            recorder.enter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.exit(name)

        setattr(owner, attr, traced)
        return True
