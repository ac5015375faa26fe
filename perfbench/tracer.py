"""Span tracer installed from outside the program under test.

``Tracer.wrap`` replaces a module attribute with a timing wrapper and
remembers the original; ``Tracer.restore`` puts every original back.  Spans
are kept in memory as (name, start, end, parent, size).  A span's self time
is its duration minus the durations of its direct children; the process is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent index, size]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, size: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, size])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def is_open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, and self time per (name, size)."""
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _, size), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if size is not None:
                out[f"{name}.self_s.n{size}"] += own
        return out

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, size_of=None, on_call=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``size_of(args, kwargs)`` gives the grid size recorded with the span;
        ``on_call(args, kwargs, result)`` may add to ``counters``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name, size_of(args, kwargs) if size_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr: str, on_call) -> None:
        """Call ``on_call(args, kwargs)`` before every call of ``owner.attr``; no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            on_call(args, kwargs)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
