"""In-memory spans around calls into the gstft layers.

A traced run replaces module attributes of the program with timing wrappers
for the duration of a ``with patched(...)`` block, so the program's own
source stays untouched and an untraced run pays nothing. Spans nest through
a stack (the benchmark is single-threaded); a span's self time is its
duration minus the durations of its direct children, which cannot overlap.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    """Collects spans ``(name, start, end, parent_index)`` and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count_bytes: tuple[str, int] | None = None):
        """``fn`` inside a span.

        ``count_bytes = (counter, i)`` adds the UTF-8 size of positional
        text argument ``i`` to ``counter`` on every call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes is not None:
                counter, index = count_bytes
                self.counters[counter] += len(args[index].encode("utf-8"))
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return out


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``module.attr`` for each ``(module, attr, span_name[, (counter, arg_index)])`` target."""
    saved = []
    try:
        for module, attr, name, *counter in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, *counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
