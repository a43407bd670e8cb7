"""In-memory span recorder for the traced benchmark runs.

A span is ``(id, name, start_ns, end_ns, parent, thread)``: ``parent`` is
the id of the span open on the same thread when it started.  Rounds and
requests are attributed by time: the client knows when each round or
request window began and ended on the same monotonic clock.  Spans stay
in memory and are written out once, when the traced process ends.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans; children on other threads may
overlap one another, so their intervals are merged before subtracting.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans and per-span notes; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.notes: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        """Open a span on the calling thread; returns a token for :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return (span_id, name, parent, time.monotonic_ns())

    def end(self, token: tuple) -> int:
        """Close the span opened by :meth:`begin`; returns its id."""
        end_ns = time.monotonic_ns()
        span_id, name, parent, start_ns = token
        self._stack().pop()
        with self._lock:
            self.spans.append(
                (span_id, name, start_ns, end_ns, parent, threading.get_ident())
            )
        return span_id

    def note(self, span_id: int, key: str, value) -> None:
        """Attach ``key = value`` to a closed span (counts from results)."""
        with self._lock:
            self.notes.setdefault(span_id, {})[key] = value

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` recording one span per call.

        ``observe(recorder, span_id, args, result)`` runs after the call,
        outside the span, to note counts taken from the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_id = self.end(token)
            if observe is not None:
                observe(self, span_id, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write spans and notes as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "notes": self.notes}, handle)


def _covered(intervals: list[tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Map span id to its self time in ns (duration minus covered children)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - _covered(children[span[0]], span[2], span[3])
        for span in spans
    }


def union_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals (any threads)."""
    if not intervals:
        return 0
    return _covered(intervals, min(a for a, _ in intervals), max(b for _, b in intervals))
