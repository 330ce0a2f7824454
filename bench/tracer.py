"""Spans around the public functions of each layer, recorded from outside.

The tracer rebinds module attributes to timing wrappers and restores the
originals on exit, so `superstring` itself is unchanged.  Spans are kept in
memory as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            span[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind each (module, attribute, span name) for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time (span minus its direct children) per span name."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans[first:]:
            if parent is not None and parent >= first:
                child_time[parent] += end - start
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def calls(self, first: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[first:])
