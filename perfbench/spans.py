"""In-memory spans and counters recorded around calls into bcp's layers.

The tracer patches module attributes and class methods from outside the
package, so the program itself is unchanged.  Each span carries a name,
start, end, parent span and request id; spans stay in memory until the
run ends.  Counters are plain integers bumped at the same boundaries.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            **self.attrs,
        }


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class Tracer:
    """Collects spans and counts for one benchmark run.

    Worker threads started by bcp's Monte Carlo engine begin with an
    empty span stack; their spans take the innermost open span of the
    main thread as parent, which is the estimate that spawned them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.request,
                        threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, k: int = 1) -> None:
        key = (self.request, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name: str, fn, on_call=None):
        """Return fn wrapped in a span; on_call(attrs, args) may annotate it."""

        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                if on_call is not None:
                    on_call(attrs, args)
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        """Return fn wrapped so that each call bumps counter `name`."""

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def patched(patches):
    """Temporarily set (owner, attribute, value) triples; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
