"""In-memory span tracer that wraps mfskit functions from outside the package.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``note`` is a small value derived
from the call's result after the clock stopped (a walk count, a result
object), so deriving it is never billed to the span itself.  Spans stay in
``Tracer.spans`` until the run ends.

Wrapping replaces a module attribute under the name its *caller* looks up,
for example ``mfskit.protocol.most_frequent_sequence``: a function bound by
``from .walks import most_frequent_sequence`` is read from the importing
module's globals at call time, so patching that module's attribute traces
exactly the calls made from it.  ``uninstall`` restores every original, so
an untraced unit of work runs the unmodified code.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def traced(self, fn, name: str, note=None):
        """Return `fn` wrapped so that each call records a span `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # -- patching --------------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        self.patch(module, attr, self.traced(getattr(module, attr), name, note))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the time its children cover.

    Children of one span run one after another on a single thread, so the
    time they cover is the sum of their durations.
    """
    hi = len(spans) if hi is None else hi
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent >= lo:
            own[parent - lo] -= spans[i][END] - spans[i][START]
    return own


def nesting_violations(spans: list[list]) -> int:
    """Count spans whose descendants' self times sum to more than the span.

    The descendants' self times telescope to the children's durations, so
    this checks that every child lies inside its parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        parent = s[PARENT]
        if parent >= 0:
            covered[parent] += s[END] - s[START]
            if s[START] < spans[parent][START] or s[END] > spans[parent][END]:
                covered[parent] = float("inf")
    return sum(1 for s, c in zip(spans, covered) if c > s[END] - s[START])
