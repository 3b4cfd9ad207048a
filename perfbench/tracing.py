"""In-memory spans around calls into the library, for the traced run.

A `Tracer` replaces module attributes and instance methods with wrappers
that record one span per call: name, start, end (``perf_counter_ns``),
the index of the span that was open when the call began, and the type of
any exception that left the call.  Optional observers see each call's
arguments and result and add to named counters, so ratios are counted
where the work happens.  `Tracer.restore` puts back every attribute it
replaced; nothing in the library is edited.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None        # index into Tracer.spans, None for a root
    error: str | None = None  # exception type that left the call


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._open = []       # indices of the spans still running
        self._patched = []    # (owner, attr, owned, previous), in patch order

    def wrap(self, name, fn, observe=None):
        """`fn` with a span per call; `observe(counts, args, kwargs, result)`
        runs after the span closes, on calls that returned."""
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr, name, observe=None):
        """Trace calls of `owner.attr`, a module function or an instance method."""
        own = vars(owner)
        self._patched.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def restore(self):
        """Undo every patch, newest first: an instance method patched on the
        instance is deleted again so the class attribute shows through."""
        while self._patched:
            owner, attr, owned, previous = self._patched.pop()
            if owned:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def covered_ns(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_ns(children[i])
            for i, s in enumerate(spans)]


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: Counter = field(default_factory=Counter)


def aggregate(spans):
    """Calls, total and self time, and exception counts per span name."""
    stats = defaultdict(SpanStats)
    for s, own in zip(spans, self_times(spans)):
        st = stats[s.name]
        st.calls += 1
        st.total_ns += s.end - s.start
        st.self_ns += own
        if s.error is not None:
            st.errors[s.error] += 1
    return dict(stats)


def root_ns(spans):
    """Wall time covered by spans that no other span encloses."""
    return covered_ns([(s.start, s.end) for s in spans if s.parent is None])
