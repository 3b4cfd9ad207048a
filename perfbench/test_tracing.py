"""Tests of the benchmark's span recording, self time and aggregation.

Run with the package on the path:  PYTHONPATH=src python -m pytest perfbench
"""

import types

import pytest

from tracing import Span, Tracer, aggregate, covered_ns, root_ns, self_times


class Clock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def test_covered_ns_merges_overlaps():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (20, 25)]) == 15
    assert covered_ns([(0, 10), (5, 12), (2, 3)]) == 12
    assert covered_ns([(5, 12), (0, 10), (12, 14)]) == 14


def test_nested_spans_and_self_time():
    clock = Clock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(3))

    def outer():
        clock.work(2)
        leaf()
        clock.work(1)
        leaf()
        clock.work(4)

    tracer.wrap("outer", outer)()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert self_times(tracer.spans) == [7, 3, 3]
    stats = aggregate(tracer.spans)
    assert (stats["outer"].calls, stats["outer"].total_ns, stats["outer"].self_ns) == (1, 13, 7)
    assert (stats["leaf"].calls, stats["leaf"].total_ns, stats["leaf"].self_ns) == (2, 6, 6)
    assert root_ns(tracer.spans) == 13


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 10, None), Span("a", 1, 6, 0), Span("b", 4, 8, 0)]
    assert self_times(spans)[0] == 3


def test_exception_closes_span_and_is_counted():
    clock = Clock()
    tracer = Tracer(clock)

    def fail():
        clock.work(5)
        raise ZeroDivisionError

    traced = tracer.wrap("fail", fail)
    with pytest.raises(ZeroDivisionError):
        traced()
    tracer.wrap("after", lambda: None)()
    first, after = tracer.spans
    assert (first.end - first.start, first.error) == (5, "ZeroDivisionError")
    assert after.parent is None     # the failed span no longer counts as open
    assert aggregate(tracer.spans)["fail"].errors == {"ZeroDivisionError": 1}


def test_observer_sees_results_of_returned_calls_only():
    tracer = Tracer(Clock())

    def observe(counts, args, kwargs, result):
        counts["rows"] += len(args[0])
        counts["out"] += result

    traced = tracer.wrap("f", lambda rows, k=0: k, observe)
    traced([1, 2, 3], k=4)
    traced([1])
    assert tracer.counts == {"rows": 4, "out": 4}


class Shape:
    def area(self):
        return 2


def test_restore_puts_back_module_functions_and_instance_methods():
    module = types.ModuleType("fake")
    module.f = lambda: 1
    original = module.f
    shape = Shape()
    tracer = Tracer(Clock())
    tracer.patch(module, "f", "fake.f")
    tracer.patch(shape, "area", "shape.area")
    assert module.f() == 1 and shape.area() == 2
    assert module.f is not original and "area" in vars(shape)
    tracer.restore()
    assert module.f is original
    assert "area" not in vars(shape) and shape.area() == 2
    assert [s.name for s in tracer.spans] == ["fake.f", "shape.area"]
