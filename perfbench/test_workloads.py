"""Tests of the benchmark passes on tiny instances.

Run with the package on the path:  PYTHONPATH=src python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import layers
from tracing import Tracer
from workloads import WORKLOADS, Workload, end_to_end, repetitions, run_pass

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())

TINY = [
    Workload("tiny-solve", "gaussian", 12, 6, 0.3,
             ("nbk", "abnbk-c", "abnbk-a"), 1, why="test"),
    Workload("tiny-dct", "dct", 10, 5, 0.4, ("abnbk-a",), 1, why="test",
             matrix_free=True),
    Workload("tiny-audit", "gaussian", 12, 6, 0.3, ("mrnbk", "abnbk-a"), 1,
             why="test", audit=True),
]


def test_listed_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_repetitions_scale_with_run_length():
    w = WORKLOADS["dct-matfree"]
    assert repetitions(w, SPEC["run_seconds"], SPEC["run_seconds"]) == w.reps
    assert repetitions(w, 2 * SPEC["run_seconds"], SPEC["run_seconds"]) == 2 * w.reps
    assert repetitions(w, 0.01, SPEC["run_seconds"]) == 1


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_pass_reproduces_untraced_pass(workload, tmp_path):
    untraced = run_pass(workload, 3, 1, 2, tmp_path)
    tracer = Tracer()
    traced = run_pass(workload, 3, 1, 2, tmp_path, tracer)
    assert untraced.failed == traced.failed == 0, untraced.problems + traced.problems
    assert untraced.outcomes == traced.outcomes
    assert len(untraced.outcomes) == len(workload.presets)
    assert layers.still_patched([], []) == []

    metrics = layers.per_layer(tracer, traced, untraced)
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert metrics["solver.iterations"][0] >= sum(o.iterations for o in traced.outcomes)
    assert metrics["systems.eval_all.calls"][0] > 0
    assert 0.9 < metrics["trace.coverage"][0] <= 1.0
    assert 0.0 <= metrics["trace.unattributed_frac"][0] < 0.5
    if workload.audit:
        assert metrics["diagnostics.eta_pairs"][0] > 0
    if workload.matrix_free:
        assert metrics["systems.eval_component.calls"][0] > 0

    e2e = end_to_end(workload, untraced)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert ("audit_s" in e2e) == workload.audit
