"""scripts/bench_diagnose.py runs on tiny instances, so a change to the
`bkz diagnose` pipeline or to the tracer the script borrows cannot break
it unnoticed."""

import dataclasses
import importlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bregman_kaczmarz import cli, diagnostics, generators, solver

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench(monkeypatch):
    # on import the script pins BLAS threads in the environment and puts
    # src and perfbench on the path; both are undone after the test
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module("bench_diagnose")
    # tiny copies of the workloads, with room for the block rows and
    # support sizes of KERNELS; the benchmark's own table stays as it is
    tiny = {"row-sparse": dict(m=30, n=12, sp=0.2),
            "block-dense": dict(m=120, n=75),
            "dct-matfree": dict(m=80, n=12, sp=0.2, reps=2),
            "diagnose": dict(m=40, n=20, sp=0.1)}
    monkeypatch.setattr(module, "WORKLOADS", {
        name: dataclasses.replace(w, **tiny[name])
        for name, w in module.WORKLOADS.items()})
    for name in ("REPEATS", "KERNEL_REPEATS", "REPLAYS"):
        monkeypatch.setattr(module, name, 1)
    monkeypatch.setattr(module, "REMAINDER_PAIRS", 9)
    return module


def test_bench_diagnose_main(bench, tmp_path):
    modules = (cli, diagnostics, generators, solver)
    library = [dict(vars(module)) for module in modules]
    out = tmp_path / "bench.json"
    bench.main(["--out", str(out)])
    assert [dict(vars(module)) for module in modules] == library

    report = json.loads(out.read_text())
    assert [(r["storage"], r["seed"]) for r in report["results"]] == [
        (storage, seed) for storage, _, _ in bench.STORAGES
        for seed in bench.SEEDS]
    audits = [a for r in report["results"] for a in r["audits"]]
    trials = diagnostics.GRADIENT_TRIALS
    assert len(audits) == 8 * len(cli.SOLVER_NAMES)
    assert {a["valid"] for a in audits} == {True, False}
    for a in audits:
        steps = a["iterations"]
        calls = {name: span["calls"] for name, span in a["spans"].items()}
        assert calls["diagnose"] == calls["run"] == calls["estimate_eta"] == 1
        assert calls["eval_all"] == steps + 2
        assert calls["remainders"] == 1
        assert 0 <= a["pair"] <= 2 * steps and 0 <= a["row"] < 40
        if a["valid"]:
            assert a["exit_code"] in (cli.EXIT_OK, cli.EXIT_DEGENERATE)
            assert calls["grad_block"] == 2 * steps + trials
            assert calls["check_gradients"] == 1
            assert calls["eval_points"] == trials
            assert a["grad_dev"] <= diagnostics.GRADIENT_TOL
        else:
            assert a["exit_code"] == cli.EXIT_VALIDATION
            assert calls["grad_block"] == steps
            assert "check_gradients" not in calls and "eval_points" not in calls
            assert "grad_dev" not in a
    assert [(r["m"], r["n"], r["rows"], r["support"])
            for r in report["grad_block"]] == [(120, 75, 113, 75), (120, 75, 113, 30),
                                               (40, 20, 20, 20), (40, 20, 20, 2)]
    assert [(r["m"], r["n"], r["rows"], r["support"])
            for r in report["grad_block_matrix_free"]] == [(80, 12, 72, 8)]
    assert all(r["ms"] > 0 for key in ("grad_block", "grad_block_matrix_free")
               for r in report[key])
    # each preset's replayed solve holds the blocks the solver asked for,
    # one a step
    solves = report["grad_block_matrix_free_solve"]
    assert [r["preset"] for r in solves] == list(cli.SOLVER_NAMES)
    for solve in solves:
        _, calls = bench.recorded_calls(bench.WORKLOADS["dct-matfree"],
                                        solve["preset"], ("grad_block",))
        calls = [args for _, args in calls]
        assert (solve["m"], solve["n"]) == (80, 12)
        assert solve["steps"] == len(calls) > 1
        assert solve["rows"] == sum(idx.size for idx, _ in calls)
        assert solve["pairs_shared"] == bench.shared_pairs(calls)
        assert 0 <= solve["pairs_shared"] <= 1 and solve["ms_per_step"] > 0
    # the replayed dct-matfree solves of each seed: one residual at the
    # start and one a step, one block a step, and the cosines of both
    for solve, seed in zip(report["matrix_free_solves"], bench.SEEDS, strict=True):
        assert (solve["m"], solve["n"], solve["seed"]) == (80, 12, seed)
        assert solve["solves"] == 2 and solve["preset"] == "abnbk-a"
        steps = solve["block_calls"]
        assert solve["residual_calls"] == steps + 2 and steps >= 2
        assert solve["residual_ms_per_call"] > 0 and solve["block_ms_per_call"] > 0
        assert solve["residual_cosines"] > 0 and solve["block_cosines"] > 0
        assert (solve["residual_cosines"] + solve["block_cosines"]
                == 2 * solve["cosines_per_solve"])
    assert [(r["m"], r["n"], r["support"]) for r in report["eval_all"]] == [
        (120, 75, 5), (120, 75, 42), (120, 75, 73)]
    assert all(r["ms"] > 0 for r in report["eval_all"])
    # each replayed single-row solve holds the residuals the solver asked
    # for, one at the start and one a step
    solves = report["eval_all_solve"]
    assert [r["preset"] for r in solves] == list(bench.WORKLOADS["row-sparse"].presets)
    for solve in solves:
        _, calls = bench.recorded_calls(bench.WORKLOADS["row-sparse"],
                                        solve["preset"], ("eval_all",))
        points = [x for _, (x,) in calls]
        assert (solve["m"], solve["n"]) == (30, 12)
        assert solve["calls"] == len(points) > 1
        assert (solve["within_budget"], solve["pairs_new"]) == \
            bench.pair_shares(points, 12)
        assert 0 < solve["within_budget"] <= 1 and 0 <= solve["pairs_new"] <= 1
        assert solve["ms_per_call"] > 0
    for key in ("remainders", "remainders_matrix_free"):
        r = report[key]
        assert (r["m"], r["n"], r["pairs"]) == (40, 20, 9) and r["ms"] > 0


def test_shared_pairs(bench):
    # pairs of each block that the block before had, over all pairs: the
    # first block shares none, a repeat all, and x = 0 gives no pairs
    x = np.zeros(6)
    x[[1, 4]] = 1.0
    y = np.zeros(6)
    y[[4, 5]] = 1.0
    calls = [(np.array([0, 2]), x), (np.array([2, 3]), y),
             (np.array([2, 3]), y), (np.array([3]), np.zeros(6))]
    # pairs 4 + 4 + 4; shared 0, (2, 4), all 4
    assert bench.shared_pairs(calls) == 5 / 12
    assert bench.shared_pairs([]) == 0


def test_counted_cosines(bench):
    # on a fresh matrix-free system, a residual at |S| = 3 within the
    # budget computes the 2 m cosines of each of its |S| (|S| + 1) / 2
    # pairs once, and again nothing; a single gradient row the 2 n |S| of
    # its support rows; the replay leaves the module's numpy in place
    m, n = 9, 12
    rng = np.random.default_rng(0)
    system = bench.DCTQuadraticSystem(rng.random((m, n)),
                                      rng.standard_normal((m, n)), np.zeros(m))
    x = np.zeros(n)
    x[[1, 4, 7]] = 1.0
    solves = [(system, [("eval_all", (x,)), ("eval_all", (x,)),
                        ("grad_block", ([3], x))])]
    assert {method: bench.counted_cosines(solves, method)
            for method in ("eval_all", "grad_block")} == {
        "eval_all": m * 3 * 4, "grad_block": 2 * n * 3}
    assert bench.systems.np is np


def test_pair_shares(bench):
    # at n = 12 the budget is 12 pairs, |S| <= 4: the residual at five
    # indices is beyond it and leaves the held pairs as they are, so the
    # residual at {1, 4, 7} shares (1, 1), (1, 4) and (4, 4) with {1, 4}
    assert 12 * 12 // bench.systems._PAIR_SHARE == 12
    points = []
    for support in ({1, 4}, {1, 4}, set(range(5)), {1, 4, 7}, set()):
        x = np.zeros(12)
        x[sorted(support)] = 1.0
        points.append(x)
    # pairs 3 + 3 + 6 + 0 within the budget; new 3, 0, 3 and 0
    assert bench.pair_shares(points, 12) == (4 / 5, 6 / 12)
    assert bench.pair_shares([], 12) == (0, 0)


@pytest.mark.parametrize("section", ["grad_block", "grad_block_matrix_free",
                                     "eval_all"])
def test_bench_diagnose_times_kernels_cold(bench, monkeypatch, section):
    # every timed call at a fixed support runs on a system built for it,
    # so no call reuses the rows or pairs another one left
    built, fresh = [], bench.fresh
    monkeypatch.setattr(bench, "fresh",
                        lambda system: built.append(system) or fresh(system))
    monkeypatch.setattr(bench, "KERNEL_REPEATS", 3)
    results = [r for name, fill, workload, *extra in bench.KERNELS
               if name == section
               for r in fill(bench.WORKLOADS[workload], *extra)]
    assert results and len(built) == 3 * len(results)
