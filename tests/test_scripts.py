"""scripts/bench_diagnose.py runs on tiny instances, so a change to the
`bkz diagnose` pipeline or to the tracer the script borrows cannot break
it unnoticed."""

import importlib
import json
import os
from pathlib import Path

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
    monkeypatch.setattr(module, "SHAPE", (40, 20, 0.1))
    monkeypatch.setattr(module, "BLOCKS", ((30, 12, 0.4, 7),))
    monkeypatch.setattr(module, "EVALS", (30, 12, 0.4, (2, 5)))
    monkeypatch.setattr(module, "MATRIX_FREE_BLOCK", (30, 12, 0.4, 9, (2,)))
    monkeypatch.setattr(module, "JVP_PAIRS", 9)
    monkeypatch.setattr(module, "REPEATS", 1)
    monkeypatch.setattr(module, "KERNEL_REPEATS", 1)
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
        assert calls["jvp"] == 1
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
            for r in report["grad_block"]] == [(30, 12, 7, 12), (30, 12, 7, 5)]
    assert [(r["m"], r["n"], r["rows"], r["support"])
            for r in report["grad_block_matrix_free"]] == [(30, 12, 9, 2)]
    assert all(r["ms"] > 0 for key in ("grad_block", "grad_block_matrix_free")
               for r in report[key])
    assert [(r["m"], r["n"], r["support"]) for r in report["eval_all"]] == [
        (30, 12, 2), (30, 12, 5)]
    assert all(r["ms"] > 0 for r in report["eval_all"])
    for key in ("jvp", "jvp_matrix_free"):
        jvp = report[key]
        assert (jvp["m"], jvp["n"], jvp["pairs"]) == (40, 20, 9) and jvp["ms"] > 0
