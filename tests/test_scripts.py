"""The benchmark scripts under scripts/ run on tiny instances, so a change
to the library calls they make cannot break them unnoticed."""

import importlib
import os
from pathlib import Path

import pytest

from bregman_kaczmarz import cli
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz.priors import SparsePrior

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    # on import the scripts pin BLAS threads in the environment and put src
    # on the path; both are undone after the test
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return (importlib.import_module("bench_eta"),
            importlib.import_module("bench_diagnose"),
            importlib.import_module("bench_gradcheck"))


@pytest.mark.parametrize("kind, matrix_free", [(gen.GAUSSIAN, False),
                                               (gen.DCT, True)])
def test_bench_eta_measure(scripts, monkeypatch, kind, matrix_free):
    bench_eta, _, _ = scripts
    monkeypatch.setattr(bench_eta, "M", 40)
    monkeypatch.setattr(bench_eta, "N", 20)
    monkeypatch.setattr(bench_eta, "REPEATS", 1)
    result = bench_eta.measure(1, kind, matrix_free)
    presets = result["presets"]
    assert list(presets) == cli.SOLVER_NAMES
    assert result["pairs"] == sum(p["pairs"] for p in presets.values())
    for p in presets.values():
        steps = p["steps"]
        assert p["pairs"] == 2 * steps + 1
        assert p["eval_all_calls_before"] == 2 * p["pairs"]
        assert p["eval_all_calls_after"] == steps + 2
        assert p["sample_count_after"] == p["sample_count_before"]
        # the two linear terms sum the same products in another order
        assert p["eta_after"] == pytest.approx(p["eta_before"], rel=1e-9)


def test_bench_diagnose_measure(scripts, monkeypatch):
    # measure raises unless both versions give the audit of audit_run; at
    # seed 1 the (40, 20) instance has valid and refused audits
    _, bench_diagnose, _ = scripts
    monkeypatch.setattr(bench_diagnose, "REPEATS", 2)
    inst_seed, _, solver_seed = cli.derived_seeds(1, 0)
    instance = gen.generate(gen.GeneratorSpec(gen.GAUSSIAN, 40, 20, 0.1,
                                              seed=inst_seed))
    prior = SparsePrior(cli.DEFAULT_LAMBDA)
    rows = [bench_diagnose.measure(instance, prior, preset, solver_seed)
            for preset in cli.SOLVER_NAMES]
    assert {row["valid"] for row in rows} == {True, False}
    for row in rows:
        steps = row["iterations"]
        assert row["before"]["eval_all_calls"] == 2 * steps + 3
        assert row["after"]["eval_all_calls"] == steps + 2
        assert row["before"]["block_jacobians_built"] == steps
        assert row["after"]["block_jacobians_built"] == (steps if row["valid"]
                                                         else 0)
    summary = bench_diagnose.summarize([dict(rep=0, **row) for row in rows])
    assert summary["valid"] == sum(row["valid"] for row in rows)


@pytest.mark.parametrize("kind, matrix_free", [(gen.GAUSSIAN, False),
                                               (gen.DCT, True)])
def test_bench_gradcheck_measure_check(scripts, monkeypatch, kind, matrix_free):
    _, _, bench_gradcheck = scripts
    monkeypatch.setattr(bench_gradcheck, "M", 40)
    monkeypatch.setattr(bench_gradcheck, "N", 20)
    monkeypatch.setattr(bench_gradcheck, "TRIALS", 3)
    monkeypatch.setattr(bench_gradcheck, "REPEATS", 1)
    result = bench_gradcheck.measure_check(1, kind, matrix_free)
    assert result["storage"] == ("matrix-free" if matrix_free else "dense")
    # both checks pass, and differ only by the rounding of F_i
    assert 0.0 < result["grad_dev_before"] <= 1e-5
    assert 0.0 < result["grad_dev_after"] <= 1e-5
    assert result["ms_per_trial_before"] > 0 and result["ms_per_trial_after"] > 0


def test_bench_gradcheck_measure_block(scripts, monkeypatch):
    _, _, bench_gradcheck = scripts
    monkeypatch.setattr(bench_gradcheck, "REPEATS", 1)
    result = bench_gradcheck.measure_block(30, 12, 0.4, 7)
    assert result["rows"] == 7
    assert result["bit_equal"] is True
