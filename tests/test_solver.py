import dataclasses

import numpy as np
import pytest

from conftest import affine_system

from bregman_kaczmarz import cli
from bregman_kaczmarz import selection as sel
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.generators import GeneratorSpec, generate
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.systems import NonlinearSystem


def small_instance(seed=5, m=20, n=10, sp=0.2):
    return generate(GeneratorSpec("gaussian", m, n, sp, seed=seed))


class Exploding(NonlinearSystem):
    """F(x) = exp(x^2) - 2, which overflows at the start x = 40."""
    m, n = 1, 1

    def eval_component(self, i, x):
        with np.errstate(over="ignore"):
            return float(np.exp(x[0] ** 2) - 2.0)

    def grad_component(self, i, x):
        return np.array([2.0 * x[0] * np.exp(x[0] ** 2)])


class Logarithm(NonlinearSystem):
    """F(x) = log(x); the first step from x = 3 lands at x < 0."""
    m, n = 1, 1

    def eval_component(self, i, x):
        with np.errstate(invalid="ignore"):
            return float(np.log(x[0]))

    def grad_component(self, i, x):
        return np.array([1.0 / x[0]])


def _history_case(seed, stepsize, max_iters, status):
    inst = small_instance(seed=seed)
    config = slv.SolverConfig(selection=sel.GreedyBlock(0.1), stepsize=stepsize,
                              max_iters=max_iters)
    x0 = np.random.default_rng(seed).standard_normal(10)
    return inst.system, SparsePrior(2.0), config, x0, inst.truth, status


# (system, prior, config, x0, truth, status) for each way a run ends
HISTORY_CASES = {
    "converged": _history_case(5, sel.Adaptive(1.3), 1000, slv.CONVERGED),
    "max_iters": _history_case(5, sel.Constant(1.0), 20, slv.MAX_ITERS),
    "zero_gradient": (affine_system(np.zeros((1, 2)), np.array([1.0])),
                      SparsePrior(0.0),
                      slv.SolverConfig(selection=sel.MaxResidual()),
                      np.zeros(2), None, slv.DEGENERATE),
    "non_finite_start": (Exploding(), SparsePrior(0.0),
                         slv.SolverConfig(selection=sel.MaxResidual()),
                         np.array([40.0]), None, slv.DEGENERATE),
    "non_finite_step": (Logarithm(), SparsePrior(0.0),
                        slv.SolverConfig(selection=sel.MaxResidual()),
                        np.array([3.0]), None, slv.DEGENERATE),
}


class TestSolutionError:
    def test_exact(self, rng):
        t = rng.standard_normal(4)
        assert slv.solution_error(t, t) == 0.0

    def test_zero_estimate(self, rng):
        t = rng.standard_normal(4)
        assert slv.solution_error(np.zeros(4), t) == pytest.approx(1.0)

    def test_double(self, rng):
        t = rng.standard_normal(4)
        assert slv.solution_error(2.0 * t, t) == pytest.approx(1.0)

    def test_zero_truth(self):
        with pytest.raises(slv.ZeroTruth):
            slv.solution_error(np.ones(3), np.zeros(3))


class TestConfigValidation:
    def test_max_iters(self):
        with pytest.raises(ValueError):
            slv.SolverConfig(max_iters=0)

    def test_tol(self):
        for tol in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                slv.SolverConfig(tol=tol)

    def test_block_norm(self):
        with pytest.raises(ValueError):
            slv.SolverConfig(block_norm="nuclear")

    def test_low_alpha_warns(self):
        with pytest.warns(UserWarning):
            slv.SolverConfig(stepsize=sel.Constant(0.5))

    def test_low_delta_warns(self):
        with pytest.warns(UserWarning):
            slv.SolverConfig(stepsize=sel.Adaptive(0.5))


class TestReductionOracles:
    """Independent re-implementations of the collapsed special cases."""

    def test_maximal_residual_linear_kaczmarz(self, rng):
        # affine system, zero shrinkage, theta=1, alpha=1: plain hyperplane
        # projection onto the worst-violated row
        B = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        sys = affine_system(B, y)
        prior = SparsePrior(0.0)
        config = slv.SolverConfig(selection=sel.GreedyBlock(1.0),
                                  stepsize=sel.Constant(1.0),
                                  max_iters=50, tol=1e-300,
                                  keep_iterates=True)
        x0 = rng.standard_normal(3)
        record = slv.run(sys, prior, config, x0)

        x = x0.copy()
        for dual in record.duals[1:]:
            r = B @ x - y
            i = int(np.argmax(r * r))
            x = x - (r[i] / float(B[i] @ B[i])) * B[i]
            np.testing.assert_allclose(dual, x, atol=1e-12)


class TestRun:
    def test_starts_converged(self, rng):
        # consistent affine system evaluated exactly at its solution
        B = rng.standard_normal((4, 3))
        x0 = rng.standard_normal(3)
        sys = affine_system(B, B @ x0)
        record = slv.run(sys, SparsePrior(0.0), slv.SolverConfig(), x0)
        assert record.status == slv.CONVERGED
        assert record.iterations == 0

    def test_initial_relative_residual_is_one(self, rng):
        inst = small_instance()
        record = slv.run(inst.system, SparsePrior(2.0), slv.SolverConfig(),
                         rng.standard_normal(10))
        assert record.rows[0][1] == 1.0

    def test_mirror_consistency(self, rng):
        inst = small_instance()
        prior = SparsePrior(2.0)
        config = slv.SolverConfig(selection=sel.GreedyBlock(0.1),
                                  stepsize=sel.Adaptive(1.3),
                                  max_iters=30, keep_iterates=True)
        record = slv.run(inst.system, prior, config, rng.standard_normal(10))
        np.testing.assert_array_equal(record.final_primal,
                                      prior.conj_grad(record.final_dual))

    def test_history_suppressed(self):
        # without history the run keeps exactly the terminal row of the
        # recorded run, on every exit path
        for name, (system, prior, config, x0, truth, status) in HISTORY_CASES.items():
            full = slv.run(system, prior, config, x0, truth=truth)
            last = slv.run(system, prior,
                           dataclasses.replace(config, record_history=False),
                           x0, truth=truth)
            assert full.status == last.status == status, name
            assert (last.iterations, last.message) == (full.iterations,
                                                      full.message), name
            assert len(last.rows) == 1, name
            np.testing.assert_array_equal(last.rows[0][:6], full.rows[-1][:6],
                                          err_msg=name)
            np.testing.assert_array_equal(last.final_dual, full.final_dual,
                                          err_msg=name)

    def test_truth_columns_only_for_kept_rows(self, monkeypatch):
        # a run without history computes the truth columns once, for the
        # row it keeps, and they are those of the recorded run's last row,
        # also when a non-finite step ends the run (truth 1 for log x)
        cases = dict(HISTORY_CASES)
        system, prior, config, x0, _, status = cases["non_finite_step"]
        cases["non_finite_step"] = (system, prior, config, x0,
                                    np.array([1.0]), status)
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(slv, "solution_error",
                            counted("err", slv.solution_error))
        for name, (system, prior, config, x0, truth, status) in cases.items():
            if truth is None:
                continue
            monkeypatch.setattr(prior, "bregman_distance",
                                counted("breg", prior.bregman_distance))
            calls.clear()
            full = slv.run(system, prior, config, x0, truth=truth)
            assert calls.count("err") == calls.count("breg") == len(full.rows)
            calls.clear()
            last = slv.run(system, prior,
                           dataclasses.replace(config, record_history=False),
                           x0, truth=truth)
            assert sorted(calls) == ["breg", "err"], name  # once each
            assert full.status == last.status == status, name
            np.testing.assert_array_equal(last.rows[0][:6], full.rows[-1][:6],
                                          err_msg=name)

    @pytest.mark.parametrize("kind", ["gaussian", "dct"])
    @pytest.mark.parametrize("preset", cli.SOLVER_NAMES)
    def test_keep_iterates_changes_nothing(self, kind, preset):
        inst = generate(GeneratorSpec(kind, 40, 20, 0.1, seed=3),
                        matrix_free=kind == "dct")
        prior = SparsePrior(2.0)
        x0 = cli.initial_dual(20, 3)
        config = cli.preset_config(preset, seed=3)
        plain = slv.run(inst.system, prior, config, x0, truth=inst.truth)
        kept = slv.run(inst.system, prior,
                       dataclasses.replace(config, keep_iterates=True), x0,
                       truth=inst.truth)
        assert (kept.status, kept.iterations) == (plain.status, plain.iterations)
        np.testing.assert_array_equal([row[:6] for row in kept.rows],
                                      [row[:6] for row in plain.rows])
        np.testing.assert_array_equal(kept.final_dual, plain.final_dual)
        assert len(kept.duals) == len(kept.blocks) + 1 == kept.iterations + 1
        # each kept iterate is still the one its history row was built from
        breg = kept.column("bregman")
        for k, dual in enumerate(kept.duals):
            assert prior.bregman_distance(dual, inst.truth) == breg[k]

    @pytest.mark.parametrize("kind", ["gaussian", "dct"])
    @pytest.mark.parametrize("preset", cli.SOLVER_NAMES)
    def test_run_repeats_on_one_system(self, kind, preset):
        # what a system holds from the solve before (dense support pairs,
        # matrix-free support rows) changes nothing: a solve of another
        # preset between two equal solves leaves their records equal
        inst = generate(GeneratorSpec(kind, 40, 20, 0.2, seed=4),
                        matrix_free=kind == "dct")
        prior = SparsePrior(2.0)
        x0 = cli.initial_dual(20, 4)
        config = cli.preset_config(preset, seed=4, keep_iterates=True)
        other = cli.SOLVER_NAMES[cli.SOLVER_NAMES.index(preset) - 1]
        first = slv.run(inst.system, prior, config, x0, truth=inst.truth)
        slv.run(inst.system, prior, cli.preset_config(other, seed=5),
                cli.initial_dual(20, 5), truth=inst.truth)
        again = slv.run(inst.system, prior, config, x0, truth=inst.truth)
        assert (again.status, again.iterations, again.message) == (
            first.status, first.iterations, first.message)
        np.testing.assert_array_equal([row[:6] for row in again.rows],
                                      [row[:6] for row in first.rows])
        for name in ("duals", "blocks", "primals", "residuals"):
            for a, b in zip(getattr(again, name), getattr(first, name),
                            strict=True):
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("name", list(HISTORY_CASES))
    def test_residuals_follow_the_duals(self, name):
        # the mirror image of each kept dual and F there, bit for bit, on
        # every exit path: a step stopped for a non-finite F keeps none
        system, prior, config, x0, truth, _ = HISTORY_CASES[name]
        kept = slv.run(system, prior,
                       dataclasses.replace(config, keep_iterates=True), x0,
                       truth=truth)
        assert len(kept.primals) == len(kept.residuals) == len(kept.duals)
        for dual, x, F in zip(kept.duals, kept.primals, kept.residuals):
            assert x.tobytes() == prior.conj_grad(dual).tobytes()
            assert F.tobytes() == system.eval_all(x).tobytes()
        plain = slv.run(system, prior, config, x0, truth=truth)
        assert plain.primals is None and plain.residuals is None

    def test_degenerate_zero_gradient(self):
        # a constant nonzero row has zero gradient everywhere
        sys = affine_system(np.zeros((1, 2)), np.array([1.0]))
        record = slv.run(sys, SparsePrior(0.0),
                         slv.SolverConfig(selection=sel.MaxResidual()),
                         np.zeros(2))
        assert record.status == slv.DEGENERATE

    def test_nan_aborts(self):
        record = slv.run(Exploding(), SparsePrior(0.0),
                         slv.SolverConfig(selection=sel.MaxResidual()),
                         np.array([40.0]))
        assert record.status == slv.DEGENERATE
        assert record.iterations == 0

    def test_csv_round_numbers(self, tmp_path, rng):
        inst = small_instance()
        record = slv.run(inst.system, SparsePrior(2.0),
                         slv.SolverConfig(max_iters=10),
                         rng.standard_normal(10), truth=inst.truth)
        path = tmp_path / "hist.csv"
        record.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:7] == slv.CSV_HEADER
        assert len(lines) == len(record.rows) + 1


class TestMonotoneBregman:
    def test_decrease_near_root(self):
        # from a local start with stepsize 1 the distance to the root
        # decreases every iteration
        inst = small_instance(seed=21, m=40, n=20, sp=0.2)
        prior = SparsePrior(2.0)
        x0 = cli.local_dual(inst.truth, 2.0, 1e-3, np.random.default_rng(0))
        config = slv.SolverConfig(selection=sel.GreedyBlock(0.1),
                                  stepsize=sel.Constant(1.0), max_iters=500)
        record = slv.run(inst.system, prior, config, x0, truth=inst.truth)
        breg = record.column("bregman")
        assert record.status == slv.CONVERGED
        assert np.all(np.diff(breg) <= 1e-10)
