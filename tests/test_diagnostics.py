import dataclasses

import numpy as np
import pytest

from conftest import RowByRow, affine_system, random_quadratic

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import selection as sel
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.generators import GeneratorSpec, generate
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.systems import QuadraticSystem


def sample_pairs(n, count, rng, scale=1.0):
    return [(rng.standard_normal(n), rng.standard_normal(n) * scale)
            for _ in range(count)]


def stacked(system, pairs):
    """The index pairs, point stack and residuals `estimate_eta` takes for
    a list of (x1, x2) pairs: every point is a row of the stack."""
    X = np.array([x for pair in pairs for x in pair], dtype=float)
    F = np.array([system.eval_all(x) for x in X])
    return np.arange(len(X)).reshape(-1, 2), X, F


def assert_matches_row_loop(system, pairs):
    """estimate_eta against the defining ratio, one pair and one row at a
    time.

    The ratio r = |F1 - F2 - <g, d>| / |F1 - F2| divides by a difference
    that cancels, so a rounding of the terms moves it by up to
    e = 1e-12 (|F1| + |F2| + sum_k |g_k d_k|) / |F1 - F2|; the estimate
    must lie within the maxima of r - e and r + e.
    """
    low, high, count = 0.0, 0.0, 0
    for x1, x2 in pairs:
        d = x1 - x2
        for i in range(system.m):
            f1, f2 = system.eval_component(i, x1), system.eval_component(i, x2)
            g = system.grad_component(i, x1)
            diff = f1 - f2
            if diff != 0.0:
                count += 1
                r = abs(diff - float(g @ d)) / abs(diff)
                e = 1e-12 * (abs(f1) + abs(f2) + float(abs(g * d).sum())) / abs(diff)
                low, high = max(low, r - e), max(high, r + e)
    est = diag.estimate_eta(system, *stacked(system, pairs))
    assert low > 0.0
    assert low <= est.eta <= high
    assert est.sample_count == count


def count_calls(system, names):
    """Count the calls of the named methods of one system instance."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(system, name)

        def counted(*args, name=name, method=method):
            counts[name] += 1
            return method(*args)
        setattr(system, name, counted)
    return counts


def recorded_trajectory(matrix_free, rng, local=False):
    """An 8-step run on a (12, 8) instance from a far or a local start, the
    points of its eta pairs and the instance."""
    kind = "dct" if matrix_free else "gaussian"
    inst = generate(GeneratorSpec(kind, 12, 8, 0.25, seed=3),
                    matrix_free=matrix_free)
    prior = SparsePrior(0.5)
    x0 = (cli.local_dual(inst.truth, 0.5, 1e-2, rng) if local
          else rng.standard_normal(8))
    record = slv.run(inst.system, prior,
                     slv.SolverConfig(max_iters=8, keep_iterates=True),
                     x0, truth=inst.truth)
    return record, trajectory_points(record, inst.truth), inst


def trajectory_points(record, truth):
    """The (x1, x2) points of each pair of `trajectory_pairs`."""
    X = np.vstack(record.primals + [truth])
    return [tuple(X[p]) for p in diag.trajectory_pairs(record, truth)]


class TestEtaEstimate:
    def test_affine_is_zero(self, rng):
        sys = affine_system(rng.standard_normal((5, 3)), rng.standard_normal(5))
        est = diag.estimate_eta(sys, *stacked(sys, sample_pairs(3, 30, rng)))
        assert est.eta <= 1e-12
        assert est.sample_count > 0

    def test_shrinks_with_pair_diameter(self, rng):
        # the linearization error is second order, the denominator first
        # order, so the ratio shrinks with the pair separation
        sys = random_quadratic(6, 4, seed=2)
        center = rng.standard_normal(4)
        etas = []
        for radius in (1.0, 0.1, 0.01):
            pairs = [(center + radius * rng.standard_normal(4),
                      center + radius * rng.standard_normal(4))
                     for _ in range(40)]
            etas.append(diag.estimate_eta(sys, *stacked(sys, pairs)).eta)
        assert etas[0] > etas[1] > etas[2]

    def test_identical_pair_skipped(self, rng):
        sys = random_quadratic(4, 3, seed=1)
        x = rng.standard_normal(3)
        good = (rng.standard_normal(3), rng.standard_normal(3))
        est = diag.estimate_eta(sys, *stacked(sys, [(x, x), good]))
        assert est.sample_count == 4      # only the non-degenerate pair counts

    def test_no_valid_pairs(self, rng):
        sys = random_quadratic(4, 3, seed=1)
        x = rng.standard_normal(3)
        with pytest.raises(diag.NoValidPairs):
            diag.estimate_eta(sys, *stacked(sys, [(x, x)]))
        # no pair at all: a run that kept one iterate, without a truth
        record = slv.RunRecord(slv.CONVERGED, 0, [], primals=[x])
        pairs = diag.trajectory_pairs(record)
        assert pairs.shape == (0, 2)
        with pytest.raises(diag.NoValidPairs):
            diag.estimate_eta(sys, pairs, x[None], sys.eval_all(x)[None])

    def test_matches_row_loop_generic_pairs(self, rng):
        assert_matches_row_loop(random_quadratic(6, 4, seed=2),
                                sample_pairs(4, 30, rng))

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("local", [False, True])
    def test_matches_row_loop_trajectory(self, rng, matrix_free, local):
        _, pairs, inst = recorded_trajectory(matrix_free, rng, local)
        assert_matches_row_loop(inst.system, pairs)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_pair_and_row_attain_eta(self, rng, matrix_free):
        # the ratio at the reported (pair, row), from eval_all and the
        # gradient row, is eta within the rounding bound of
        # assert_matches_row_loop
        _, pairs, inst = recorded_trajectory(matrix_free, rng)
        sys = inst.system
        est = diag.estimate_eta(sys, *stacked(sys, pairs))
        x1, x2 = pairs[est.pair]
        i, d = est.row, x1 - x2
        f1, f2 = sys.eval_all(x1)[i], sys.eval_all(x2)[i]
        g = sys.grad_component(i, x1)
        r = abs(f1 - f2 - g @ d) / abs(f1 - f2)
        e = 1e-12 * (abs(f1) + abs(f2) + float(abs(g * d).sum())) / abs(f1 - f2)
        assert abs(r - est.eta) <= e

    def test_non_finite_ratio_refused(self):
        # x with one entry 1e200 makes F(x) and the linear term infinite,
        # so the ratio of the valid pair (x, truth) is NaN, not an eta; a
        # zero-denominator pair (truth, truth) before it is skipped, and the
        # NaN is neither skipped with it nor read as no valid pair
        inst = generate(GeneratorSpec("gaussian", 20, 10, 0.2, seed=1))
        x = inst.truth.copy()
        x[3] = 1e200
        counts = []
        for skipped in ([], [(inst.truth, inst.truth)]):
            pairs = skipped + [(x, inst.truth)]
            with pytest.raises(diag.HypothesisViolated,
                               match=f"eta is not finite: the ratio of pair "
                                     f"{len(skipped)},") as info, \
                    np.errstate(over="ignore", invalid="ignore"):
                diag.estimate_eta(inst.system, *stacked(inst.system, pairs))
            assert not isinstance(info.value, diag.NoValidPairs)
            est = info.value.estimate
            assert est.pair == len(skipped) and np.isnan(est.eta)
            assert f"row {est.row} is nan" in str(info.value)
            counts.append(est.sample_count)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_no_evaluation_and_no_jacobian(self, rng, matrix_free):
        # F comes with the stack; the numerators are one call of
        # remainders on the stack and pairs as given, no row gathered
        _, pairs, inst = recorded_trajectory(matrix_free, rng)
        args = stacked(inst.system, pairs)
        seen, remainders = [], inst.system.remainders
        inst.system.remainders = lambda *a: seen.append(a) or remainders(*a)
        counts = count_calls(inst.system, ["eval_all", "jacobian", "remainders"])
        diag.estimate_eta(inst.system, *args)
        assert counts == {"eval_all": 0, "jacobian": 0, "remainders": 1}
        assert seen[0][0] is args[1] and seen[0][1] is args[0]

    def test_trajectory_pairs_requires_iterates(self, rng):
        inst = generate(GeneratorSpec("gaussian", 10, 6, 0.5, seed=4))
        record = slv.run(inst.system, SparsePrior(2.0),
                         slv.SolverConfig(max_iters=5),
                         rng.standard_normal(6))
        with pytest.raises(ValueError):
            diag.trajectory_pairs(record)

    def test_trajectory_pairs_count(self, rng):
        inst = generate(GeneratorSpec("gaussian", 10, 6, 0.5, seed=4))
        record = slv.run(inst.system, SparsePrior(2.0),
                         slv.SolverConfig(max_iters=5, keep_iterates=True),
                         rng.standard_normal(6))
        t = len(record.duals)
        pairs = diag.trajectory_pairs(record, inst.truth)
        assert pairs.shape == ((t - 1) + t, 2)
        # pair_label names the rows of the stack primals + [truth] that
        # each pair holds: (x_i, x_i+1), or (x_k, truth) with the truth
        # at row t
        names = [f"x_{k}" for k in range(t)] + ["truth"]
        for p, (i, j) in enumerate(pairs):
            assert diag.pair_label(record, p) == f"({names[i]}, {names[j]})"


class TestGradientCheck:
    def test_quadratic(self):
        sys = random_quadratic(6, 5, seed=7)
        dev = diag.check_gradients(sys, 50, np.random.default_rng(0))
        assert dev <= 1e-5

    def test_affine_is_tight(self, rng):
        sys = affine_system(rng.standard_normal((5, 3)), rng.standard_normal(5))
        dev = diag.check_gradients(sys, 50, np.random.default_rng(0))
        assert dev <= 1e-10

    def test_zero_system(self):
        sys = QuadraticSystem(np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros(2))
        dev = diag.check_gradients(sys, 10, np.random.default_rng(0))
        assert dev == 0.0

    def test_same_check_as_the_point_loop(self):
        # with F_i taken one point at a time (the base eval_points), the
        # batched check is the loop of 2n scalar evaluations, bit for bit
        sys = RowByRow(random_quadratic(6, 5, seed=7))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(30):
            i = int(rng.integers(sys.m))
            x = rng.standard_normal(sys.n)
            g = sys.grad_component(i, x)
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = np.empty(sys.n)
            for j in range(sys.n):
                e = np.zeros(sys.n)
                e[j] = h
                fd[j] = (sys.eval_component(i, x + e)
                         - sys.eval_component(i, x - e)) / (2.0 * h)
            worst = max(worst, np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd)))
        assert diag.check_gradients(sys, 30, np.random.default_rng(0)) == worst

    def test_one_evaluation_per_trial(self, monkeypatch):
        sys = random_quadratic(6, 5, seed=7)
        calls = []
        evaluate = sys.eval_points
        monkeypatch.setattr(sys, "eval_points",
                            lambda i, X: calls.append(len(X)) or evaluate(i, X))
        monkeypatch.setattr(sys, "eval_component", None)
        diag.check_gradients(sys, 4, np.random.default_rng(0))
        assert calls == [2 * sys.n] * 4

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        sys = random_quadratic(6, 5, seed=7)
        with pytest.raises(ValueError, match="trials"):
            diag.check_gradients(sys, trials, np.random.default_rng(0))

    @pytest.mark.parametrize("mutation", ["nan entry", "doubled", "b sign"])
    def test_wrong_gradient_caught(self, mutation):
        # a NaN deviation is returned, not dropped in favour of 0.0
        class Wrong(QuadraticSystem):
            def grad_block(self, idx, x):
                rows = super().grad_block(idx, x)
                if mutation == "nan entry":
                    rows[:, 2] = np.nan
                elif mutation == "doubled":
                    rows = 2.0 * rows
                else:
                    rows = rows - 2.0 * self.b[idx]
                return rows

        base = random_quadratic(6, 5, seed=7)
        sys = Wrong(base.A, base.b, base.c)
        dev = diag.check_gradients(sys, 5, np.random.default_rng(0))
        assert not dev <= 1e-5
        assert np.isnan(dev) == (mutation == "nan entry")


class TestContractionAudit:
    def audited_affine(self, rng, alpha=1.0):
        # maximal-residual Kaczmarz on a consistent affine system: each
        # projection removes at least a 1/kappa_F^2 share of the distance
        # when kappa_F is taken over the whole matrix, so the recorded
        # factors are a theorem at eta = 0
        B = rng.standard_normal((5, 3))
        x_hat = rng.standard_normal(3)
        sys = affine_system(B, B @ x_hat)
        prior = SparsePrior(0.0)
        config = slv.SolverConfig(selection=sel.MaxResidual(),
                                  stepsize=sel.Constant(alpha),
                                  max_iters=200, keep_iterates=True)
        x0 = x_hat + 0.5 * rng.standard_normal(3)
        record = slv.run(sys, prior, config, x0, truth=x_hat)
        jacs = [B] * record.iterations
        return record, config, jacs

    def test_affine_every_step_satisfied(self, rng):
        record, config, jacs = self.audited_affine(rng)
        audit = diag.contraction_audit(record, 0.0, config, jacs)
        assert record.status == slv.CONVERGED
        assert audit.all_satisfied
        assert len(audit.rows) == record.iterations

    def test_factor_below_one(self, rng):
        record, config, jacs = self.audited_affine(rng)
        audit = diag.contraction_audit(record, 0.0, config, jacs)
        factors = np.array([row[3] for row in audit.rows])
        assert np.all(factors < 1.0) and np.all(factors >= 0.0)

    def test_eta_too_large(self, rng):
        record, config, jacs = self.audited_affine(rng)
        with pytest.raises(diag.HypothesisViolated):
            diag.contraction_audit(record, 0.6, config, jacs)

    def test_nan_eta_refused_as_eta(self, rng):
        # not read as an eta below 1/2 whose stepsize range is (0, nan)
        record, config, jacs = self.audited_affine(rng)
        for policy in (config.stepsize, sel.Adaptive(1.3)):
            with pytest.raises(diag.HypothesisViolated,
                               match="eta = nan is not below 1/2"):
                diag.contraction_audit(record, np.nan,
                                       slv.SolverConfig(stepsize=policy), jacs)

    def test_stepsize_out_of_theorem_range(self, rng):
        record, _, jacs = self.audited_affine(rng)
        # alpha = 1.5 exceeds 2(1 - 0.3) = 1.4
        wide = slv.SolverConfig(stepsize=sel.Constant(1.5))
        with pytest.raises(diag.HypothesisViolated):
            diag.contraction_audit(record, 0.3, wide, jacs)
        # delta = 1.9 exceeds 2(1 - 0.1) = 1.8
        adaptive = slv.SolverConfig(stepsize=sel.Adaptive(1.9))
        with pytest.raises(diag.HypothesisViolated):
            diag.contraction_audit(record, 0.1, adaptive, jacs)

    def test_unsatisfied_rows_flagged(self, rng):
        # a fabricated history where the distance does not decrease
        record, config, jacs = self.audited_affine(rng)
        bad = slv.RunRecord(status=slv.CONVERGED, iterations=2,
                            rows=[(0, 1.0, 0.0, 1.0, 1, 0.0, 0),
                                  (1, 0.5, 0.0, 2.0, 1, 1.0, 0),
                                  (2, 0.1, 0.0, 4.0, 1, 1.0, 0)])
        audit = diag.contraction_audit(bad, 0.0, config, jacs[:2])
        assert audit.fraction_satisfied == 0.0
        assert not audit.all_satisfied

    def test_to_csv(self, tmp_path, rng):
        record, config, jacs = self.audited_affine(rng)
        audit = diag.contraction_audit(record, 0.0, config, jacs)
        path = tmp_path / "audit.csv"
        audit.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == diag.AUDIT_HEADER
        assert len(lines) == len(audit.rows) + 1


class TestAuditRun:
    def audit_inputs(self, local):
        inst = generate(GeneratorSpec("gaussian", 60, 30, 0.1, seed=1))
        rng = np.random.default_rng(0)
        start = (cli.local_dual(inst.truth, 2.0, 1e-3, rng) if local
                 else rng.standard_normal(30))
        config = slv.SolverConfig(selection=sel.GreedyBlock(0.1),
                                  stepsize=sel.Constant(1.0))
        return inst, SparsePrior(2.0), config, start

    def test_refused_audit_builds_no_block_jacobian(self):
        # F again only at the truth, no grad_block beyond the run's, one
        # stacked remainders, and only the run's mirror maps, one per
        # iterate
        inst, prior, config, x0 = self.audit_inputs(local=False)
        steps = slv.run(inst.system, prior, config, x0).iterations
        counts = count_calls(inst.system, ["eval_all", "grad_block",
                                           "remainders"])
        maps = count_calls(prior, ["conj_grad"])
        with pytest.raises(diag.HypothesisViolated):
            diag.audit_run(inst, prior, config, x0)
        assert counts == {"eval_all": steps + 2, "grad_block": steps,
                          "remainders": 1}
        assert maps == {"conj_grad": steps + 1}

    def test_refusal_carries_record_and_estimate(self):
        inst, prior, config, x0 = self.audit_inputs(local=False)
        with pytest.raises(diag.HypothesisViolated) as info:
            diag.audit_run(inst, prior, config, x0)
        record, est = info.value.record, info.value.estimate
        assert record.iterations == slv.run(inst.system, prior, config,
                                            x0).iterations
        pairs = trajectory_points(record, inst.truth)
        assert est == diag.estimate_eta(inst.system, *stacked(inst.system, pairs))
        assert not est.eta < 0.5

    def test_valid_audit_builds_each_block_jacobian_once(self):
        inst, prior, config, x0 = self.audit_inputs(local=True)
        counts = count_calls(inst.system, ["eval_all", "grad_block",
                                           "remainders"])
        maps = count_calls(prior, ["conj_grad"])
        record, est, audit = diag.audit_run(inst, prior, config, x0)
        steps = record.iterations
        assert counts == {"eval_all": steps + 2, "grad_block": 2 * steps,
                          "remainders": 1}
        assert maps == {"conj_grad": steps + 1}
        # the run's residuals give the estimate F evaluated afresh gives
        pairs = trajectory_points(record, inst.truth)
        assert est == diag.estimate_eta(inst.system, *stacked(inst.system, pairs))
        jacs = list(diag.block_jacobians(record, inst.system))
        assert len(jacs) == steps
        # the rows of each step's block at the iterate the step started from
        for jac, dual, block in zip(jacs, record.duals, record.blocks):
            x = prior.conj_grad(dual)
            assert jac.tobytes() == inst.system.grad_block(block, x).tobytes()
        assert audit == diag.contraction_audit(record, est.eta, config, jacs)

    def test_block_jacobians_checks_iterates_when_called(self, rng):
        inst = generate(GeneratorSpec("gaussian", 10, 6, 0.5, seed=4))
        record = slv.run(inst.system, SparsePrior(2.0),
                         slv.SolverConfig(max_iters=5), rng.standard_normal(6))
        with pytest.raises(ValueError, match="keep_iterates"):
            diag.block_jacobians(record, inst.system)

    def test_no_valid_pair_refuses_the_audit(self):
        # a non-finite start stops the run at k = 0, and the only pair,
        # (x_0, truth), has no finite difference of F
        inst, prior, config, _ = self.audit_inputs(local=False)
        with pytest.raises(diag.HypothesisViolated,
                           match="eta could not be estimated") as info:
            diag.audit_run(inst, prior, config, np.full(30, np.nan))
        assert info.value.estimate is None
        assert info.value.record.iterations == 0

    def test_local_start_monotone(self):
        inst, prior, config, x0 = self.audit_inputs(local=True)
        record, est, audit = diag.audit_run(inst, prior, config, x0)
        assert record.status == slv.CONVERGED
        assert est.eta < 0.5
        assert audit.all_satisfied

    def test_forces_frobenius(self):
        inst, prior, config, x0 = self.audit_inputs(local=True)
        config = dataclasses.replace(config, block_norm="spectral",
                                     record_history=False)
        record, est, audit = diag.audit_run(inst, prior, config, x0)
        # the audited run is re-recorded with the literal averaged update
        assert len(record.rows) == record.iterations + 1
        assert audit.all_satisfied
