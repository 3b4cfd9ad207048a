import numpy as np
import pytest

from bregman_kaczmarz.priors import SparsePrior, soft_shrink


class TestSoftShrink:
    def test_above_threshold(self):
        assert soft_shrink(np.array([3.0]), 2.0) == pytest.approx([1.0])

    def test_below_threshold(self):
        assert soft_shrink(np.array([-0.5]), 2.0) == pytest.approx([0.0])

    def test_componentwise(self):
        out = soft_shrink(np.array([-5.0, 2.0, 0.0]), 2.0)
        np.testing.assert_allclose(out, [-3.0, 0.0, 0.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soft_shrink(np.array([1.0]), -0.1)

    def test_zero_maps_to_zero(self):
        # sign(0) = 0 keeps the operator continuous at the origin
        assert soft_shrink(np.array([0.0]), 0.0) == pytest.approx([0.0])


class TestSparsePrior:
    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_lambda_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            SparsePrior(lam)
        assert SparsePrior(0.0).lam == 0.0


class TestValues:
    def test_phi_at_zero(self):
        assert SparsePrior(2.0).value(np.zeros(2)) == 0.0

    def test_phi_direct(self):
        # lam*|x|_1 + 0.5*|x|^2 = 2*2 + 0.5*2
        assert SparsePrior(2.0).value(np.array([1.0, -1.0])) == pytest.approx(5.0)

    def test_phi_euclidean(self):
        assert SparsePrior(0.0).value(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_conj_at_zero(self):
        assert SparsePrior(2.0).conj_value(np.zeros(4)) == 0.0

    def test_conj_scalar(self):
        # sup_t 3t - 2|t| - t^2/2 is attained at t = 1 with value 0.5
        assert SparsePrior(2.0).conj_value(np.array([3.0])) == pytest.approx(0.5)

    def test_conj_self_conjugate(self):
        assert SparsePrior(0.0).conj_value(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_conj_value_matches_numeric_supremum(self, rng):
        # independent oracle: brute-force the defining supremum per component
        prior = SparsePrior(2.0)
        xstar = rng.standard_normal(5) * 4.0
        t = np.linspace(-10.0, 10.0, 2_000_001)
        expected = sum(
            np.max(xs * t - 2.0 * np.abs(t) - 0.5 * t * t) for xs in xstar)
        assert prior.conj_value(xstar) == pytest.approx(expected, abs=1e-8)


class TestConjGrad:
    def test_is_soft_shrinkage(self):
        out = SparsePrior(2.0).conj_grad(np.array([3.0, -5.0]))
        np.testing.assert_allclose(out, [1.0, -3.0])

    def test_identity_for_euclidean(self, rng):
        v = rng.standard_normal(6)
        np.testing.assert_array_equal(SparsePrior(0.0).conj_grad(v), v)

    def test_finite_difference_oracle(self, rng):
        prior = SparsePrior(1.5)
        h = 1e-6
        for _ in range(20):
            xstar = rng.standard_normal(4) * 3.0
            g = prior.conj_grad(xstar)
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (prior.conj_value(xstar + e)
                         - prior.conj_value(xstar - e)) / (2.0 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)


class TestBregmanDistance:
    def test_euclidean_case(self, rng):
        prior = SparsePrior(0.0)
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert prior.bregman_distance(x, y) == pytest.approx(
            0.5 * np.sum((x - y) ** 2))

    def test_zero_at_own_mirror_point(self, rng):
        prior = SparsePrior(2.0)
        xstar = rng.standard_normal(5) * 4.0
        assert prior.bregman_distance(xstar, prior.conj_grad(xstar)) == (
            pytest.approx(0.0, abs=1e-12))

    def test_scalar_example(self):
        assert SparsePrior(2.0).bregman_distance(
            np.array([3.0]), np.array([0.0])) == pytest.approx(0.5)


class TestInvariants:
    """Sampled identities the solver relies on."""

    def test_nonnegativity_and_strong_convexity(self, rng):
        prior = SparsePrior(2.0)
        for _ in range(200):
            xstar = rng.standard_normal(6) * 5.0
            y = rng.standard_normal(6) * 5.0
            d = prior.bregman_distance(xstar, y)
            lower = 0.5 * prior.sigma * np.sum(
                (prior.conj_grad(xstar) - y) ** 2)
            assert d >= lower - 1e-10

    def test_fenchel_young_at_mirror_points(self, rng):
        prior = SparsePrior(2.0)
        for _ in range(200):
            xstar = rng.standard_normal(6) * 5.0
            x = prior.conj_grad(xstar)
            lhs = prior.value(x) + prior.conj_value(xstar)
            assert lhs == pytest.approx(float(xstar @ x), abs=1e-10)

    def test_mirror_map_lipschitz(self, rng):
        prior = SparsePrior(2.0)
        for _ in range(200):
            u = rng.standard_normal(6) * 5.0
            v = rng.standard_normal(6) * 5.0
            num = np.linalg.norm(prior.conj_grad(u) - prior.conj_grad(v))
            assert num <= np.linalg.norm(u - v) / prior.sigma + 1e-12

    def test_monotonicity_at_mirror_points(self, rng):
        prior = SparsePrior(2.0)
        for _ in range(200):
            us = rng.standard_normal(6) * 5.0
            vs = rng.standard_normal(6) * 5.0
            du = prior.conj_grad(us)
            dv = prior.conj_grad(vs)
            inner = float((us - vs) @ (du - dv))
            assert inner >= prior.sigma * np.sum((du - dv) ** 2) - 1e-10

    def test_dual_recursion(self, rng):
        # distance-to-target recursion under a dual step
        prior = SparsePrior(2.0)
        for _ in range(200):
            xs_k = rng.standard_normal(6) * 5.0
            xs_k1 = xs_k + rng.standard_normal(6)
            target = rng.standard_normal(6) * 3.0
            lhs = prior.bregman_distance(xs_k1, target)
            rhs = (prior.bregman_distance(xs_k, target)
                   + float((xs_k1 - xs_k) @ (prior.conj_grad(xs_k) - target))
                   + np.sum((xs_k1 - xs_k) ** 2) / (2.0 * prior.sigma))
            assert lhs <= rhs + 1e-10
