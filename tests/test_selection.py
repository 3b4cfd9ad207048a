import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bregman_kaczmarz import selection as sel


class TestGreedyBlock:
    def test_tight_threshold(self):
        # max square 9, threshold 4.5: only index 0 passes
        out = sel.greedy_block(np.array([3.0, -1.0, 2.0]), 0.5)
        np.testing.assert_array_equal(out, [0])

    def test_looser_threshold(self):
        # threshold 3.6: squares 9 and 4 pass
        out = sel.greedy_block(np.array([3.0, -1.0, 2.0]), 0.4)
        np.testing.assert_array_equal(out, [0, 2])

    def test_theta_one_is_argmax(self, rng):
        r = rng.standard_normal(20)
        r[7] = 10.0
        out = sel.greedy_block(r, 1.0)
        np.testing.assert_array_equal(out, [7])

    def test_zero_residual_raises(self):
        with pytest.raises(sel.AllResidualsZero):
            sel.greedy_block(np.zeros(4), 0.5)

    def test_scale_invariance(self, rng):
        r = rng.standard_normal(30)
        for c in (2.0, -0.5, 1e8, 1e-8):
            np.testing.assert_array_equal(sel.greedy_block(r, 0.3),
                                          sel.greedy_block(c * r, 0.3))

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            sel.GreedyBlock(0.0)
        with pytest.raises(ValueError):
            sel.GreedyBlock(1.5)


class TestSelectIndices:
    def test_max_residual_lowest_index_tiebreak(self):
        r = np.array([2.0, -2.0, 1.0])
        out = sel.select_indices(sel.MaxResidual(), r, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0])

    def test_max_residual_equals_greedy_theta_one(self, rng):
        for _ in range(50):
            r = rng.standard_normal(15)
            mr = sel.select_indices(sel.MaxResidual(), r, rng)
            gb = sel.greedy_block(r, 1.0)
            assert mr[0] == gb[0]

    def test_uniform_in_range(self, rng):
        r = np.ones(10)
        for _ in range(50):
            out = sel.select_indices(sel.UniformRandom(), r, rng)
            assert len(out) == 1 and 0 <= out[0] < 10

    def test_residual_probability_seeded(self):
        r = np.array([1.0, 5.0, 2.0, 0.0])
        a = sel.select_indices(sel.ResidualProbability(), r,
                               np.random.default_rng(3))
        b = sel.select_indices(sel.ResidualProbability(), r,
                               np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_residual_probability_never_zero_rows(self, rng):
        r = np.array([0.0, 1.0, 0.0])
        for _ in range(100):
            out = sel.select_indices(sel.ResidualProbability(), r, rng)
            assert out[0] == 1


def row_norms_sq(grads):
    return np.einsum("ij,ij->i", grads, grads)


class TestAdaptiveStepsize:
    def test_zero_block_values(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        alpha = sel.adaptive_stepsize(np.zeros(2), g, row_norms_sq(g),
                                      np.array([0.5, 0.5]), 1.3)
        assert alpha == 0.0

    def test_degenerate_direction(self):
        # opposite rows cancel: nonzero numerator, vanishing direction
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        f = np.array([1.0, 1.0])
        with pytest.raises(sel.DegenerateDirection):
            sel.adaptive_stepsize(f, g, row_norms_sq(g),
                                  np.array([0.5, 0.5]), 1.3)


class TestEffectiveDirection:
    def test_zero_values_zero_direction(self, rng):
        grads = rng.standard_normal((4, 5))
        w = np.full(4, 0.25)
        d = sel.effective_direction(np.zeros(4), grads, row_norms_sq(grads),
                                    w, 1.0)
        np.testing.assert_allclose(d, 0.0)


# Relative tolerance of the helpers against the row-by-row reference, fixed
# before running.  Both sides sum at most 50 terms of a few roundings each,
# so their difference is a small multiple of 50 * 2.2e-16 times the sum of
# the absolute values of the terms; where terms cancel, that sum, not the
# result, is what the tolerance is relative to.
RTOL = 1e-12

UNIT = st.one_of(st.just(0.0), st.floats(0.1, 1.0), st.floats(-1.0, -0.1))


@st.composite
def row_scaled_blocks(draw):
    """F and the Jacobian rows of a block of 1-50 equations, equation i
    multiplied by 10**e_i with e_i in [-6, 6]."""
    m = draw(st.integers(1, 50))
    n = draw(st.integers(1, 8))
    fvals = draw(hnp.arrays(float, m, elements=UNIT))
    grads = draw(hnp.arrays(float, (m, n), elements=UNIT))
    scale = 10.0 ** draw(hnp.arrays(float, m, elements=st.floats(-6.0, 6.0)))
    return fvals * scale, grads * scale[:, None]


def paper_step(fvals, grads, sigma):
    """The block step of the paper, one row at a time in plain Python.

    Returns the weights w_i = ||grad F_i||^2 / sum_j ||grad F_j||^2; the
    stepsize numerator sum_i wh_i F_i^2 and the extrapolated direction
    sum_i wh_i F_i grad F_i, with wh_i = w_i / ||grad F_i||^2; the dual
    direction sum_i w_i sigma F_i / ||grad F_i||^2 grad F_i; and, for both
    vector sums, the sum of the absolute values of their terms.
    """
    rows = [[float(v) for v in g] for g in grads]
    norms = [sum(v * v for v in g) for g in rows]
    total = sum(norms)
    n = len(rows[0])
    weights, numer = [], 0.0
    extrap, extrap_abs = [0.0] * n, [0.0] * n
    direction, direction_abs = [0.0] * n, [0.0] * n
    for f, g, norm in zip(map(float, fvals), rows, norms):
        w = norm / total
        weights.append(w)
        wh = w / norm
        numer += wh * f * f
        for j, v in enumerate(g):
            extrap[j] += wh * f * v
            extrap_abs[j] += abs(wh * f * v)
            direction[j] += w * sigma * f / norm * v
            direction_abs[j] += abs(w * sigma * f / norm * v)
    return (np.array(weights), numer, np.array(extrap), np.array(extrap_abs),
            np.array(direction), np.array(direction_abs))


class TestAgainstPaperFormula:
    @settings(max_examples=300)
    @given(block=row_scaled_blocks(), sigma=st.floats(0.5, 2.0),
           delta=st.floats(0.01, 1.99))
    def test_helpers_match_row_loop(self, block, sigma, delta):
        fvals, grads = block
        # the caller's precondition: rows with vanishing gradient are dropped
        norms_sq = row_norms_sq(grads)
        usable = norms_sq > sel.GRAD_NORM_FLOOR ** 2
        assume(usable.any())
        fvals, grads, norms_sq = fvals[usable], grads[usable], norms_sq[usable]
        (ref_w, ref_numer, extrap, extrap_abs,
         ref_d, ref_d_abs) = paper_step(fvals, grads, sigma)

        w = sel.weights_for(norms_sq)
        np.testing.assert_allclose(w, ref_w, rtol=RTOL, atol=0.0)
        assert abs(w.sum() - 1.0) <= RTOL

        # the averaged direction, and its collapse to sigma J^T F / ||J||_F^2
        d = sel.effective_direction(fvals, grads, norms_sq, w, sigma)
        assert np.all(np.abs(d - ref_d) <= RTOL * ref_d_abs)
        frob_sq = np.sum(grads ** 2)
        collapsed = sigma * (grads.T @ fvals) / frob_sq
        collapsed_abs = sigma * (np.abs(grads).T @ np.abs(fvals)) / frob_sq
        assert np.all(np.abs(d - collapsed) <= RTOL * collapsed_abs)

        # the extrapolated stepsize, and its collapse to
        # delta ||F||^2 ||J||_F^2 / ||J^T F||^2
        try:
            alpha = sel.adaptive_stepsize(fvals, grads, norms_sq, w, delta)
        except sel.DegenerateDirection:
            alpha = None
        denom = float(extrap @ extrap)
        band = RTOL * float(extrap_abs @ extrap_abs)   # error bound on denom
        if ref_numer == 0.0:
            assert alpha == 0.0
        elif denom + band < sel.DIRECTION_FLOOR:
            assert alpha is None
        elif denom - band > sel.DIRECTION_FLOOR:
            rtol = RTOL + band / denom
            assert alpha == pytest.approx(delta * ref_numer / denom, rel=rtol)
            jt_f = grads.T @ fvals
            assert alpha == pytest.approx(
                delta * np.sum(fvals ** 2) * frob_sq / (jt_f @ jt_f), rel=rtol)


class TestStepsizeValidation:
    def test_constant_range(self):
        with pytest.raises(ValueError):
            sel.Constant(0.0)
        with pytest.raises(ValueError):
            sel.Constant(2.0)

    def test_adaptive_range(self):
        with pytest.raises(ValueError):
            sel.Adaptive(0.0)
        with pytest.raises(ValueError):
            sel.Adaptive(2.0)
