import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bregman_kaczmarz.generators import (DCT, GAUSSIAN, GeneratorSpec,
                                         generate, generate_dct,
                                         generate_gaussian,
                                         generate_sparse_signal)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec("bernoulli", 10, 5, 0.2, 0)

    def test_sp_out_of_range(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GAUSSIAN, 10, 5, 0.0, 0)
        with pytest.raises(ValueError):
            GeneratorSpec(GAUSSIAN, 10, 5, 1.1, 0)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GAUSSIAN, 10, 5, 0.01, 0)


class TestSparseSignal:
    def test_single_nonzero(self, rng):
        x = generate_sparse_signal(10, 0.1, rng)
        assert np.count_nonzero(x) == 1

    def test_five_percent(self, rng):
        x = generate_sparse_signal(100, 0.05, rng)
        assert np.count_nonzero(x) == 5

    def test_dense(self, rng):
        x = generate_sparse_signal(50, 1.0, rng)
        assert np.count_nonzero(x) == 50

    def test_off_support_exactly_zero(self, rng):
        x = generate_sparse_signal(100, 0.1, rng)
        zero = x[x == 0.0]
        assert len(zero) == 90


class TestGaussian:
    def test_truth_annihilated(self):
        inst = generate_gaussian(GeneratorSpec(GAUSSIAN, 30, 20, 0.1, seed=3))
        resid = inst.system.eval_all(inst.truth)
        tol = 1e-12 * (1.0 + np.abs(inst.system.c).max())
        assert np.abs(resid).max() <= tol

    def test_seeded_determinism(self):
        spec = GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=42)
        a = generate_gaussian(spec)
        b = generate_gaussian(spec)
        np.testing.assert_array_equal(a.system.A, b.system.A)
        np.testing.assert_array_equal(a.system.b, b.system.b)
        np.testing.assert_array_equal(a.system.c, b.system.c)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = generate_gaussian(GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=1))
        b = generate_gaussian(GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=2))
        assert not np.array_equal(a.system.A, b.system.A)

    def test_sparsity_count(self):
        inst = generate_gaussian(GeneratorSpec(GAUSSIAN, 10, 40, 0.1, seed=0))
        assert np.count_nonzero(inst.truth) == 4

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            generate_gaussian(GeneratorSpec(DCT, 10, 8, 0.25, seed=1))


class TestDCT:
    def test_truth_annihilated(self):
        inst = generate_dct(GeneratorSpec(DCT, 30, 20, 0.1, seed=3))
        resid = inst.system.eval_all(inst.truth)
        tol = 1e-12 * (1.0 + np.abs(inst.system.c).max())
        assert np.abs(resid).max() <= tol

    def test_entries_bounded(self):
        inst = generate_dct(GeneratorSpec(DCT, 6, 8, 0.25, seed=5))
        assert np.all(np.abs(inst.system.A) <= 1.0)

    def test_first_column_ones(self):
        inst = generate_dct(GeneratorSpec(DCT, 6, 8, 0.25, seed=5))
        np.testing.assert_allclose(inst.system.A[:, :, 0], 1.0)

    def test_matrix_free_matches_dense(self):
        spec = GeneratorSpec(DCT, 6, 8, 0.25, seed=5)
        dense = generate_dct(spec)
        free = generate_dct(spec, matrix_free=True)
        np.testing.assert_array_equal(free.system.to_dense().A, dense.system.A)
        # offsets go through different accumulation orders
        np.testing.assert_allclose(free.system.c, dense.system.c, rtol=1e-13)
        np.testing.assert_array_equal(free.truth, dense.truth)

    def test_dispatch(self):
        inst = generate(GeneratorSpec(DCT, 6, 8, 0.25, seed=5))
        assert inst.spec.kind == DCT


@st.composite
def small_specs(draw, kind):
    n = draw(st.integers(1, 12))
    nonzeros = draw(st.integers(1, n))
    return GeneratorSpec(kind, draw(st.integers(1, 20)), n, nonzeros / n,
                         seed=draw(st.integers(0, 2 ** 32 - 1)))


def assert_truth_is_root(inst):
    resid = inst.system.eval_all(inst.truth)
    assert np.abs(resid).max() <= 1e-9 * (1.0 + np.abs(inst.system.c).max())


class TestGeneratedRoots:
    @given(spec=small_specs(GAUSSIAN))
    def test_gaussian(self, spec):
        assert_truth_is_root(generate(spec))

    @given(spec=small_specs(DCT), x=st.integers(0, 2 ** 32 - 1))
    def test_dct_dense_and_matrix_free(self, spec, x):
        dense = generate(spec)
        free = generate(spec, matrix_free=True)
        assert_truth_is_root(dense)
        assert_truth_is_root(free)
        for point in (free.truth, np.random.default_rng(x).standard_normal(spec.n)):
            np.testing.assert_allclose(free.system.eval_all(point),
                                       free.system.to_dense().eval_all(point),
                                       rtol=1e-12, atol=1e-12)
