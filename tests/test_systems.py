import numpy as np
import pytest

from conftest import affine_system, random_quadratic

from bregman_kaczmarz.generators import (DCT, GAUSSIAN, GeneratorSpec,
                                         generate_dct, generate_gaussian,
                                         load_instance, save_instance)
from bregman_kaczmarz.systems import DCTQuadraticSystem, QuadraticSystem


def identity_and_affine():
    # row 0: A = I, b = 0, c = 0; row 1: A = 0, b = (1, 2), c = -3
    A = np.zeros((2, 2, 2))
    A[0] = np.eye(2)
    b = np.array([[0.0, 0.0], [1.0, 2.0]])
    c = np.array([0.0, -3.0])
    return QuadraticSystem(A, b, c)


class TestEvaluation:
    def test_identity_quadratic(self):
        sys = identity_and_affine()
        assert sys.eval_component(0, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_affine_row(self):
        sys = identity_and_affine()
        assert sys.eval_component(1, np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_eval_all_stacks(self):
        sys = identity_and_affine()
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(sys.eval_all(x), [1.0, 0.0])

    def test_eval_all_consistent_componentwise(self, rng):
        sys = random_quadratic(6, 4, seed=0)
        x = rng.standard_normal(4)
        full = sys.eval_all(x)
        for i in range(6):
            assert full[i] == pytest.approx(sys.eval_component(i, x), rel=1e-12)

    def test_index_out_of_range(self):
        sys = identity_and_affine()
        with pytest.raises(IndexError):
            sys.eval_component(2, np.zeros(2))
        with pytest.raises(IndexError):
            sys.grad_component(-1, np.zeros(2))


class TestGradients:
    def test_symmetric_gradient(self):
        sys = identity_and_affine()
        np.testing.assert_allclose(
            sys.grad_component(0, np.array([1.0, 1.0])), [1.0, 1.0])

    def test_affine_gradient(self, rng):
        sys = identity_and_affine()
        np.testing.assert_allclose(
            sys.grad_component(1, rng.standard_normal(2)), [1.0, 2.0])

    def test_finite_differences_nonsymmetric(self, rng):
        sys = random_quadratic(5, 4, seed=3)
        for i in range(5):
            for _ in range(20):
                x = rng.standard_normal(4)
                g = sys.grad_component(i, x)
                h = 1e-6 * (1.0 + np.linalg.norm(x))
                fd = np.empty(4)
                for j in range(4):
                    e = np.zeros(4)
                    e[j] = h
                    fd[j] = (sys.eval_component(i, x + e)
                             - sys.eval_component(i, x - e)) / (2.0 * h)
                assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))

    def test_grad_block_matches_rows(self, rng):
        sys = random_quadratic(6, 4, seed=1)
        x = rng.standard_normal(4)
        idx = np.array([0, 3, 5])
        block = sys.grad_block(idx, x)
        for row, i in zip(block, idx):
            np.testing.assert_allclose(row, sys.grad_component(i, x))


class TestDCTSystem:
    def make(self, rng):
        xi = rng.random((3, 5))
        b = rng.standard_normal((3, 5))
        c = rng.standard_normal(3)
        return DCTQuadraticSystem(xi, b, c)

    def test_first_column_all_ones(self, rng):
        sys = self.make(rng)
        for i in range(3):
            np.testing.assert_allclose(sys.matrix(i)[:, 0], np.ones(5))

    def test_entries_in_unit_interval(self, rng):
        sys = self.make(rng)
        for i in range(3):
            A = sys.matrix(i)
            assert np.all(A >= -1.0) and np.all(A <= 1.0)

    def test_matches_dense(self, rng):
        sys = self.make(rng)
        dense = sys.to_dense()
        x = rng.standard_normal(5)
        np.testing.assert_allclose(sys.eval_all(x), dense.eval_all(x), rtol=1e-12)
        for i in range(3):
            np.testing.assert_allclose(sys.grad_component(i, x),
                                       dense.grad_component(i, x), rtol=1e-12)


class TestSerialization:
    def test_gaussian_round_trip(self, tmp_path):
        inst = generate_gaussian(GeneratorSpec(GAUSSIAN, 5, 4, 0.5, seed=11))
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.system.A, inst.system.A)
        np.testing.assert_array_equal(loaded.system.b, inst.system.b)
        np.testing.assert_array_equal(loaded.system.c, inst.system.c)
        np.testing.assert_array_equal(loaded.truth, inst.truth)
        assert loaded.spec == inst.spec

    def test_dct_matrix_free_round_trip(self, tmp_path):
        inst = generate_dct(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                            matrix_free=True)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        loaded = load_instance(path)
        assert isinstance(loaded.system, DCTQuadraticSystem)
        np.testing.assert_array_equal(loaded.system.xi, inst.system.xi)
        np.testing.assert_array_equal(loaded.truth, inst.truth)


    @pytest.mark.parametrize("matrix_free, name", [
        (False, "A"), (False, "b"), (False, "c"), (False, "truth"),
        (True, "xi"), (True, "b"), (True, "c"), (True, "truth")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, matrix_free, name, bad):
        inst = generate_dct(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                            matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name].flat[-1] = bad
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_instance(path)


class TestShapes:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSystem(np.zeros((2, 3, 4)), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            QuadraticSystem(np.zeros((2, 3, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_affine_helper(self, rng):
        B = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        sys = affine_system(B, y)
        x = rng.standard_normal(2)
        np.testing.assert_allclose(sys.eval_all(x), B @ x - y)
