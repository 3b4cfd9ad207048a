import json
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (CORRUPTIONS, RowByRow, affine_system, random_quadratic,
                      set_meta)

from bregman_kaczmarz import cli, diagnostics, systems
from bregman_kaczmarz.generators import (DCT, GAUSSIAN, GeneratorSpec,
                                         ProblemInstance, generate,
                                         load_instance, save_instance)
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.solver import run
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


class TestGradients:
    def test_symmetric_gradient(self):
        sys = identity_and_affine()
        np.testing.assert_allclose(
            sys.grad_component(0, np.array([1.0, 1.0])), [1.0, 1.0])

    def test_affine_gradient(self, rng):
        sys = identity_and_affine()
        np.testing.assert_allclose(
            sys.grad_component(1, rng.standard_normal(2)), [1.0, 2.0])

    def test_no_gradient_method_named_not_recursed(self, rng):
        # a system that implements neither gradient method is told to
        # implement one, from every gradient entry point, rather than
        # bouncing between the two defaults until the recursion limit
        class ValuesOnly(systems.NonlinearSystem):
            m, n = 3, 2

            def eval_component(self, i, x):
                return float(x @ x) - i

        sys, x = ValuesOnly(), rng.standard_normal(2)
        np.testing.assert_array_equal(sys.eval_all(x), x @ x - np.arange(3))
        for call in (lambda: sys.grad_block([0, 2], x),
                     lambda: sys.grad_component(1, x),
                     lambda: sys.jacobian(x)):
            with pytest.raises(NotImplementedError,
                               match="grad_component or grad_block"):
                call()


def dense_reference(sys, x):
    """F and the Jacobian by full contraction, with the sums of absolute
    term values that bound their rounding error."""
    A, b, c = sys.A, sys.b, sys.c
    F = 0.5 * np.einsum("ijk,j,k->i", A, x, x) + b @ x + c
    F_scale = (0.5 * np.einsum("ijk,j,k->i", abs(A), abs(x), abs(x))
               + abs(b) @ abs(x) + abs(c))
    J = 0.5 * (A + A.transpose(0, 2, 1)) @ x + b
    J_scale = 0.5 * (abs(A) + abs(A).transpose(0, 2, 1)) @ abs(x) + abs(b)
    return F, F_scale, J, J_scale


RTOL = 1e-12
SIZES = dict(m=st.integers(1, 12), n=st.integers(1, 10),
             seed=st.integers(0, 2 ** 32 - 1))
SUPPORTS = dict(support=st.integers(0, 10), negative_zeros=st.booleans(),
                scale=st.sampled_from([1e-3, 1.0, 1e3]))
NON_FINITE = dict(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
                  dense_support=st.booleans())


def random_cosine(m, n, seed):
    rng = np.random.default_rng(seed)
    return DCTQuadraticSystem(rng.random((m, n)), rng.standard_normal((m, n)),
                              rng.standard_normal(m))


def sparse_vector(n, support, negative_zeros, scale, rng):
    v = np.full(n, -0.0 if negative_zeros else 0.0)
    S = rng.choice(n, size=min(support, n), replace=False)
    v[S] = scale * rng.standard_normal(S.size)
    return v


def by_index(X1, X2):
    """The point stack and index pairs `remainders` takes for the pairs
    (X1[p], X2[p]): the rows of X1, then those of X2, pair p the rows
    (p, P + p)."""
    P = len(X1)
    pairs = np.column_stack((np.arange(P), np.arange(P, 2 * P)))
    return np.concatenate((X1, X2)), pairs


def form_reference(dense, X1, X2):
    """The remainders F(x2) - F(x1) - J(x1) (x2 - x1) of a quadratic, the
    forms 0.5 d^T A_i d at d = x2 - x1 by full contraction, and the sums
    of absolute term values that bound their rounding error."""
    D = X2 - X1
    forms = 0.5 * np.einsum("ijk,pj,pk->pi", dense.A, D, D)
    scale = 0.5 * np.einsum("ijk,pj,pk->pi", abs(dense.A), abs(D), abs(D))
    return forms, scale


def cancellation_scale(dense, X1, X2):
    """For each pair and row, |F_i(x1)| + |F_i(x2)| + sum_k |g_k d_k| in
    sums of absolute term values, g the gradient row at x1 and d = x2 - x1:
    the terms a remainder taken as F(x2) - F(x1) - J(x1) d cancels."""
    scales = []
    for x1, x2 in zip(X1, X2):
        _, F1_scale, _, J_scale = dense_reference(dense, x1)
        scales.append(F1_scale + dense_reference(dense, x2)[1]
                      + J_scale @ abs(x2 - x1))
    return np.array(scales).reshape(len(X1), dense.m)


def check_remainders(sys, dense, X1, X2):
    """remainders against the forms of the dense tensor, within the sum of
    absolute term values."""
    forms, scale = form_reference(dense, X1, X2)
    assert np.all(abs(sys.remainders(*by_index(X1, X2)) - forms)
                  <= RTOL * scale)


def peak_bytes(calls):
    """The tracemalloc peak of each call, in bytes."""
    peaks = []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


def call_bytes(calls):
    """For each call, its tracemalloc peak above what was allocated when it
    began, and what stays allocated after it, in bytes.  The counts go
    into arrays made before the trace starts, so they hold no traced
    memory themselves."""
    peaks = np.zeros(len(calls), dtype=int)
    kept = np.zeros(len(calls), dtype=int)
    tracemalloc.start()
    try:
        for k, call in enumerate(calls):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            kept[k], peaks[k] = tracemalloc.get_traced_memory()
            peaks[k] -= start
    finally:
        tracemalloc.stop()
    return peaks, kept


def pool_bytes(sys):
    """The bytes of the pool of a matrix-free system: its rows, the slot of
    every key, the key of every slot and when each slot was last used."""
    return 0 if sys._pool is None else sum(a.nbytes for a in sys._pool)


def pool_bound_bytes(sys):
    """The bytes of the pool of at most min(_POOL_SLABS n, 8 m) rows and its
    tables."""
    rows = min(systems._POOL_SLABS * sys.n, 8 * sys.m)
    return rows * sys.n * 8 + sys.m * sys.n * 4 + 2 * rows * 8


def check_pool(sys):
    """Every key the pool holds has its own slot, and the row in that slot
    is sym(A_i)[j, :] of a fresh system bit for bit."""
    if sys._pool is None:
        return
    rows, slot_of, key_of, _ = sys._pool
    keys = np.flatnonzero(slot_of >= 0)
    np.testing.assert_array_equal(key_of[slot_of[keys]], keys)
    assert np.count_nonzero(key_of >= 0) == keys.size
    fresh = DCTQuadraticSystem(sys.xi, sys.b, sys.c)
    np.testing.assert_array_equal(rows[slot_of[keys]],
                                  fresh._support_rows(*np.divmod(keys, sys.n)))


def held_pair_bytes(sys):
    """The bytes of the buffer of support pairs a system holds."""
    return 0 if sys._pairs[1] is None else sys._pairs[1].nbytes


def pair_budget_bytes(sys):
    """The bytes of the most support pairs a system may hold."""
    return sys.m * sys._pair_budget() * 8


def kernel_checks(make, dense):
    """The checks of the support-restricted kernel of one storage against
    the full contraction of its dense tensor, for symmetric A_i (the
    cosine A_i are not, but their dense storage is).

    `make(m, n, seed)` builds a system and `dense(sys)` the dense system
    it is checked against.  Each storage's test class derives from its own
    copy, so Hypothesis sees one executor per test function.
    """

    class KernelChecks:
        @given(**SIZES, **SUPPORTS)
        def test_matches_dense_reference(self, m, n, seed, support,
                                         negative_zeros, scale):
            # every evaluation within RTOL; gradient rows of a block
            # bit-equal to single rows
            sys = make(m, n, seed)
            rng = np.random.default_rng(seed)
            x = sparse_vector(n, support, negative_zeros, scale, rng)
            F, F_scale, J, J_scale = dense_reference(dense(sys), x)
            assert np.all(abs(sys.eval_all(x) - F) <= RTOL * F_scale)
            for i in range(m):
                assert (abs(sys.eval_component(i, x) - F[i])
                        <= RTOL * F_scale[i])
                assert np.all(abs(sys.grad_component(i, x) - J[i])
                              <= RTOL * J_scale[i])
            blocks = [rng.integers(m, size=1),
                      rng.choice(m, size=rng.integers(1, m + 1),
                                 replace=False),
                      np.arange(m)]
            for idx in blocks:
                rows = sys.grad_block(idx, x)
                assert np.all(abs(rows - J[idx]) <= RTOL * J_scale[idx])
                for row, i in zip(rows, idx):
                    np.testing.assert_array_equal(row,
                                                  sys.grad_component(i, x))
            assert np.all(abs(sys.jacobian(x) - J) <= RTOL * J_scale)

        @given(**SIZES, **SUPPORTS, d_support=st.integers(0, 10))
        def test_remainders_match_dense_reference(self, m, n, seed, support,
                                                  negative_zeros, scale,
                                                  d_support):
            # both orders of a pair of sparse points
            sys = make(m, n, seed)
            rng = np.random.default_rng(seed)
            x1 = sparse_vector(n, support, negative_zeros, scale, rng)
            x2 = sparse_vector(n, d_support, negative_zeros, scale, rng)
            check_remainders(sys, dense(sys), np.array([x1, x2]),
                             np.array([x2, x1]))

        @pytest.mark.parametrize("seed", range(3))
        def test_remainder_cases(self, seed):
            # equal points give 0 exactly, wherever they stand; disjoint
            # supports, points that differ off the support of x1 and dense
            # points against the reference
            sys = make(7, 6, seed)
            ref, n = dense(sys), sys.n
            rng = np.random.default_rng(seed)
            X = np.array([np.zeros(n), np.full(n, -0.0),
                          rng.standard_normal(n)])
            np.testing.assert_array_equal(
                sys.remainders(*by_index(X, X.copy())), np.zeros((3, sys.m)))
            half = rng.permutation(n)[: n // 2]
            x1, x2 = np.zeros(n), rng.standard_normal(n)
            x1[half], x2[half] = rng.standard_normal(half.size), 0.0
            x3 = x1.copy()
            x3[x1 == 0.0] = rng.standard_normal(n - half.size)
            check_remainders(sys, ref, np.array([x1, x1, rng.standard_normal(n)]),
                             np.array([x2, x3, rng.standard_normal(n)]))

        @given(**SIZES)
        def test_zero_gives_offsets_exactly(self, m, n, seed):
            # residuals c and gradient rows b, at +0 and at -0 alike
            sys = make(m, n, seed)
            for zero in (np.zeros(n), np.full(n, -0.0)):
                np.testing.assert_array_equal(sys.eval_all(zero), sys.c)
                np.testing.assert_array_equal(
                    sys.grad_block(np.arange(m), zero), sys.b)

        @given(**SIZES, **NON_FINITE)
        def test_non_finite_x_gives_non_finite_residuals(self, m, n, seed, bad,
                                                         dense_support):
            sys = make(m, n, seed)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(n) if dense_support else np.zeros(n)
            x[rng.integers(n)] = bad
            # the support of x keeps the bad entry: no gradient row of a
            # block has a finite entry either
            idx = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
            with np.errstate(invalid="ignore"):
                F = dense_reference(dense(sys), x)[0]
                assert not np.isfinite(F).any()
                assert not np.isfinite(sys.eval_all(x)).any()
                assert not np.isfinite(sys.grad_block(idx, x)).any()

        @given(**SIZES, **SUPPORTS)
        def test_overflow_gives_infinite_residuals(self, m, n, seed, support,
                                                   negative_zeros, scale):
            # an entry 1e200 makes only the A_i[j, j] x_j^2 term overflow:
            # each residual is the infinity of the reference's sign, never
            # the NaN of inf - inf
            sys = make(m, n, seed)
            rng = np.random.default_rng(seed)
            x = sparse_vector(n, support, negative_zeros, scale, rng)
            x[rng.integers(n)] = 1e200
            with np.errstate(over="ignore"):
                F = dense_reference(dense(sys), x)[0]
                assert np.isinf(F).all()
                np.testing.assert_array_equal(sys.eval_all(x), F)

    return KernelChecks


class TestSupportKernel(kernel_checks(random_quadratic, lambda sys: sys)):
    def test_no_tensor_beyond_storage(self, rng):
        # one (m, n, n) tensor: no call caches a copy or allocates one
        m, n = 40, 30
        # numpy's one-time allocations happen here, not under the trace
        warm = random_quadratic(m, n, seed=1)
        warm.jacobian(rng.standard_normal(n))
        warm.remainders(*by_index(rng.standard_normal((1, n)),
                                  rng.standard_normal((1, n))))
        sys = random_quadratic(m, n, seed=2)
        x = rng.standard_normal(n)
        x[::3] = 0.0
        sparse = np.zeros(n)
        sparse[[2, 11, 17]] = rng.standard_normal(3)
        d = rng.standard_normal(n)
        peaks = peak_bytes([
            lambda: sys.eval_all(x), lambda: sys.eval_all(sparse),
            lambda: sys.grad_block([0, 7, 39], x),
            lambda: sys.jacobian(x), lambda: sys.grad_component(5, x),
            lambda: sys.remainders(*by_index(sparse[None], 2 * sparse[None])),
            lambda: sys.remainders(*by_index(x[None], d[None]))])
        assert max(peaks) < m * n * n * 8 / 4

        # over a long sequence of residuals, below the budget and above it,
        # the system keeps the one buffer of support pairs its first
        # residual within the budget allocated, at the budget, and little
        # else
        calls = [lambda v=sparse_vector(n, size, False, 1.0, rng):
                 sys.eval_all(v) for size in rng.integers(16, size=40)]
        buffer = sys._pairs[1]
        _, kept = call_bytes(calls * 3)
        assert max(kept) <= 16 * 1024
        for call in calls:
            call()
            assert sys._pairs[1] is buffer
        assert held_pair_bytes(sys) == pair_budget_bytes(sys)
        arrays = {k for k, v in vars(sys).items() if isinstance(v, np.ndarray)}
        assert arrays == {"A", "b", "c"}
        assert set(vars(sys)) - arrays == {"m", "n", "_pairs"}


class TestMatrixFreeKernel(kernel_checks(random_cosine,
                                          DCTQuadraticSystem.to_dense)):
    def test_no_tensor_beyond_storage(self, rng):
        # no per-row n x n matrix: above what the system held when it
        # began, a call allocates at most a few (|B|, n, |S|) blocks of
        # cosines, and a residual at a dense x a few (m, n) arrays, not
        # the m n^2 of all its pairs; the system holds one pool within its
        # bound and one buffer of pairs at its budget, allocated once, and
        # over a long sequence of calls nothing else
        m, n, support = 40, 30, 3
        warm = random_cosine(m, n, seed=1)
        warm.jacobian(rng.standard_normal(n))
        warm.remainders(*by_index(rng.standard_normal((1, n)),
                                  rng.standard_normal((1, n))))
        sys = random_cosine(m, n, seed=2)
        x = np.zeros(n)
        x[rng.choice(n, size=support, replace=False)] = rng.standard_normal(support)
        pair = by_index(x[None], rng.standard_normal((1, n)))
        block = [0, 7, 39]
        sys.grad_block([1, 2], x)       # the pool, allocated by a block
        peaks, _ = call_bytes([lambda: sys.eval_all(x),
                               lambda: sys.grad_block(block, x),
                               lambda: sys.jacobian(x),
                               lambda: sys.grad_component(5, x),
                               lambda: sys.remainders(*pair)])
        for rows, peak in zip([m, len(block), m, 1, m], peaks):
            assert peak < 3 * rows * n * support * 8 + 16 * 1024
        dense_x = rng.standard_normal(n)
        peaks, _ = call_bytes([lambda: sys.eval_all(dense_x)])
        assert peaks[0] < 4 * m * n * 8 + 16 * 1024 < m * n * n * 8

        held = sys._pool + (sys._pairs[1],)
        calls = []
        for _ in range(40):
            idx = rng.choice(m, size=rng.integers(m + 1), replace=False)
            v = sparse_vector(n, rng.integers(n + 1), False, 1.0, rng)
            calls.append(lambda idx=idx, v=v: sys.grad_block(idx, v))
            calls.append(lambda v=v: sys.eval_all(v))
        calls.append(lambda: sys.jacobian(rng.standard_normal(n)))
        _, kept = call_bytes(calls * 3)
        assert max(kept) <= 16 * 1024
        assert all(a is b for a, b in zip(sys._pool + (sys._pairs[1],), held))
        assert pool_bytes(sys) == pool_bound_bytes(sys)
        assert held_pair_bytes(sys) == pair_budget_bytes(sys)
        arrays = {k for k, v in vars(sys).items() if isinstance(v, np.ndarray)}
        assert arrays == {"xi", "b", "c"}
        assert set(vars(sys)) - arrays == {"m", "n", "_pairs", "_pool"}

    def test_eval_component_over_index_array(self, rng):
        # an index array gives its rows of F in one call, bit-equal to the
        # single-row calls; every entry is range-checked, and a float or
        # boolean index is refused, scalar or not
        sys = random_cosine(9, 6, seed=3)
        x = np.zeros(6)
        x[[1, 4]] = rng.standard_normal(2)
        F = np.array([sys.eval_component(i, x) for i in range(9)])
        np.testing.assert_array_equal(sys.eval_all(x), F)
        for idx in ([], [4], [8, 0, 8], range(9)):
            idx = np.array(idx, dtype=int)
            np.testing.assert_array_equal(sys.eval_component(idx, x), F[idx])
        for bad in ([0, -1], [9, 0], 1.0, True, [1.0]):
            with pytest.raises(IndexError):
                sys.eval_component(bad, x)


class Reads:
    """An array that records the keys it is indexed with."""

    def __init__(self, array):
        self.array, self.keys = array, []

    def __getitem__(self, key):
        self.keys.append(key)
        return self.array[key]


def watched(kind, m, n, seed):
    """A system of the given kind and a recorder of every read of its row
    storage (the A_i slabs, the frequencies xi_i)."""
    if kind == "matrix-free":
        sys = random_cosine(m, n, seed)
        sys.xi = reads = Reads(sys.xi)
        return sys, reads
    sys = random_quadratic(m, n, seed)
    sys.A = reads = Reads(sys.A)
    return (RowByRow(sys) if kind == "base" else sys), reads


KINDS = ["dense", "matrix-free", "base"]


@pytest.mark.parametrize("matrix_free", [False, True])
@pytest.mark.parametrize("method", ["eval_component", "grad_component",
                                    "grad_block", "eval_points"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_index_out_of_range_rejected(matrix_free, method, bad):
    sys, reads = watched("matrix-free" if matrix_free else "dense", 4, 3, 0)
    x = np.ones(3)
    if method == "grad_block":
        # the bad row is found before any row is read, wherever it stands
        for block in ([0, bad], [bad, 0], [1, bad, 2]):
            with pytest.raises(IndexError):
                sys.grad_block(block, x)
        assert reads.keys == []
        return
    args = (bad, x[None]) if method == "eval_points" else (bad, x)
    with pytest.raises(IndexError):
        getattr(sys, method)(*args)


@pytest.mark.parametrize("matrix_free", [False, True])
def test_scalar_index_must_be_an_integer(matrix_free):
    # a float or boolean row is refused, not read as row 1 or as a new axis
    sys = (random_cosine if matrix_free else random_quadratic)(4, 3, 0)
    x = np.ones(3)
    for bad in (True, 1.0, np.float64(1.0)):
        for call in (lambda: sys.matrix(bad), lambda: sys.eval_component(bad, x),
                     lambda: sys.grad_component(bad, x),
                     lambda: sys.eval_points(bad, x[None])):
            with pytest.raises(IndexError):
                call()


@pytest.mark.parametrize("kind", KINDS)
def test_block_rows_checked_in_one_place(kind):
    # every system, the base loop too, rejects a bad row before reading
    # one, and an empty block has shape (0, n); a non-integer block is
    # refused, not truncated ([1.7] -> row 1) or cast ([True, ...] -> 1, 0, 1)
    sys, reads = watched(kind, 4, 3, 0)
    x = np.ones(3)
    for block in ([0, -1], [4, 0], [-5], [1.7], np.array([0.0, 2.0]),
                  [True, False, True], np.array([1], dtype=object)):
        with pytest.raises(IndexError):
            sys.grad_block(block, x)
    assert reads.keys == []
    for empty in ([], np.array([], dtype=int)):
        assert sys.grad_block(empty, x).shape == (0, 3)


def eval_points_cases():
    """(system, its dense tensor) for each storage and the base loop."""
    rng = np.random.default_rng(4)
    dense = random_quadratic(9, 6, seed=1)
    cosine = random_cosine(9, 6, seed=2)
    affine = affine_system(rng.standard_normal((9, 6)), rng.standard_normal(9))
    return {"dense": (dense, dense), "matrix-free": (cosine, cosine.to_dense()),
            "affine": (affine, affine),
            "base": (RowByRow(dense), dense)}


@pytest.mark.parametrize("case", ["dense", "matrix-free", "affine", "base"])
def test_eval_points_matches_eval_all(case, rng):
    # within 1e-12 of the sum of absolute term values, on dense, sparse
    # and zero points
    sys, dense = eval_points_cases()[case]
    X = rng.standard_normal((5, sys.n))
    X[1, ::2] = 0.0
    X[2] = 0.0
    refs = [dense_reference(dense, x) for x in X]
    for i in range(sys.m):
        values = sys.eval_points(i, X)
        assert values.shape == (len(X),)
        for x, value, (F, F_scale, _, _) in zip(X, values, refs):
            assert abs(value - sys.eval_all(x)[i]) <= RTOL * F_scale[i]
            assert abs(value - sys.eval_component(i, x)) <= RTOL * F_scale[i]
            assert abs(value - F[i]) <= RTOL * F_scale[i]


def stacked_pairs(n, count, rng):
    """`count` pairs (x, d) with supports of every size, the zeros of x
    -0.0; among the first three, x = 0, d = 0 and disjoint supports."""
    X = np.array([sparse_vector(n, rng.integers(n + 1), True, 1.0, rng)
                  for _ in range(count)]).reshape(count, n)
    D = np.array([sparse_vector(n, rng.integers(n + 1), False, 1.0, rng)
                  for _ in range(count)]).reshape(count, n)
    if count >= 3:
        X[0], D[1] = 0.0, 0.0
        half = rng.permutation(n)[: n // 2]
        X[2], D[2] = -0.0, rng.standard_normal(n)
        X[2, half], D[2, half] = rng.standard_normal(half.size), 0.0
    return X, D


@pytest.mark.parametrize("case", ["dense", "matrix-free", "affine", "base"])
@pytest.mark.parametrize("count", [0, 1, 3, 17, 1000])
def test_stacked_remainders_match_single_pairs(case, count, rng):
    # row p of a stacked call is the remainder of the pair p: against a
    # call on that pair alone and the dense forms, over one chunk and
    # several (a (9, 6) system of either storage takes 9 * 6 // (9 + 6)
    # = 3 pairs a chunk, so 3 pairs are one full chunk and 1000 are 334);
    # the base loop within the terms its differences cancel; equal points
    # and the affine system give 0 exactly
    sys, dense = eval_points_cases()[case]
    X, D = stacked_pairs(sys.n, count, rng)
    X2 = X + D
    out = sys.remainders(*by_index(X, X2))
    assert out.shape == (count, sys.m)
    forms, tol = form_reference(dense, X, X2)
    tol *= RTOL
    if case == "base":
        tol += RTOL * cancellation_scale(dense, X, X2)
    for p, row in enumerate(out):
        assert np.all(abs(row - sys.remainders(*by_index(X[p:p + 1],
                                                         X2[p:p + 1]))[0])
                      <= tol[p])
    assert np.all(abs(out - forms) <= tol)
    np.testing.assert_array_equal(out[(D == 0.0).all(axis=1)], 0.0)
    if case == "affine":
        np.testing.assert_array_equal(out, 0.0)


def test_base_remainders_evaluate_each_distinct_point_once(rng):
    # the audit's pairs of a trajectory x_0, ..., x_T and its truth x_T+1,
    # (x_k, x_k+1) and (x_k, x_T+1), over a stack with one more row that
    # no pair uses: F at the T + 2 rows the pairs use and the Jacobian at
    # the T + 1 distinct i1, no more than a dedupe of the points by their
    # bits finds, since no two rows are equal; bit for bit the per-pair
    # formula
    inner, T = random_quadratic(9, 6, seed=4), 7
    X = stacked_pairs(inner.n, T + 3, rng)[0]
    assert len({x.tobytes() for x in X}) == T + 3
    pairs = np.array([(k, k + 1) for k in range(T)]
                     + [(k, T + 1) for k in range(T + 1)])
    sys, evals, grads = RowByRow(inner), [], []
    sys.eval_component = lambda i, x: evals.append(i) or inner.eval_component(i, x)
    sys.grad_component = lambda i, x: grads.append(i) or inner.grad_component(i, x)
    out = sys.remainders(X, pairs)
    assert len(evals) == np.unique(pairs).size * sys.m == (T + 2) * sys.m
    assert len(grads) == np.unique(pairs[:, 0]).size * sys.m == (T + 1) * sys.m
    ref = RowByRow(inner)
    np.testing.assert_array_equal(out, [
        ref.eval_all(x2) - ref.eval_all(x1) - ref.jacobian(x1) @ (x2 - x1)
        for x1, x2 in X[pairs]])


def test_matrix_free_remainders_bit_equal_to_dense_storage(rng):
    # both storages run one chunk kernel, and the matrix-free rows of the
    # symmetric slabs are those of to_dense() bit for bit, so the stacked
    # remainders are too
    sys = random_cosine(40, 30, seed=3)
    X, D = stacked_pairs(sys.n, 100, rng)
    args = by_index(X, X + D)
    np.testing.assert_array_equal(sys.remainders(*args),
                                  sys.to_dense().remainders(*args))


@pytest.mark.parametrize("case", ["dense", "matrix-free", "base"])
def test_remainders_shapes_checked(case):
    # only a (T, n) stack and (P, 2) pairs: no single point, stack of
    # another width or 3-D stack, and no single pair, pairs of another
    # width or 3-D pairs
    sys = eval_points_cases()[case][0]
    X, pairs = np.ones((3, sys.n)), np.array([[0, 1]])
    for bad in ((X[0], pairs), (X[:, :-1], pairs), (X[:, None], pairs),
                (X, pairs[0]), (X, np.array([[0, 1, 2]])), (X, pairs[None]),
                (X, [])):
        with pytest.raises(ValueError, match="remainders needs"):
            sys.remainders(*bad)


@pytest.mark.parametrize("kind", KINDS)
def test_remainders_pairs_checked(kind):
    # the pairs index rows of the stack: a negative, out-of-range, float
    # or boolean index is refused before any row of the storage is read,
    # not wrapped, truncated or read as a mask; unsigned pairs are read as
    # the same rows, and no pairs give shape (0, m)
    sys, reads = watched(kind, 4, 3, 0)
    X = np.arange(9.0).reshape(3, 3)
    for bad in ([[0, -1]], [[3, 0]], [[0, 1], [2, 5]], [[0.0, 1.0]],
                [[True, False]], np.array([[0, 1]], dtype=object)):
        with pytest.raises(IndexError):
            sys.remainders(X, bad)
    assert reads.keys == []
    pairs = np.array([[0, 2], [2, 1]])
    np.testing.assert_array_equal(sys.remainders(X, pairs.astype(np.uint8)),
                                  sys.remainders(X, pairs))
    for empty in (np.zeros((0, 2), dtype=int), np.zeros((0, 2))):
        assert sys.remainders(X, empty).shape == (0, 4)
        assert sys.remainders(X[:0], empty).shape == (0, 4)


@pytest.mark.parametrize("make", [random_quadratic, random_cosine])
def test_stacked_remainders_memory_does_not_grow_with_pairs(make, rng):
    # beyond its (P, m) result a stacked call holds one chunk's
    # temporaries: as much for 400 pairs as for 200, less than the
    # dense tensor, and for the cosines within the bound a single pair
    # may reach, 3 m n |S| 8 bytes
    m, n, support, count = 40, 30, 3, 400
    X = np.zeros((count, n))
    for x in X:
        x[rng.choice(n, size=support, replace=False)] = rng.standard_normal(support)
    D = np.where(rng.random((count, n)) < 0.2, rng.standard_normal((count, n)), 0.0)
    X2 = X + D
    half, whole = by_index(X[:200], X2[:200]), by_index(X, X2)
    make(m, n, seed=1).remainders(*whole)
    sys = make(m, n, seed=2)
    peaks = peak_bytes([lambda: sys.remainders(*half),
                        lambda: sys.remainders(*whole)])
    held = [peak - P * m * 8 for P, peak in zip((200, count), peaks)]
    assert held[1] <= held[0] + 16 * 1024
    assert held[0] < m * n * n * 8
    if make is random_cosine:
        assert held[0] < 3 * m * n * support * 8 + 16 * 1024


@pytest.mark.parametrize("storage, m, n, rows, support", [
    ("dense", 300, 150, 113, 7), ("dense", 200, 100, 20, 5),
    ("dense", 40, 30, 40, 1), ("matrix-free", 200, 100, 72, 8)])
def test_grad_block_bit_equal_to_row_formula_dense_and_matrix_free(
        storage, m, n, rows, support):
    # the block-dense, diagnose and dct-matfree block shapes and a whole
    # Jacobian, at a dense, a sparse and a zero x, bit for bit, also in a
    # block of several chunks: with A the symmetric slab of row i (of
    # to_dense() for the matrix-free A_i) and S the support of x, row i is
    # x_S A[S, :] + b_i for both storages
    assert rows > systems._GRAD_SLABS   # dense x: several chunks
    matrix_free = storage == "matrix-free"
    sys = (random_cosine if matrix_free else random_quadratic)(m, n, seed=m)
    dense = sys.to_dense() if matrix_free else sys
    rng = np.random.default_rng(n)
    idx = rng.choice(m, size=rows, replace=False)
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=support, replace=False)] = rng.standard_normal(support)
    # the matrix-free block at the sparse x is pooled, so the second call
    # reads every row the first computed
    assert not matrix_free or rows * support <= systems._POOL_SLABS * n
    for x in (rng.standard_normal(n), sparse, sparse, np.zeros(n)):
        S = np.flatnonzero(x)
        expected = [x[S] @ dense.matrix(i)[S] + sys.b[i] for i in idx]
        np.testing.assert_array_equal(sys.grad_block(idx, x), expected)


SEQUENCE_M, SEQUENCE_N = 40, 12
# blocks that overlap, are disjoint, repeat a row or an earlier block or
# are empty or a single row, at supports that grow and shrink, x = 0, a
# NaN entry (the flag) and a whole Jacobian at a dense x, above the pool
SEQUENCE_CALLS = [([0, 1, 2, 3], {1}, False), ([2, 3, 4, 5], {1, 4, 7}, False),
                  ([20, 21], {4, 7}, False), ([8, 0, 8], {1, 4, 7}, False),
                  ([8, 0, 8], {1, 4, 7}, False), ([], {2}, False),
                  ([5, 6], set(), False), ([3, 8], {2, 5, 9}, True),
                  ([3], {2, 5}, False),
                  (range(SEQUENCE_M), set(range(SEQUENCE_N)), False)]


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_matrix_free_rows_pure_over_call_sequences(seed, data):
    # every call of a sequence on one matrix-free system gives the rows of
    # a fresh system and of to_dense() bit for bit, whatever its pool holds
    # from the calls before, also when the pool is so small (n or 2n rows)
    # that the blocks evict each other's rows; the pool stays within its
    # bound and holds the true row of every key it holds
    m, n = SEQUENCE_M, SEQUENCE_N
    slabs = data.draw(st.sampled_from([1, 2, systems._POOL_SLABS]))
    assert m * n > systems._POOL_SLABS * n
    drawn = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, m - 1), max_size=m),
        st.sets(st.integers(0, n - 1)), st.booleans()), max_size=8))
    calls = data.draw(st.permutations(SEQUENCE_CALLS + drawn))
    sys = random_cosine(m, n, seed)
    dense = sys.to_dense()
    rng = np.random.default_rng(seed)
    with patch.object(systems, "_POOL_SLABS", slabs):
        for block, support, nan in calls:
            idx = np.array(block, dtype=int)
            S = sorted(support)
            x = np.zeros(n)
            x[S] = rng.standard_normal(len(S))
            if nan and S:
                x[S[0]] = np.nan
            rows = sys.grad_block(idx, x)
            np.testing.assert_array_equal(
                rows, random_cosine(m, n, seed).grad_block(idx, x))
            np.testing.assert_array_equal(rows, dense.grad_block(idx, x))
            assert pool_bytes(sys) <= pool_bound_bytes(sys)
            check_pool(sys)


def counted(sys):
    """A list that `sys._support_rows` appends the number of rows of each
    call to, so that it counts the rows the system computes."""
    computed, support_rows = [], sys._support_rows

    def count(I, J):
        rows = support_rows(I, J)
        computed.append(rows.size // sys.n)
        return rows
    sys._support_rows = count
    return computed


def test_matrix_free_pool_keeps_the_recently_used_rows(rng):
    # blocks of 80 keys in a pool of 192 rows, whose rows are computed in
    # chunks of n = 12: A, then B, fill 160 slots; A again computes
    # nothing; C takes the 32 free slots and 48 of B's, the least recently
    # used (not A's, the oldest computed), so A again computes nothing and
    # B again the 48 rows it lost; a block that repeats its slabs computes
    # each row once; every block gives the rows of to_dense()
    m, n = 40, 12
    assert systems._POOL_SLABS * n == 192
    sys = random_cosine(m, n, seed=6)
    dense = sys.to_dense()
    computed = counted(sys)
    x = np.zeros(n)
    x[2:10] = rng.standard_normal(8)
    A, B, C = np.arange(10), np.arange(10, 20), np.arange(20, 30)
    for block, rows in ((A, 80), (B, 80), (A, 0), (C, 80), (A, 0), (B, 48),
                        (np.repeat(np.arange(30, 34), 3), 32)):
        computed.clear()
        np.testing.assert_array_equal(sys.grad_block(block, x),
                                      dense.grad_block(block, x))
        assert computed == [n] * (rows // n) + [rows % n] * (rows % n > 0)
        check_pool(sys)


def test_matrix_free_pool_bounded_by_the_instance(rng):
    # the pool holds min(_POOL_SLABS n, 8 m) rows: at (8, 2000) the 64 rows
    # of 8 m, 1 MB, not the 32,000 rows (512 MB) of _POOL_SLABS n; a
    # 2-row block goes through it and gives the single rows bit for bit;
    # the (200, 100) and (60, 30) instances keep their _POOL_SLABS n rows
    m, n = 8, 2000
    sys = random_cosine(m, n, seed=5)
    x = np.zeros(n)
    x[rng.choice(n, size=3, replace=False)] = rng.standard_normal(3)
    rows = sys.grad_block([1, 6], x)
    assert sys._pool[0].shape == (8 * m, n)
    assert pool_bytes(sys) <= pool_bound_bytes(sys) < 2 ** 21
    np.testing.assert_array_equal(rows, [sys.grad_component(i, x) for i in (1, 6)])
    assert random_cosine(200, 100, seed=0)._pool_size() == 1600
    assert random_cosine(60, 30, seed=0)._pool_size() == 480


def test_matrix_free_rows_after_a_failed_block(rng):
    # a block that fails while computing its rows, after a first chunk of
    # them is written, leaves no key held over a row it never wrote, and a
    # single row leaves the pool as it is; the next blocks give the rows of
    # to_dense()
    m, n = 40, 12
    sys = random_cosine(m, n, seed=5)
    dense = sys.to_dense()
    x = np.zeros(n)
    x[[1, 4, 7]] = rng.standard_normal(3)
    first, second, third = np.arange(8), np.arange(4, 30), np.arange(2, 12)
    assert (second.size - 4) * 3 > n        # more than one chunk
    sys.grad_block(first, x)
    pool = [a.copy() for a in sys._pool]
    np.testing.assert_array_equal(sys.grad_component(9, x),
                                  dense.grad_component(9, x))
    for before, after in zip(pool, sys._pool):
        np.testing.assert_array_equal(before, after)
    support_rows, calls = sys._support_rows, []

    def fail_second(I, J):
        calls.append(len(I))
        if len(calls) == 2:
            sys._support_rows = support_rows
            raise MemoryError
        return support_rows(I, J)

    sys._support_rows = fail_second
    with pytest.raises(MemoryError):
        sys.grad_block(second, x)
    check_pool(sys)
    assert not (sys._pool[1][second[:, None] * n + [1, 4, 7]] >= 0)[4:].any()
    for block in (third, second, first):
        np.testing.assert_array_equal(sys.grad_block(block, x),
                                      dense.grad_block(block, x))
        check_pool(sys)


PAIRS_M, PAIRS_N = 30, 20
# supports that grow, shrink, are disjoint or repeat, reach the first and
# the last index, x = 0, a NaN entry and an entry whose square overflows
# (the second field), and supports above the budget of held pairs and back
# under it
PAIR_CALLS = [({1}, None), ({1, 4, 7}, None), ({1, 3, 4, 7, 19}, None),
              ({4, 7}, None), ({0, 2, 5}, None), ({4, 7}, None),
              ({4, 7}, None), (set(), None), ({2, 5, 9}, np.nan),
              ({3, 8, 15}, 1e200), (set(range(12)), None), ({3, 8}, None),
              (set(range(PAIRS_N)), None), ({0, 19}, None)]


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dense_pairs_pure_over_call_sequences(seed, data):
    # every residual of a sequence on one system of either storage is that
    # of a fresh system bit for bit, whatever pairs it holds from the calls
    # before, and within RTOL of the storage's loop over support rows (the
    # same infinities where a square overflows); a matrix-free residual
    # within its budget is also that of to_dense() bit for bit, with
    # to_dense() holding the pairs of the same supports; what a system
    # holds stays within its budget
    m, n = PAIRS_M, PAIRS_N
    sizes = [len(support) for support, _ in PAIR_CALLS]
    assert 12 * 13 // 2 > n * n // systems._PAIR_SHARE >= 5 * 6 // 2
    assert 20 * 21 // 2 > systems._PAIR_ROWS * n >= 12 * 13 // 2
    assert 12 in sizes and 5 in sizes and 20 in sizes
    drawn = data.draw(st.lists(st.tuples(st.sets(st.integers(0, n - 1)),
                                         st.none()), max_size=8))
    calls = data.draw(st.permutations(PAIR_CALLS + drawn))
    sys = random_quadratic(m, n, seed)
    cosine = random_cosine(m, n, seed)
    dense = cosine.to_dense()
    dense._pair_budget = cosine._pair_budget
    rng = np.random.default_rng(seed)
    for support, special in calls:
        S = sorted(support)
        x = np.zeros(n)
        x[S] = rng.standard_normal(len(S))
        if special is not None and S:
            x[S[0]] = special
        with np.errstate(over="ignore", invalid="ignore"):
            F, G = sys.eval_all(x), cosine.eval_all(x)
            np.testing.assert_array_equal(
                F, random_quadratic(m, n, seed).eval_all(x))
            np.testing.assert_array_equal(
                G, random_cosine(m, n, seed).eval_all(x))
            if len(S) * (len(S) + 1) // 2 <= cosine._pair_budget():
                np.testing.assert_array_equal(G, dense.eval_all(x))
            loops = [sys._row_residuals(x), cosine._row_residuals(x)]
            scales = [dense_reference(sys, x)[1], dense_reference(dense, x)[1]]
        for values, loop, scale in zip((F, G), loops, scales):
            if special is None or not S:
                assert np.all(abs(values - loop) <= RTOL * scale)
            elif np.isnan(special):
                assert not np.isfinite(values).any()
            else:
                assert np.isinf(values).all()
                np.testing.assert_array_equal(values, loop)
        assert held_pair_bytes(sys) <= pair_budget_bytes(sys)
        assert held_pair_bytes(cosine) <= pair_budget_bytes(cosine)


@pytest.mark.parametrize("support", ["first", "last", "all"])
def test_dense_row_residuals_match_dense_reference(rng, support):
    # the loop over support rows beyond the budget, at a support holding
    # index 0, one holding index n - 1 (a one-column product of its row)
    # and one holding every index
    m, n = PAIRS_M, PAIRS_N
    sys = random_quadratic(m, n, seed=6)
    S = {"first": [0, 7, 12], "last": [3, 11, n - 1], "all": range(n)}[support]
    x = np.zeros(n)
    x[S] = rng.standard_normal(len(S))
    F, F_scale, _, _ = dense_reference(sys, x)
    assert np.all(abs(sys._row_residuals(x) - F) <= RTOL * F_scale)


def test_dense_pairs_after_a_failed_gather(rng):
    # a residual that fails while gathering its new pairs, after the kept
    # ones have moved, leaves the system holding none; the next residuals,
    # at the support held before and at the new one, are a fresh system's
    m, n = PAIRS_M, PAIRS_N
    sys = random_quadratic(m, n, seed=4)
    fresh = random_quadratic(m, n, seed=4)
    x, y = np.zeros(n), np.zeros(n)
    x[[2, 9, 15]] = rng.standard_normal(3)
    y[[2, 5, 9, 15]] = rng.standard_normal(4)   # the pairs of 9 and 15 move
    sys.eval_all(x)
    A = sys.A

    class GatherFails:
        def __getitem__(self, key):
            sys.A = A
            raise MemoryError

    sys.A = GatherFails()
    with pytest.raises(MemoryError):
        sys.eval_all(y)
    assert sys._pairs[0].size == 0
    for v in (x, y, x):
        np.testing.assert_array_equal(sys.eval_all(v), fresh.eval_all(v))


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

    @pytest.mark.parametrize("preset", ["nbk", "abnbk-a"])
    def test_matrix_free_solve_reproduces_dense_solve(self, preset):
        # both storages hold the pairs of every support within their
        # budgets and compute them to the same bits, so a generated
        # matrix-free instance has the offsets of the dense one of its
        # spec, and a solve whose supports stay within both budgets has
        # its history, bit for bit apart from the timings
        spec = GeneratorSpec(DCT, 60, 30, 0.1, seed=3)
        free, dense = (generate(spec, matrix_free=flag) for flag in (True, False))
        np.testing.assert_array_equal(free.system.c, dense.system.c)
        prior = SparsePrior(cli.DEFAULT_LAMBDA)
        config = cli.preset_config(preset, seed=5)
        config.keep_iterates = True
        records = [run(inst.system, prior, config, cli.initial_dual(30, 7),
                       truth=inst.truth) for inst in (free, dense)]
        budget = min(free.system._pair_budget(), dense.system._pair_budget())
        supports = [np.count_nonzero(x) for x in records[0].primals]
        assert len(supports) > 2
        assert max(supports) * (max(supports) + 1) // 2 <= budget
        assert [r.status for r in records] == ["converged"] * 2
        history = [np.array(r.rows)[:, :-1] for r in records]
        np.testing.assert_array_equal(history[0], history[1])


class TestSerialization:
    def test_gaussian_round_trip(self, tmp_path):
        inst = generate(GeneratorSpec(GAUSSIAN, 5, 4, 0.5, seed=11))
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.system.A, inst.system.A)
        np.testing.assert_array_equal(loaded.system.b, inst.system.b)
        np.testing.assert_array_equal(loaded.system.c, inst.system.c)
        np.testing.assert_array_equal(loaded.truth, inst.truth)
        assert loaded.spec == inst.spec

    def test_dct_matrix_free_round_trip(self, tmp_path):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=True)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        loaded = load_instance(path)
        assert isinstance(loaded.system, DCTQuadraticSystem)
        np.testing.assert_array_equal(loaded.system.xi, inst.system.xi)
        np.testing.assert_array_equal(loaded.truth, inst.truth)

    @pytest.mark.parametrize("matrix_free, name", [
        (False, "A"), (False, "b"), (False, "c"), (False, "truth"),
        (False, "meta"), (True, "xi"), (True, "b"), (True, "c"),
        (True, "truth"), (True, "meta")])
    def test_missing_array_rejected(self, tmp_path, matrix_free, name):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        with np.load(path) as data:
            arrays = dict(data)
        del arrays[name]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"missing '{name}'"):
            load_instance(path)

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("key", ["format_version", "storage", "kind", "m",
                                     "n", "sp", "seed"])
    def test_missing_meta_key_rejected(self, tmp_path, matrix_free, key):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        del meta[key]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"meta: missing '{key}'"):
            load_instance(path)

    @pytest.mark.parametrize("matrix_free, name", [
        (False, "A"), (False, "b"), (False, "c"), (False, "truth"),
        (True, "xi"), (True, "b"), (True, "c"), (True, "truth")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, matrix_free, name, bad):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name].flat[-1] = bad
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_instance(path)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_unknown_storage_rejected(self, tmp_path, matrix_free):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        set_meta(path, storage="bogus")
        with pytest.raises(ValueError, match="unknown storage 'bogus'"):
            load_instance(path)

    def test_matrix_free_kind_mismatch_rejected(self, tmp_path):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=True)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        set_meta(path, kind=GAUSSIAN)
        with pytest.raises(ValueError, match="meta kind is 'gaussian'"):
            load_instance(path)

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("sp", [0.25, 1.0])
    def test_sparsity_disagreeing_with_truth_rejected(self, tmp_path,
                                                      matrix_free, sp):
        # the truth holds round(0.5 * 4) = 2 nonzeros
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        set_meta(path, sp=sp)
        with pytest.raises(ValueError, match=f"sp={sp} means"):
            load_instance(path)

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("field", ["m", "n"])
    def test_meta_disagreeing_with_arrays_rejected(self, tmp_path,
                                                   matrix_free, field):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        set_meta(path, **{field: 3})
        with pytest.raises(ValueError, match="disagree"):
            load_instance(path)

    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_unreadable_file_rejected(self, tmp_path, case):
        path = tmp_path / "inst.npz"
        save_instance(path, generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11)))
        corrupt, phrase = CORRUPTIONS[case]
        corrupt(path)
        with pytest.raises(ValueError, match=phrase) as exc:
            load_instance(path)
        if "archive" in phrase:         # a file that is no archive is named
            assert str(path) in str(exc.value)

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_truth_of_wrong_length_rejected(self, tmp_path, matrix_free):
        inst = generate(GeneratorSpec(DCT, 5, 4, 0.5, seed=11),
                        matrix_free=matrix_free)
        path = tmp_path / "inst.npz"
        save_instance(path, inst)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["truth"] = arrays["truth"][:3]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="'truth'"):
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


def assert_symmetric(A):
    np.testing.assert_array_equal(A, A.transpose(0, 2, 1))


class TestSymmetricContract:
    """Dense systems hold symmetric A_i; the package makes them so where
    it builds one, and leaves a caller's tensor alone."""

    @pytest.mark.parametrize("kind", [GAUSSIAN, DCT])
    def test_generated_and_to_dense_slabs_symmetric(self, kind):
        inst = generate(GeneratorSpec(kind, 7, 6, 0.5, seed=3))
        assert_symmetric(inst.system.A)
        assert_symmetric(random_cosine(7, 6, seed=3).to_dense().A)

    def test_non_symmetric_file_loads_symmetrized(self, tmp_path, rng):
        # a dense file holding the raw draw (the layout before symmetric
        # slabs) gives the F of the raw tensor and its true gradient rows
        spec = GeneratorSpec(GAUSSIAN, 9, 6, 0.5, seed=4)
        inst = generate(spec)
        raw = rng.standard_normal((spec.m, spec.n, spec.n))
        old = QuadraticSystem(raw.copy(), inst.system.b, inst.system.c)
        path = tmp_path / "old.npz"
        save_instance(path, ProblemInstance(old, inst.truth, spec))
        loaded = load_instance(path).system
        assert_symmetric(loaded.A)
        for x in (rng.standard_normal(spec.n), inst.truth):
            F, F_scale, J, J_scale = dense_reference(old, x)
            assert np.all(abs(loaded.eval_all(x) - F) <= RTOL * F_scale)
            rows = loaded.grad_block(np.arange(spec.m), x)
            assert np.all(abs(rows - J) <= RTOL * J_scale)
        # re-symmetrizing symmetric slabs changes no bit
        save_instance(path, inst)
        assert load_instance(path).system.A.tobytes() == inst.system.A.tobytes()

    def test_caller_tensor_untouched(self, rng):
        A = rng.standard_normal((5, 4, 4))
        before = A.tobytes()
        sys = QuadraticSystem(A, rng.standard_normal((5, 4)),
                              rng.standard_normal(5))
        assert sys.A is A
        x, d = rng.standard_normal(4), rng.standard_normal(4)
        sys.eval_all(x), sys.eval_points(2, [x, d]), sys.grad_block([0, 3], x)
        sys.remainders(*by_index(x[None], d[None]))
        assert A.tobytes() == before

    def test_non_symmetric_tensor_fails_gradient_check(self, rng):
        # the kernels take A_i symmetric and nothing checks it on entry:
        # the gradient check is the guard
        raw = random_quadratic(6, 5, seed=0)
        raw.A += rng.standard_normal(raw.A.shape)
        sym = random_quadratic(6, 5, seed=0)
        dev = {name: diagnostics.check_gradients(
                   sys, diagnostics.GRADIENT_TRIALS, np.random.default_rng(1))
               for name, sys in (("raw", raw), ("sym", sym))}
        assert dev["raw"] > diagnostics.GRADIENT_TOL >= dev["sym"]
