import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bregman_kaczmarz import generators
from bregman_kaczmarz.generators import (DCT, GAUSSIAN, GeneratorSpec,
                                         generate, generate_sparse_signal)
from bregman_kaczmarz.systems import DCTQuadraticSystem, QuadraticSystem


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

    @pytest.mark.parametrize("field, value", [
        ("kind", 1), ("m", "10"), ("n", 5.0), ("n", True), ("sp", None),
        ("sp", "0.2"), ("seed", False), ("seed", 1.5)])
    def test_wrong_type_rejected(self, field, value):
        fields = {**dict(kind=GAUSSIAN, m=10, n=5, sp=0.2, seed=0), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GeneratorSpec(**fields)


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
        inst = generate(GeneratorSpec(GAUSSIAN, 30, 20, 0.1, seed=3))
        resid = inst.system.eval_all(inst.truth)
        tol = 1e-12 * (1.0 + np.abs(inst.system.c).max())
        assert np.abs(resid).max() <= tol

    def test_seeded_determinism(self):
        spec = GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=42)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.system.A, b.system.A)
        np.testing.assert_array_equal(a.system.b, b.system.b)
        np.testing.assert_array_equal(a.system.c, b.system.c)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=1))
        b = generate(GeneratorSpec(GAUSSIAN, 10, 8, 0.25, seed=2))
        assert not np.array_equal(a.system.A, b.system.A)

    def test_sparsity_count(self):
        inst = generate(GeneratorSpec(GAUSSIAN, 10, 40, 0.1, seed=0))
        assert np.count_nonzero(inst.truth) == 4


class TestDCT:
    def test_truth_annihilated(self):
        inst = generate(GeneratorSpec(DCT, 30, 20, 0.1, seed=3))
        resid = inst.system.eval_all(inst.truth)
        tol = 1e-12 * (1.0 + np.abs(inst.system.c).max())
        assert np.abs(resid).max() <= tol

    def test_matrix_free_matches_dense(self):
        spec = GeneratorSpec(DCT, 6, 8, 0.25, seed=5)
        dense = generate(spec)
        free = generate(spec, matrix_free=True)
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


def reference_instance(spec, matrix_free):
    """The instance of `spec` drawn one stream at a time: coefficient row i
    (A_i, made symmetric, or xi_i) from stream i of the spawned seed, b from
    stream m and the truth from stream m + 1, then the offsets -F_0(truth)
    of the system with zero offsets."""
    m, n = spec.m, spec.n
    streams = [np.random.default_rng(child) for child in
               np.random.SeedSequence(spec.seed).spawn(m + 2)]
    if spec.kind == GAUSSIAN:
        halves = [0.5 * rng.standard_normal((n, n)) for rng in streams[:m]]
        rows = [h + h.T for h in halves]
    else:
        rows = [rng.random(n) for rng in streams[:m]]
    b = streams[m].standard_normal((m, n))
    truth = generate_sparse_signal(n, spec.sp, streams[m + 1])
    if spec.kind == GAUSSIAN:
        zero_c = QuadraticSystem(np.array(rows), b, np.zeros(m))
    else:
        zero_c = DCTQuadraticSystem(np.array(rows), b, np.zeros(m))
        if not matrix_free:
            zero_c = zero_c.to_dense()
    return zero_c, truth, -zero_c.eval_all(truth)


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@contextmanager
def pooled(workers):
    """Draw every Gaussian tensor of two runs or more on a pool of up to
    `workers` threads, in runs of 3 slabs however small the slabs are."""
    with patch.multiple(generators, _cpus=lambda: workers, _RUN_SLABS=3,
                        _POOLED_SLAB=1):
        yield


class TestStreamLayout:
    @given(spec=st.one_of(small_specs(GAUSSIAN), small_specs(DCT)),
           matrix_free=st.booleans())
    def test_rows_b_truth_and_offsets(self, spec, matrix_free):
        matrix_free = matrix_free and spec.kind == DCT
        with pooled(workers=2):
            inst = generate(spec, matrix_free=matrix_free)
        zero_c, truth, c = reference_instance(spec, matrix_free)
        tensor = "xi" if matrix_free else "A"
        for row, expected in zip(getattr(inst.system, tensor),
                                 getattr(zero_c, tensor)):
            assert_bits_equal(row, expected)
        assert_bits_equal(inst.system.b, zero_c.b)
        assert_bits_equal(inst.truth, truth)
        assert_bits_equal(inst.system.c, c)


class TestPool:
    # slabs of 64^2 doubles go on the pool: m below the run length of 16,
    # m not a multiple of it, and m a multiple of it
    SPECS = [GeneratorSpec(GAUSSIAN, m, 64, 0.1, seed)
             for m, seed in ((5, 1), (37, 2), (80, 3))]

    def test_bits_do_not_depend_on_workers(self, monkeypatch):
        # more workers than CPUs and a thread switch every microsecond,
        # joined with a timeout: the instances equal those of one worker
        workers = 2 * generators._cpus() + 1
        monkeypatch.setattr(generators, "_cpus", lambda: 1)
        serial = [generate(spec) for spec in self.SPECS]
        monkeypatch.setattr(generators, "_cpus", lambda: workers)
        runs, draw_slabs = [], generators._draw_slabs
        monkeypatch.setattr(generators, "_draw_slabs", lambda A, seeds:
                            runs.append(len(A)) or draw_slabs(A, seeds))
        instances, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=lambda: instances.extend(
                generate(spec) for spec in self.SPECS))
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert sorted(runs) == sorted([5] + [16, 16, 5] + [16] * 5)
        assert len(instances) == len(serial)
        for inst, ref in zip(instances, serial):
            for name in ("A", "b", "c"):
                assert_bits_equal(getattr(inst.system, name),
                                  getattr(ref.system, name))
            assert_bits_equal(inst.truth, ref.truth)

    def test_failed_draw_raises(self, monkeypatch):
        def fail(A, seeds):
            raise MemoryError("no room for the slabs")
        monkeypatch.setattr(generators, "_cpus", lambda: 2)
        monkeypatch.setattr(generators, "_draw_slabs", fail)
        with pytest.raises(MemoryError, match="no room"):
            generate(self.SPECS[2])


class TestMemoryGuard:
    def test_beyond_physical_memory_rejected(self, monkeypatch):
        spec = GeneratorSpec(GAUSSIAN, 40, 100, 0.1, seed=0)    # 3.2 MB dense
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}    # 1 MiB
        monkeypatch.setattr(generators.os, "sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="physical memory"):
            generate(spec)
        with pytest.raises(ValueError, match="physical memory"):
            generate(replace(spec, kind=DCT))
        # the 64 KB of matrix-free cosine storage fit
        inst = generate(replace(spec, kind=DCT), matrix_free=True)
        assert inst.system.xi.shape == (40, 100)
