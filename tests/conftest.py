import json

import numpy as np
import pytest
from hypothesis import settings

from bregman_kaczmarz.systems import NonlinearSystem, QuadraticSystem

# every property test replays the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_quadratic(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n, n))
    b = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    return QuadraticSystem(A, b, c)


def affine_system(B, y):
    """F(x) = Bx - y as a QuadraticSystem with zero quadratic part."""
    B = np.asarray(B, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = B.shape
    return QuadraticSystem(np.zeros((m, n, n)), B, -y)


class RowByRow(NonlinearSystem):
    """Only `eval_component` and `grad_component` of another system, so
    every other method is the base class's loop."""

    def __init__(self, inner):
        self.inner, self.m, self.n = inner, inner.m, inner.n

    def eval_component(self, i, x):
        return self.inner.eval_component(i, x)

    def grad_component(self, i, x):
        return self.inner.grad_component(i, x)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def set_meta(path, **fields):
    """Rewrite the given meta fields of an instance file."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta.update(fields)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
