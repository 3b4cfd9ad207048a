import json

import numpy as np
import pytest
from hypothesis import settings

from bregman_kaczmarz.systems import NonlinearSystem, QuadraticSystem

# every property test replays the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_quadratic(m, n, seed):
    """Gaussian A_i made symmetric, as the dense storage requires."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n, n))
    A = 0.5 * (A + A.transpose(0, 2, 1))
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


def write_meta(path, text):
    """Replace the meta of an instance file by the JSON `text`."""
    with np.load(path) as data:
        arrays = dict(data)
    arrays["meta"] = np.frombuffer(text.encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def set_meta(path, **fields):
    """Rewrite the given meta fields of an instance file."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
    write_meta(path, json.dumps({**meta, **fields}))


def flip_first_value(archive):
    """The bytes of an .npz archive with one bit of the first value of its
    first array flipped, which the member's CRC check then refuses."""
    data = bytearray(archive)
    data[archive.index(b"\x93NUMPY") + 128] ^= 1      # past the 128-byte header
    return bytes(data)


# ways to spoil an instance file, each with a phrase of the ValueError
# `load_instance` raises for it
CORRUPTIONS = {
    "empty": (lambda path: path.write_bytes(b""), "not an instance archive"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:300]),
                  "not an instance archive"),
    "directory": (lambda path: (path.unlink(), path.mkdir()),
                  "not an instance archive"),
    "damaged": (lambda path: path.write_bytes(flip_first_value(path.read_bytes())),
                "damaged instance archive"),
    "meta number": (lambda path: write_meta(path, "5"), "meta is no JSON object"),
    "m string": (lambda path: set_meta(path, m="10"), "m must be integral"),
    "sp null": (lambda path: set_meta(path, sp=None), "sp must be real"),
    "seed -1": (lambda path: set_meta(path, seed=-1), "seed must be non-negative"),
    "storage list": (lambda path: set_meta(path, storage=["dense"]),
                     "unknown storage"),
    "storage dict": (lambda path: set_meta(path, storage={}), "unknown storage"),
}
