"""Experiment instance construction and serialization.

Instances pair a quadratic system with a sparse ground truth x_hat whose
consistency is enforced through the offsets

    c_i = -(0.5 <x_hat, A_i x_hat> + <b_i, x_hat>),

so F(x_hat) = 0 by construction.  Generation uses numpy's PCG64 with one
spawned stream per matrix index, so instances are identical across
platforms and independent of any parallel generation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .systems import DCTQuadraticSystem, QuadraticSystem

GAUSSIAN = "gaussian"
DCT = "dct"

FORMAT_VERSION = 1


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    m: int
    n: int
    sp: float       # sparsity ratio of the ground truth
    seed: int

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, DCT):
            raise ValueError(f"kind must be '{GAUSSIAN}' or '{DCT}', got {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m, n must be positive, got ({self.m}, {self.n})")
        if not 0.0 < self.sp <= 1.0:
            raise ValueError(f"sp must be in (0, 1], got {self.sp}")
        if round(self.sp * self.n) < 1:
            raise ValueError(
                f"sp*n = {self.sp * self.n:.3g} rounds to zero nonzeros")


@dataclass
class ProblemInstance:
    system: object
    truth: np.ndarray
    spec: GeneratorSpec


def generate_sparse_signal(n, sp, rng):
    """Length-n vector with exactly round(sp*n) standard-normal nonzeros
    at uniformly drawn positions; the rest exactly zero."""
    k = round(sp * n)
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.standard_normal(k)
    return x


def _streams(spec):
    # one child stream per matrix index, then one each for b and the truth
    children = np.random.SeedSequence(spec.seed).spawn(spec.m + 2)
    per_matrix = [np.random.default_rng(s) for s in children[:spec.m]]
    rng_b = np.random.default_rng(children[spec.m])
    rng_truth = np.random.default_rng(children[spec.m + 1])
    return per_matrix, rng_b, rng_truth


def generate_gaussian(spec):
    """Dense standard-normal quadratics (Example-1 family)."""
    if spec.kind != GAUSSIAN:
        raise ValueError(f"spec.kind must be '{GAUSSIAN}', got {spec.kind!r}")
    per_matrix, rng_b, rng_truth = _streams(spec)
    A = np.stack([rng.standard_normal((spec.n, spec.n)) for rng in per_matrix])
    b = rng_b.standard_normal((spec.m, spec.n))
    truth = generate_sparse_signal(spec.n, spec.sp, rng_truth)
    zero_c = QuadraticSystem(A, b, np.zeros(spec.m))
    c = -zero_c.eval_all(truth)
    return ProblemInstance(QuadraticSystem(A, b, c), truth, spec)


def generate_dct(spec, matrix_free=False):
    """Partial-cosine quadratics (Example-2 family).

    Each A_i has columns cos(2*pi*j*xi_i) with xi_i drawn i.i.d. uniform
    on [0, 1]; xi_i has length n so the columns type-check.  Dense storage
    by default; matrix_free keeps only the frequency vectors.
    """
    if spec.kind != DCT:
        raise ValueError(f"spec.kind must be '{DCT}', got {spec.kind!r}")
    per_matrix, rng_b, rng_truth = _streams(spec)
    xi = np.stack([rng.random(spec.n) for rng in per_matrix])
    b = rng_b.standard_normal((spec.m, spec.n))
    truth = generate_sparse_signal(spec.n, spec.sp, rng_truth)
    zero_c = DCTQuadraticSystem(xi, b, np.zeros(spec.m))
    if not matrix_free:
        zero_c = zero_c.to_dense()
    c = -zero_c.eval_all(truth)
    if matrix_free:
        system = DCTQuadraticSystem(xi, b, c)
    else:
        system = QuadraticSystem(zero_c.A, b, c)
    return ProblemInstance(system, truth, spec)


def stored_bytes(spec, matrix_free=False):
    """Bytes of the stored coefficients of a `spec` instance: the m*n^2
    doubles of the tensor A when dense, the 2*m*n + m doubles of xi, b and
    c when matrix-free.  Raises ValueError for a storage the family lacks.
    """
    if matrix_free and spec.kind != DCT:
        raise ValueError(f"matrix-free storage exists only for the '{DCT}' family")
    m, n = spec.m, spec.n
    return 8 * (2 * m * n + m if matrix_free else m * n * n)


def generate(spec, matrix_free=False):
    stored_bytes(spec, matrix_free)     # rejects a storage the family lacks
    if spec.kind == GAUSSIAN:
        return generate_gaussian(spec)
    return generate_dct(spec, matrix_free=matrix_free)


def save_instance(path, instance):
    """Write an instance container (.npz); round-trips bit-exactly."""
    meta = dict(asdict(instance.spec), format_version=FORMAT_VERSION)
    arrays = {"truth": instance.truth,
              "b": instance.system.b,
              "c": instance.system.c}
    if isinstance(instance.system, DCTQuadraticSystem):
        meta["storage"] = "dct_seed"
        arrays["xi"] = instance.system.xi
    else:
        meta["storage"] = "dense"
        arrays["A"] = instance.system.A
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _require(container, names, where):
    missing = [name for name in names if name not in container]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(map(repr, missing))}")


def load_instance(path):
    """Read an instance container; raises ValueError on an unknown format
    or storage, a missing array or meta key, or non-finite stored values."""
    with np.load(path) as data:
        _require(data, ["meta"], path)
        meta = json.loads(bytes(data["meta"]).decode())
        _require(meta, ["format_version", "storage", "kind", "m", "n", "sp",
                        "seed"], f"{path}: meta")
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported instance format {meta['format_version']}")
        spec = GeneratorSpec(kind=meta["kind"], m=meta["m"], n=meta["n"],
                             sp=meta["sp"], seed=meta["seed"])
        tensor = {"dct_seed": "xi", "dense": "A"}.get(meta["storage"])
        if tensor is None:
            raise ValueError(f"{path}: unknown storage {meta['storage']!r}")
        _require(data, [tensor, "b", "c", "truth"], path)
        arrays = {name: data[name] for name in (tensor, "b", "c", "truth")}
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: non-finite values in {name!r}")
    system_type = DCTQuadraticSystem if tensor == "xi" else QuadraticSystem
    system = system_type(arrays[tensor], arrays["b"], arrays["c"])
    return ProblemInstance(system, arrays["truth"], spec)
