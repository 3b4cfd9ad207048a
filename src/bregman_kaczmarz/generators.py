"""Experiment instance construction and serialization.

Instances pair a quadratic system with a sparse ground truth x_hat whose
consistency is enforced through the offsets

    c_i = -(0.5 <x_hat, A_i x_hat> + <b_i, x_hat>),

so F(x_hat) = 0 by construction.  Generation uses numpy's PCG64 with one
spawned stream per matrix index (then one for b and one for x_hat), so
instances are identical across platforms and drawn row by row in place.
The slabs of a Gaussian tensor are drawn in runs of _RUN_SLABS on a
thread pool, one thread per CPU the process may run on (small slabs
inline), each slab from its own stream, so the bits do not depend on how
many CPUs there are; there is no setting for the count.  Dense systems
hold the symmetric parts of the drawn A_i, which give the same F; a
dense file written before that loads symmetrized.
"""

from __future__ import annotations

import json
import numbers
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .systems import DCTQuadraticSystem, QuadraticSystem, symmetrize

GAUSSIAN = "gaussian"
DCT = "dct"

FORMAT_VERSION = 1
# the Gaussian slabs one task of the pool draws and symmetrizes
_RUN_SLABS = 16
# the fewest doubles of a slab drawn on the pool: a smaller slab costs less
# to fill than its stream takes to set up under the interpreter lock, so
# threads gain nothing and contend for the lock (at (100, 36) a pool of two
# took 6.7 ms against 3.1 ms inline, at (300, 150) 59 ms against 103 ms)
_POOLED_SLAB = 64 * 64


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    m: int
    n: int
    sp: float       # sparsity ratio of the ground truth
    seed: int

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in (GAUSSIAN, DCT)):
            raise ValueError(f"kind must be '{GAUSSIAN}' or '{DCT}', got {self.kind!r}")
        for name in ("m", "n", "sp", "seed"):      # a bool is no count or ratio
            value = getattr(self, name)
            number = numbers.Real if name == "sp" else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{name} must be {number.__name__.lower()}, "
                                 f"got {value!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m, n must be positive, got ({self.m}, {self.n})")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


def stored_bytes(spec, matrix_free=False):
    """Bytes of the stored coefficients of a `spec` instance: the m*n^2
    doubles of the tensor A when dense, the 2*m*n + m doubles of xi, b and
    c when matrix-free.  Raises ValueError for a storage the family lacks.
    """
    if matrix_free and spec.kind != DCT:
        raise ValueError(f"matrix-free storage exists only for the '{DCT}' family")
    m, n = spec.m, spec.n
    return 8 * (2 * m * n + m if matrix_free else m * n * n)


def _cpus():
    """The number of CPUs the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity on this platform
        return os.cpu_count() or 1


def _draw_slabs(A, seeds):
    """Draw each slab A_i from the stream of its seed, in place, and
    replace it by its symmetric part while it is in cache."""
    for seed, slab in zip(seeds, A):
        np.random.default_rng(seed).standard_normal(out=slab)
        symmetrize(slab[None])


def _draw_tensor(A, seeds):
    """`_draw_slabs` on runs of _RUN_SLABS slabs, on one thread per CPU
    the process may use (numpy releases the interpreter lock while it
    fills and adds), or inline for one run, one CPU or slabs below
    _POOLED_SLAB doubles; the bits are those of one serial pass."""
    starts = range(0, len(A), _RUN_SLABS)
    workers = min(_cpus(), len(starts)) if A[0].size >= _POOLED_SLAB else 1
    if workers == 1:
        _draw_slabs(A, seeds)
        return
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(_draw_slabs, A[s:s + _RUN_SLABS],
                               seeds[s:s + _RUN_SLABS]) for s in starts]
        for future in futures:              # a failed draw raises here
            future.result()


def generate(spec, matrix_free=False):
    """Gaussian quadratics (Example 1) or partial cosines (Example 2: A_i
    has columns cos(2*pi*j*xi_i), xi_i uniform on [0, 1]^n), dense unless
    `matrix_free`, which stores only xi.  A dense system holds the
    symmetric part of each A_i, made right after it is drawn, on as many
    threads as the process has CPUs (`_draw_tensor`).  Raises
    ValueError for a storage the family lacks or coefficients beyond the
    physical memory."""
    size = stored_bytes(spec, matrix_free)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:
        raise ValueError(f"{size} stored bytes exceed the {memory} bytes "
                         "of physical memory")
    m, n, gaussian = spec.m, spec.n, spec.kind == GAUSSIAN
    coef = np.empty((m, n, n) if gaussian else (m, n))
    children = np.random.SeedSequence(spec.seed).spawn(m + 2)
    if gaussian:
        _draw_tensor(coef, children[:m])
    else:
        for child, row in zip(children, coef):  # xi_i, in place
            np.random.default_rng(child).random(out=row)
    b = np.random.default_rng(children[m]).standard_normal((m, n))
    truth = generate_sparse_signal(n, spec.sp,
                                   np.random.default_rng(children[m + 1]))
    system = (QuadraticSystem if gaussian else DCTQuadraticSystem)(
        coef, b, np.zeros(m))
    if not (gaussian or matrix_free):
        system = system.to_dense()
    # the offsets that make truth a root, set before the system is shared
    system.c = -system.eval_all(truth)
    return ProblemInstance(system, truth, spec)


def save_instance(path, instance):
    """Write an instance container (.npz format) to exactly `path`, whatever
    its suffix; round-trips bit-exactly."""
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
    with open(path, "wb") as fh:       # np.savez would append .npz to a name
        np.savez(fh, **arrays)


def _require(container, names, where):
    missing = [name for name in names if name not in container]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(map(repr, missing))}")


def load_instance(path):
    """Read an instance container; raises ValueError on an unknown format
    or storage, meta that is no JSON object, a missing array or meta key, non-finite stored values,
    arrays whose shapes disagree with each other or with the meta m, n, a
    matrix-free file whose meta kind is not cosine, a truth whose nonzero
    count is not round(sp * n), or a file that is no zip archive (empty,
    truncated, a directory) or a damaged one; FileNotFoundError for a
    missing path.  Dense slabs A_i load as their symmetric parts."""
    if os.path.exists(path) and not zipfile.is_zipfile(path):
        raise ValueError(f"{path}: not an instance archive (.npz format)")
    try:
        with np.load(path) as data:
            _require(data, ["meta"], path)
            meta = json.loads(bytes(data["meta"]).decode())
            if not isinstance(meta, dict):
                raise ValueError(f"{path}: meta is no JSON object")
            _require(meta, ["format_version", "storage", "kind", "m", "n", "sp",
                            "seed"], f"{path}: meta")
            if meta["format_version"] != FORMAT_VERSION:
                raise ValueError(f"unsupported instance format {meta['format_version']}")
            spec = GeneratorSpec(kind=meta["kind"], m=meta["m"], n=meta["n"],
                                 sp=meta["sp"], seed=meta["seed"])
            tensors = {"dct_seed": "xi", "dense": "A"}
            if not (isinstance(meta["storage"], str)
                    and meta["storage"] in tensors):
                raise ValueError(f"{path}: unknown storage {meta['storage']!r}")
            tensor = tensors[meta["storage"]]
            _require(data, [tensor, "b", "c", "truth"], path)
            arrays = {name: data[name] for name in (tensor, "b", "c", "truth")}
    except zipfile.BadZipFile as exc:      # a member fails its CRC check
        raise ValueError(f"{path}: damaged instance archive ({exc})") from None
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: non-finite values in {name!r}")
    system_type = DCTQuadraticSystem if tensor == "xi" else QuadraticSystem
    system = system_type(arrays[tensor], arrays["b"], arrays["c"])
    if ((system.m, system.n) != (spec.m, spec.n)
            or arrays["truth"].shape != (spec.n,)):
        raise ValueError(f"{path}: meta m={spec.m}, n={spec.n} disagree with "
                         f"{tensor!r} {arrays[tensor].shape} or 'truth' "
                         f"{arrays['truth'].shape}")
    if tensor == "xi" and spec.kind != DCT:
        raise ValueError(f"{path}: matrix-free storage holds the '{DCT}' "
                         f"family, but the meta kind is {spec.kind!r}")
    expected = round(spec.sp * spec.n)
    nonzeros = np.count_nonzero(arrays["truth"])
    if expected != nonzeros:
        raise ValueError(f"{path}: meta sp={spec.sp} means {expected} nonzeros, "
                         f"but 'truth' has {nonzeros}")
    if tensor == "A":           # a file from before symmetric slabs, too
        symmetrize(system.A)
    return ProblemInstance(system, arrays["truth"], spec)
