#!/usr/bin/env python3
"""Cost of the finite-difference gradient check and of dense `grad_block`.

    python3 scripts/bench_gradcheck.py

Two versions of each call are timed, alternating, and the fastest of
REPEATS runs is kept:

- `check_gradients` (TRIALS trials, ms per trial) on the (200, 100,
  sp = 0.05) instance of the `diagnose` benchmark workload, dense
  Gaussian and matrix-free cosine, for seeds 1 and 7.  Before: 2n scalar
  `eval_component` calls per trial, the dense one with its former
  per-point formula (an in-script copy of the former path).  After:
  `diagnostics.check_gradients`, one `eval_points` call per trial.  The
  deviation of each is recorded; they differ at rounding level, since
  other BLAS kernels evaluate F_i.
- dense `grad_block` at the two block shapes of the benchmark, (300, 150)
  with 113 rows (`block-dense`) and (200, 100) with 20 rows
  (`diagnose`), on a dense x, at seed 1.  Before: the base-class loop
  over the former `grad_component`.  After: `QuadraticSystem.grad_block`.
  The two results must be bit-equal.

It writes BENCH_gradcheck.json at the repository root, with the numpy
version, BLAS name and BLAS thread variables.  BLAS runs on one thread
unless the caller sets those variables.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_eta import environment

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz.systems import QuadraticSystem

SEEDS = (1, 7)
M, N, SP = 200, 100, 0.05
TRIALS = 20
BLOCKS = ((300, 150, 0.4, 113), (200, 100, 0.05, 20))   # m, n, sp, rows
REPEATS = 5
OUT = ROOT / "BENCH_gradcheck.json"


def eval_component_before(system, i, x):
    """F_i(x) at one point per call, as the dense system computed it."""
    if not isinstance(system, QuadraticSystem):
        return system.eval_component(i, x)     # the matrix-free one is kept
    system._check_index(i)
    x = np.asarray(x, dtype=float)
    return (0.5 * float(x @ (system.A[i] @ x)) + float(system.b[i] @ x)
            + float(system.c[i]))


def grad_component_before(system, i, x):
    if not isinstance(system, QuadraticSystem):
        return system.grad_component(i, x)
    system._check_index(i)
    x = np.asarray(x, dtype=float)
    return 0.5 * (system.A[i] @ x + x @ system.A[i]) + system.b[i]


def grad_block_before(system, idx, x):
    """The base-class loop, one `grad_component` call per row."""
    x = np.asarray(x, dtype=float)
    return np.array([grad_component_before(system, i, x) for i in idx])


def check_gradients_before(system, trials, rng):
    """The check with F_i evaluated one perturbed point at a time."""
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(system.m))
        x = rng.standard_normal(system.n)
        g = grad_component_before(system, i, x)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        fd = np.empty(system.n)
        for j in range(system.n):
            e = np.zeros(system.n)
            e[j] = h
            fd[j] = (eval_component_before(system, i, x + e)
                     - eval_component_before(system, i, x - e)) / (2.0 * h)
        dev = np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd))
        worst = max(worst, dev)
    return worst


def fastest_ms(calls):
    """Best time of each call over REPEATS alternating rounds, in ms, and
    the result of each call's last run."""
    best = [float("inf")] * len(calls)
    results = [None] * len(calls)
    for _ in range(REPEATS):
        for k, call in enumerate(calls):
            t0 = time.perf_counter()
            results[k] = call()
            best[k] = min(best[k], time.perf_counter() - t0)
    return [1e3 * b for b in best], results


def measure_check(seed, kind, matrix_free):
    inst_seed, _, _ = cli.derived_seeds(seed, 0)
    system = gen.generate(gen.GeneratorSpec(kind, M, N, SP, seed=inst_seed),
                          matrix_free=matrix_free).system
    (before_ms, after_ms), (before, after) = fastest_ms([
        lambda: check_gradients_before(system, TRIALS, np.random.default_rng(seed)),
        lambda: diag.check_gradients(system, TRIALS, np.random.default_rng(seed))])
    return {"seed": seed, "kind": kind,
            "storage": "matrix-free" if matrix_free else "dense",
            "m": M, "n": N, "sp": SP, "trials": TRIALS,
            "ms_per_trial_before": before_ms / TRIALS,
            "ms_per_trial_after": after_ms / TRIALS,
            "speedup": before_ms / after_ms,
            "grad_dev_before": float(before), "grad_dev_after": after}


def measure_block(m, n, sp, rows):
    seed = SEEDS[0]
    inst_seed, _, _ = cli.derived_seeds(seed, 0)
    system = gen.generate(gen.GeneratorSpec(gen.GAUSSIAN, m, n, sp,
                                            seed=inst_seed)).system
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    idx = rng.choice(m, size=rows, replace=False)
    (before_ms, after_ms), (before, after) = fastest_ms([
        lambda: grad_block_before(system, idx, x),
        lambda: system.grad_block(idx, x)])
    return {"m": m, "n": n, "sp": sp, "rows": rows,
            "ms_before": before_ms, "ms_after": after_ms,
            "speedup": before_ms / after_ms,
            "bit_equal": bool(np.array_equal(before, after))}


def main():
    checks = [measure_check(seed, kind, matrix_free) for seed in SEEDS
              for kind, matrix_free in ((gen.GAUSSIAN, False), (gen.DCT, True))]
    blocks = [measure_block(*shape) for shape in BLOCKS]
    report = {"command": "python3 scripts/bench_gradcheck.py",
              "repeats": REPEATS, "environment": environment(),
              "check_gradients": checks, "grad_block": blocks}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for r in checks:
        print(f"check_gradients seed {r['seed']} {r['storage']:<11}: "
              f"{r['ms_per_trial_before']:.3f} -> {r['ms_per_trial_after']:.3f} "
              f"ms/trial (x{r['speedup']:.1f}), grad_dev "
              f"{r['grad_dev_before']:.3e} -> {r['grad_dev_after']:.3e}")
    for r in blocks:
        print(f"grad_block ({r['m']}, {r['n']}) x {r['rows']} rows: "
              f"{r['ms_before']:.3f} -> {r['ms_after']:.3f} ms "
              f"(x{r['speedup']:.2f}), bit-equal {r['bit_equal']}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
