#!/usr/bin/env python3
"""Cost of the eta estimate on the trajectories `bkz diagnose` audits.

    python3 scripts/bench_eta.py

For seeds 1 and 7, a (200, 100) instance of each storage (dense Gaussian
and matrix-free cosine, sp = 0.05) and every preset, the script records
the solve from the diagnose local start (lambda = 2, perturbation 1e-3)
that `diagnostics.audit_run` makes, then over its `trajectory_pairs`:

- ms per pair of the linear term, as `jacobian(x1) @ d` and as
  `jvp(x1, d)` with d = x1 - x2 (fastest of REPEATS passes over all pairs
  of the four presets);
- `eval_all` calls of one estimate that evaluates F at both points of
  every pair and forms the Jacobian (before) and of `estimate_eta`
  (after), with eta and the sample count of each.

It writes BENCH_eta.json at the repository root, with the numpy version,
BLAS name and BLAS thread variables.  BLAS runs on one thread unless the
caller sets those variables.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.priors import SparsePrior

SEEDS = (1, 7)
M, N, SP = 200, 100, 0.05
LOCAL_START = 1e-3
REPEATS = 3
OUT = ROOT / "BENCH_eta.json"


def estimate_eta_full_jacobian(system, pairs):
    """The estimate with F evaluated at both points of every pair and the
    linear term taken from the full Jacobian."""
    eta, count = 0.0, 0
    for x1, x2 in pairs:
        f1, f2 = system.eval_all(x1), system.eval_all(x2)
        num = np.abs(f1 - f2 - system.jacobian(x1) @ (x1 - x2))
        den = np.abs(f1 - f2)
        valid = den > 0.0
        if np.any(valid):
            count += int(valid.sum())
            eta = max(eta, float((num[valid] / den[valid]).max()))
    return diag.EtaEstimate(eta=eta, sample_count=count)


def with_eval_all_count(system, estimate, pairs):
    """The estimate and the number of `eval_all` calls it made."""
    calls = 0
    original = system.eval_all

    def counted(x):
        nonlocal calls
        calls += 1
        return original(x)

    system.eval_all = counted
    try:
        est = estimate(system, pairs)
    finally:
        del system.eval_all
    return est, calls


def ms_per_pair(product, pairs):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x1, x2 in pairs:
            product(x1, x1 - x2)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / len(pairs)


def audited_pairs(instance, prior, preset, seed):
    """The solve `bkz diagnose --local-start` audits and its eta pairs."""
    _, _, solver_seed = cli.derived_seeds(seed, 0)
    config = replace(cli.preset_config(preset, seed=solver_seed), **diag.AUDITED)
    truth = instance.truth
    x0_star = cli.local_dual(truth, cli.DEFAULT_LAMBDA, LOCAL_START,
                             np.random.default_rng(solver_seed))
    record = slv.run(instance.system, prior, config, x0_star, truth=truth)
    return record, diag.trajectory_pairs(record, truth)


def measure(seed, kind, matrix_free):
    inst_seed, _, _ = cli.derived_seeds(seed, 0)
    instance = gen.generate(gen.GeneratorSpec(kind, M, N, SP, seed=inst_seed),
                            matrix_free=matrix_free)
    system = instance.system
    prior = SparsePrior(cli.DEFAULT_LAMBDA)
    presets, all_pairs = {}, []
    for preset in cli.SOLVER_NAMES:
        record, pairs = audited_pairs(instance, prior, preset, seed)
        all_pairs += pairs
        before, calls_before = with_eval_all_count(
            system, estimate_eta_full_jacobian, pairs)
        after, calls_after = with_eval_all_count(system, diag.estimate_eta, pairs)
        presets[preset] = {
            "steps": record.iterations, "pairs": len(pairs),
            "eval_all_calls_before": calls_before,
            "eval_all_calls_after": calls_after,
            "eta_before": before.eta, "eta_after": after.eta,
            "sample_count_before": before.sample_count,
            "sample_count_after": after.sample_count}
    jac_ms = ms_per_pair(lambda x, d: system.jacobian(x) @ d, all_pairs)
    jvp_ms = ms_per_pair(system.jvp, all_pairs)
    return {
        "seed": seed, "storage": "matrix-free" if matrix_free else "dense",
        "kind": kind, "m": M, "n": N, "sp": SP,
        "pairs": len(all_pairs),
        "median_support_x1": float(np.median(
            [np.count_nonzero(x1) for x1, _ in all_pairs])),
        "median_support_d": float(np.median(
            [np.count_nonzero(x1 - x2) for x1, x2 in all_pairs])),
        "jacobian_times_d_ms_per_pair": jac_ms,
        "jvp_ms_per_pair": jvp_ms,
        "speedup": jac_ms / jvp_ms,
        "presets": presets}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(), "cpu": cpu}


def main():
    results = [measure(seed, kind, matrix_free) for seed in SEEDS
               for kind, matrix_free in ((gen.GAUSSIAN, False), (gen.DCT, True))]
    report = {"command": "python3 scripts/bench_eta.py",
              "repeats": REPEATS, "environment": environment(),
              "results": results}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for r in results:
        print(f"seed {r['seed']} {r['storage']:<11} pairs {r['pairs']:>4}: "
              f"jacobian @ d {r['jacobian_times_d_ms_per_pair']:.3f} ms, "
              f"jvp {r['jvp_ms_per_pair']:.3f} ms (x{r['speedup']:.1f})")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
