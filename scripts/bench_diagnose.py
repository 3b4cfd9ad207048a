#!/usr/bin/env python3
"""Cost of `bkz diagnose`, span by span, in the checkout the script runs in.

    python3 scripts/bench_diagnose.py [--out BENCH_diagnose.json]

For seeds 1 and 7, repetitions 0 and 1, both storages (a dense Gaussian
and a matrix-free cosine (200, 100, sp = 0.05) instance, saved to a
temporary file) and every preset, the script runs

    bkz diagnose FILE --solver PRESET --seed S --local-start 1e-3

through `cli.main` REPEATS times, S being the solver seed of the
repetition (`cli.derived_seeds`).  A `Tracer` from perfbench/tracing.py
times the call, `solver.run`, `diagnostics.estimate_eta`,
`contraction_audit` and `check_gradients`, and the instance's
`eval_all`, `grad_block`, `remainders` and `eval_points`, patched once
`load_instance` returns.  Each audit keeps its exit code (0 or 3 valid,
4 refused), iterations, eta and grad_dev, and per span the calls and the
median ms over the repeats.  Kernels are also timed alone, each as the
median of KERNEL_REPEATS calls: on a Gaussian instance, `grad_block` at
the block shapes of the benchmark, (300, 150) with 113 rows
(`block-dense`) and (200, 100) with 20 rows (`diagnose`), each at a
dense x and at an x with round(sp n) nonzeros, the support of a
local-start audit, and `eval_all` at (300, 150) for supports |S| = 5, 42
and 73, cold: each call on a fresh system, which holds no support pairs
of an earlier residual; for `nbk` and `mrnbk`, the `eval_all` calls of
their solves of repetition 0 of the first seed on the `row-sparse`
instance (300, 150, sp = 0.1), replayed in order on a fresh system, in
ms per call over the median of RESIDUAL_REPLAYS replays, with the share
of calls whose support pairs fit the budget of held pairs and the share
of the pairs of those calls that the pairs held before them lacked; on a
matrix-free cosine instance, `grad_block` at (200, 100) with 72 rows at
|S| = 8 (a `dct-matfree` block), cold: each call on a fresh system,
which holds no support rows of an earlier block; for every preset, the
`grad_block` calls of its solve of repetition 0 of the first seed on the
`dct-matfree` instance (200, 100, sp = 0.05), replayed in order on a
fresh system, in ms per step, so each block reuses the rows it shares
with the one before as in the solve, with the share of the (slab,
support index) pairs of the solve's blocks that the block before had;
for each seed, the MATRIX_FREE_REPS `abnbk-a` solves of the
`dct-matfree` workload (200, 100, sp = 0.05, repetitions 0 to 5), their
`eval_all` and `grad_block` calls replayed in order, each solve on a
fresh system, in ms per call over the median of RESIDUAL_REPLAYS
replays, and the cosines each solve computes, counted over one more
replay of both in their order; and on a Gaussian and a matrix-free
cosine instance, one stacked `remainders` of REMAINDER_PAIRS pairs
(x, truth) at the audited shape, each x the truth with noise of scale
1e-3 on its support, as in a local-start audit.

A before/after comparison is this script run at both commits.  The
output holds the numpy version, BLAS name and BLAS thread variables;
BLAS runs on one thread unless the caller sets those variables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# perfbench/run.py loads no numpy on import, so BLAS still reads these
from run import BLAS_THREAD_VARS, environment

for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

import argparse
import json
import statistics
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO

import numpy as np
from tracing import Tracer, aggregate

from bregman_kaczmarz import cli, diagnostics, solver, systems
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.systems import DCTQuadraticSystem, QuadraticSystem

SEEDS = (1, 7)
REPS = (0, 1)
SHAPE = (200, 100, 0.05)                                  # m, n, sp
STORAGES = (("dense", gen.GAUSSIAN, False), ("matrix-free", gen.DCT, True))
BLOCKS = ((300, 150, 0.4, 113), (200, 100, 0.05, 20))   # m, n, sp, rows
EVALS = (300, 150, 0.4, (5, 42, 73))              # m, n, sp, supports |S|
MATRIX_FREE_BLOCK = (200, 100, 0.05, 72, (8,))  # m, n, sp, rows, supports
MATRIX_FREE_SOLVE = (200, 100, 0.05)                # m, n, sp
MATRIX_FREE_PRESET = "abnbk-a"          # the preset of `dct-matfree`
MATRIX_FREE_REPS = 6
RESIDUAL_SOLVE = (300, 150, 0.1)                    # m, n, sp
RESIDUAL_PRESETS = ("nbk", "mrnbk")
RESIDUAL_REPLAYS = 5
REMAINDER_PAIRS = 256
LOCAL_START = "1e-3"
REPEATS = 5
KERNEL_REPEATS = 50


def keep(key, value):
    """A Tracer observer that stores value(result) under key."""
    def observe(counts, args, kwargs, result):
        counts[key] = value(result)
    return observe


MODULE_SPANS = (
    (solver, "run", keep("iterations", lambda record: record.iterations)),
    (diagnostics, "estimate_eta", keep("eta", lambda est: est.eta)),
    (diagnostics, "contraction_audit", None),
    (diagnostics, "check_gradients", keep("grad_dev", float)),
)
SYSTEM_SPANS = ("eval_all", "grad_block", "remainders", "eval_points")


def diagnose(argv):
    """One traced `cli.main(argv)`: its exit code and the tracer."""
    tracer = Tracer()

    def trace_system(counts, args, kwargs, instance):
        for attr in SYSTEM_SPANS:
            tracer.patch(instance.system, attr, attr)

    tracer.patch(gen, "load_instance", "load_instance", trace_system)
    for module, attr, observe in MODULE_SPANS:
        tracer.patch(module, attr, attr, observe)
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.wrap("diagnose", cli.main)(argv)
    finally:
        tracer.restore()
    refused = (code == cli.EXIT_VALIDATION
               and "hypothesis violated" in err.getvalue())
    if code not in (cli.EXIT_OK, cli.EXIT_DEGENERATE) and not refused:
        raise RuntimeError(f"bkz {' '.join(argv)} exited {code}: "
                           f"{out.getvalue()}{err.getvalue()}")
    return code, tracer


def measure(path, preset, seed, workdir):
    """The audit of one preset, REPEATS times: exit code, the observed
    values and, per span, the calls and the median ms."""
    argv = ["diagnose", str(path), "--solver", preset, "--seed", str(seed),
            "--local-start", LOCAL_START, "--out", str(workdir)]
    ms = defaultdict(list)
    for _ in range(REPEATS):
        code, tracer = diagnose(argv)
        stats = aggregate(tracer.spans)
        for name, st in stats.items():
            ms[name].append(st.total_ns / 1e6)
    spans = {name: {"calls": st.calls, "ms": statistics.median(ms[name])}
             for name, st in stats.items()}
    return dict(preset=preset, exit_code=code, valid=code != cli.EXIT_VALIDATION,
                **tracer.counts, spans=spans)


def first_instance(m, n, sp, kind=gen.GAUSSIAN, matrix_free=False,
                   seed=SEEDS[0], rep=0):
    """The instance of repetition `rep` of `seed`, by default repetition 0
    of the first seed, Gaussian unless `kind` says otherwise."""
    inst_seed, _, _ = cli.derived_seeds(seed, rep)
    return gen.generate(gen.GeneratorSpec(kind, m, n, sp, seed=inst_seed),
                        matrix_free=matrix_free)


def median_ms(calls):
    """Median ms over an iterable of argument-free calls, each timed alone;
    the iterable may build a call untimed."""
    tracer = Tracer()
    for call in calls:
        tracer.wrap("kernel", call)()
    return statistics.median((s.end - s.start) / 1e6 for s in tracer.spans)


def repeated(call, *args):
    """KERNEL_REPEATS calls call(*args)."""
    return [partial(call, *args)] * KERNEL_REPEATS


def fresh(system):
    """A new system of the same arrays, holding no support rows or pairs."""
    if isinstance(system, DCTQuadraticSystem):
        return DCTQuadraticSystem(system.xi, system.b, system.c)
    return QuadraticSystem(system.A, system.b, system.c)


def block_ms(m, n, sp, rows, supports=None, kind=gen.GAUSSIAN,
             matrix_free=False):
    """`grad_block` for `rows` rows at an x with each support size, by
    default a dense x and round(sp n) nonzeros; a matrix-free call runs
    on a fresh system."""
    system = first_instance(m, n, sp, kind, matrix_free).system
    rng = np.random.default_rng(SEEDS[0])
    idx = rng.choice(m, size=rows, replace=False)
    results = []
    for size in supports or (n, round(sp * n)):
        x = np.zeros(n)
        x[rng.choice(n, size=size, replace=False)] = rng.standard_normal(size)
        calls = ((partial(fresh(system).grad_block, idx, x)
                  for _ in range(KERNEL_REPEATS)) if matrix_free
                 else repeated(system.grad_block, idx, x))
        results.append({"m": m, "n": n, "sp": sp, "rows": rows,
                        "support": size, "ms": median_ms(calls)})
    return results


def recorded_calls(instance, preset, methods, seed=SEEDS[0], rep=0):
    """The (method, arguments) of every call of one of `methods` of a
    fresh copy of the instance's system in its solve by `preset`, in
    order, with the start and solver seeds of repetition `rep` of `seed`."""
    _, x0_seed, solver_seed = cli.derived_seeds(seed, rep)
    system = fresh(instance.system)
    calls = []

    def recorder(method):
        call = getattr(system, method)

        def record(*args):
            calls.append((method, tuple(np.array(arg) for arg in args)))
            return call(*args)
        return record

    for method in methods:
        setattr(system, method, recorder(method))
    solver.run(system, SparsePrior(cli.DEFAULT_LAMBDA),
               cli.preset_config(preset, seed=solver_seed),
               cli.initial_dual(system.n, x0_seed), truth=instance.truth)
    return calls


def solve_blocks(m, n, sp, preset):
    """The matrix-free instance of `first_instance` and the (block, x) of
    every `grad_block` call of its solve by `preset`."""
    instance = first_instance(m, n, sp, gen.DCT, True)
    return instance.system, [args for _, args in recorded_calls(
        instance, preset, ("grad_block",))]


def solve_residuals(m, n, sp, preset):
    """The Gaussian instance of `first_instance` and the x of every
    `eval_all` call of its solve by `preset`."""
    instance = first_instance(m, n, sp)
    return instance.system, [x for _, (x,) in recorded_calls(
        instance, preset, ("eval_all",))]


def pair_shares(points, n):
    """The share of the residuals at `points` whose support pairs j <= k
    fit the budget of held pairs, and the share of the pairs of those
    residuals that the last one of them before lacked."""
    budget = n * n // systems._PAIR_SHARE
    fits, pairs, new, held = 0, 0, 0, set()
    for x in points:
        support = set(np.flatnonzero(x).tolist())
        size = len(support) * (len(support) + 1) // 2
        if size > budget:
            continue
        kept = len(support & held)
        fits, pairs = fits + 1, pairs + size
        new += size - kept * (kept + 1) // 2
        held = support
    return fits / max(len(points), 1), new / max(pairs, 1)


def shared_pairs(calls):
    """The share of the (slab, support index) pairs of the blocks of calls
    that the block before had."""
    pairs, shared, before = 0, 0, set()
    for idx, x in calls:
        block = {(i, j) for i in idx.tolist() for j in np.flatnonzero(x).tolist()}
        pairs += len(block)
        shared += len(block & before)
        before = block
    return shared / max(pairs, 1)


def solve_ms(m, n, sp, preset):
    """ms per step of the `grad_block` calls of a recorded solve, replayed
    in order on a fresh system: the median of KERNEL_REPEATS replays."""
    system, calls = solve_blocks(m, n, sp, preset)

    def replay(replica):
        for idx, x in calls:
            replica.grad_block(idx, x)

    ms = median_ms(partial(replay, fresh(system))
                   for _ in range(KERNEL_REPEATS))
    return {"m": m, "n": n, "sp": sp, "preset": preset, "steps": len(calls),
            "rows": sum(idx.size for idx, _ in calls),
            "pairs_shared": shared_pairs(calls), "ms_per_step": ms / len(calls)}


def residual_solve_ms(m, n, sp, preset):
    """ms per call of the `eval_all` calls of a recorded solve, replayed in
    order on a fresh system: the median of RESIDUAL_REPLAYS replays."""
    system, points = solve_residuals(m, n, sp, preset)

    def replay(replica):
        for x in points:
            replica.eval_all(x)

    ms = median_ms(partial(replay, fresh(system))
                   for _ in range(RESIDUAL_REPLAYS))
    within, new = pair_shares(points, n)
    return {"m": m, "n": n, "sp": sp, "preset": preset, "calls": len(points),
            "within_budget": within, "pairs_new": new,
            "ms_per_call": ms / len(points)}


class CountingNumpy:
    """numpy with a count of the cosines `cos` computes, to stand in for
    the numpy module of `systems` while a replay runs."""

    def __init__(self):
        self.cosines = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, *args, **kwargs):
        out = np.cos(*args, **kwargs)
        self.cosines += out.size
        return out


def counted_cosines(system, calls):
    """The cosines a fresh copy of the system computes over the calls,
    replayed in order, per method."""
    replica, counter, counts = fresh(system), CountingNumpy(), defaultdict(int)
    systems.np = counter
    try:
        for method, args in calls:
            before = counter.cosines
            getattr(replica, method)(*args)
            counts[method] += counter.cosines - before
    finally:
        systems.np = np
    return counts


def matrix_free_solves(m, n, sp, seed):
    """The `eval_all` and `grad_block` calls of the MATRIX_FREE_REPS
    `dct-matfree` solves of a seed, replayed: ms per call, each solve's
    calls of one method in order on a fresh system, the median of
    RESIDUAL_REPLAYS replays, and the cosines of the solves."""
    solves = []
    for rep in range(MATRIX_FREE_REPS):
        instance = first_instance(m, n, sp, gen.DCT, True, seed, rep)
        solves.append((instance.system, recorded_calls(
            instance, MATRIX_FREE_PRESET, ("eval_all", "grad_block"), seed,
            rep)))
    report = {"m": m, "n": n, "sp": sp, "seed": seed,
              "preset": MATRIX_FREE_PRESET, "solves": len(solves)}
    for method, key in (("eval_all", "residual"), ("grad_block", "block")):
        def replay():
            for system, calls in solves:
                replica = fresh(system)
                for name, args in calls:
                    if name == method:
                        getattr(replica, method)(*args)

        count = sum(name == method for _, calls in solves for name, _ in calls)
        report[f"{key}_calls"] = count
        report[f"{key}_ms_per_call"] = median_ms(
            [replay] * RESIDUAL_REPLAYS) / count
    counts = [counted_cosines(system, calls) for system, calls in solves]
    report["residual_cosines"] = sum(c["eval_all"] for c in counts)
    report["block_cosines"] = sum(c["grad_block"] for c in counts)
    report["cosines_per_solve"] = (report["residual_cosines"]
                                   + report["block_cosines"]) / len(solves)
    return report


def eval_ms(m, n, sp, supports):
    """Dense `eval_all` at an x with each support size, each call on a
    fresh system."""
    system = first_instance(m, n, sp).system
    rng = np.random.default_rng(SEEDS[0])
    results = []
    for size in supports:
        x = np.zeros(n)
        x[rng.choice(n, size=size, replace=False)] = rng.standard_normal(size)
        calls = (partial(fresh(system).eval_all, x)
                 for _ in range(KERNEL_REPEATS))
        results.append({"m": m, "n": n, "sp": sp, "support": size,
                        "ms": median_ms(calls)})
    return results


def remainders_ms(m, n, sp, pairs, kind=gen.GAUSSIAN, matrix_free=False):
    """One stacked `remainders` of `pairs` local-start pairs (x, truth)."""
    instance = first_instance(m, n, sp, kind, matrix_free)
    truth = np.tile(instance.truth, (pairs, 1))
    rng = np.random.default_rng(SEEDS[0])
    noise = float(LOCAL_START) * rng.standard_normal((pairs, n))
    X = truth + noise * (truth != 0)
    return {"m": m, "n": n, "sp": sp, "pairs": pairs,
            "ms": median_ms(repeated(instance.system.remainders, X, truth))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=ROOT / "BENCH_diagnose.json", type=Path)
    args = parser.parse_args(argv)
    m, n, sp = SHAPE
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for storage, kind, matrix_free in STORAGES:
            for seed in SEEDS:
                audits = []
                for rep in REPS:
                    inst_seed, _, solver_seed = cli.derived_seeds(seed, rep)
                    instance = gen.generate(
                        gen.GeneratorSpec(kind, m, n, sp, seed=inst_seed),
                        matrix_free=matrix_free)
                    path = tmp / f"{storage}-{seed}-{rep}.npz"
                    gen.save_instance(path, instance)
                    audits += [dict(rep=rep, **measure(path, preset, solver_seed,
                                                       tmp / "diag"))
                               for preset in cli.SOLVER_NAMES]
                results.append({
                    "storage": storage, "kind": kind, "seed": seed,
                    "audits": audits,
                    "valid": sum(a["valid"] for a in audits),
                    "diagnose_ms": sum(a["spans"]["diagnose"]["ms"]
                                       for a in audits)})
    report = {"command": "python3 scripts/bench_diagnose.py",
              "m": m, "n": n, "sp": sp, "local_start": float(LOCAL_START),
              "repeats": REPEATS, "environment": environment(),
              "results": results,
              "grad_block": [r for shape in BLOCKS for r in block_ms(*shape)],
              "grad_block_matrix_free": block_ms(*MATRIX_FREE_BLOCK, gen.DCT,
                                                 True),
              "grad_block_matrix_free_solve": [
                  solve_ms(*MATRIX_FREE_SOLVE, preset)
                  for preset in cli.SOLVER_NAMES],
              "matrix_free_solves": [matrix_free_solves(*MATRIX_FREE_SOLVE,
                                                        seed)
                                     for seed in SEEDS],
              "eval_all": eval_ms(*EVALS),
              "eval_all_solve": [residual_solve_ms(*RESIDUAL_SOLVE, preset)
                                 for preset in RESIDUAL_PRESETS],
              "remainders": remainders_ms(*SHAPE, REMAINDER_PAIRS),
              "remainders_matrix_free": remainders_ms(
                  *SHAPE, REMAINDER_PAIRS, gen.DCT, True)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for r in results:
        print(f"{r['storage']:<11} seed {r['seed']}: {r['valid']}/"
              f"{len(r['audits'])} valid, {r['diagnose_ms']:.0f} ms")
    for key in ("grad_block", "grad_block_matrix_free"):
        for r in report[key]:
            print(f"{key} ({r['m']}, {r['n']}) x {r['rows']} rows at "
                  f"|S| = {r['support']}: {r['ms']:.3f} ms")
    for r in report["grad_block_matrix_free_solve"]:
        print(f"grad_block_matrix_free_solve ({r['m']}, {r['n']}) "
              f"{r['preset']}, {r['steps']} steps, {r['pairs_shared']:.0%} "
              f"of pairs shared: {r['ms_per_step']:.3f} ms per step")
    for r in report["matrix_free_solves"]:
        print(f"matrix_free_solves ({r['m']}, {r['n']}) seed {r['seed']}, "
              f"{r['solves']} {r['preset']} solves: "
              f"{r['residual_ms_per_call']:.3f} ms per residual, "
              f"{r['block_ms_per_call']:.3f} ms per block, "
              f"{r['cosines_per_solve'] / 1e6:.3f}M cosines per solve")
    for r in report["eval_all"]:
        print(f"eval_all ({r['m']}, {r['n']}) at |S| = {r['support']}: "
              f"{r['ms']:.3f} ms")
    for r in report["eval_all_solve"]:
        print(f"eval_all_solve ({r['m']}, {r['n']}) {r['preset']}, "
              f"{r['calls']} calls, {r['within_budget']:.0%} within the "
              f"budget, {r['pairs_new']:.1%} of pairs new: "
              f"{r['ms_per_call']:.3f} ms per call")
    for key in ("remainders", "remainders_matrix_free"):
        r = report[key]
        print(f"{key} ({r['m']}, {r['n']}) x {r['pairs']} pairs: "
              f"{r['ms']:.3f} ms")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
