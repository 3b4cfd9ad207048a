#!/usr/bin/env python3
"""Cost of `bkz diagnose`, span by span, in the checkout the script runs in.

    python3 scripts/bench_diagnose.py [--out BENCH_diagnose.json]

For seeds 1 and 7, every preset and the repetitions of the `diagnose`
workload of perfbench/workloads.py, on a dense Gaussian and a matrix-free
cosine instance of its shape, the script runs `bkz diagnose FILE --solver
PRESET --seed S --local-start 1e-3` through `cli.main` REPEATS times, S
the solver seed of the repetition.  Per audit it keeps the exit code (0
or 3 valid, 4 refused), iterations, eta with the pair and row that set
it, and grad_dev, and per span of MODULE_SPANS and SYSTEM_SPANS the
calls and the median ms.  It also times the kernels of KERNELS alone:
`cold_ms` one call at fixed inputs on a fresh system, which holds no
support rows or pairs, `replay` the calls of one method of recorded
solves in order, and `step_solves` the steps of recorded block solves in
order.  README.md describes each section of the report.

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
import dataclasses
import json
import statistics
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from operator import attrgetter

import numpy as np
from tracing import Tracer, aggregate
from workloads import WORKLOADS

from bregman_kaczmarz import cli, diagnostics, solver, systems
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.systems import DCTQuadraticSystem, QuadraticSystem

SEEDS = (1, 7)
STORAGES = (("dense", gen.GAUSSIAN, False), ("matrix-free", gen.DCT, True))
REMAINDER_PAIRS = 256
LOCAL_START = "1e-3"
REPEATS = 5
KERNEL_REPEATS = 50
REPLAYS = 5         # each replay is a whole solve of hundreds of calls


def keep(**fields):
    """A Tracer observer that stores field(result) under each key."""
    def observe(counts, args, kwargs, result):
        for key, field in fields.items():
            counts[key] = field(result)
    return observe


MODULE_SPANS = (
    (solver, "run", keep(iterations=attrgetter("iterations"))),
    (diagnostics, "estimate_eta", keep(eta=attrgetter("eta"),
                                       pair=attrgetter("pair"),
                                       row=attrgetter("row"))),
    (diagnostics, "contraction_audit", None),
    (diagnostics, "check_gradients", keep(grad_dev=float)),
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


def shape(workload):
    return {"m": workload.m, "n": workload.n, "sp": workload.sp}


def first_instance(workload, seed=SEEDS[0], rep=0):
    """The instance of repetition `rep` of `seed` of a workload, by default
    repetition 0 of the first seed."""
    inst_seed, _, _ = cli.derived_seeds(seed, rep)
    return gen.generate(gen.GeneratorSpec(workload.kind, workload.m, workload.n,
                                          workload.sp, seed=inst_seed),
                        matrix_free=workload.matrix_free)


def median_ms(calls):
    """Median ms over an iterable of argument-free calls, each timed alone;
    the iterable may build a call untimed."""
    tracer = Tracer()
    for call in calls:
        tracer.wrap("kernel", call)()
    return statistics.median((s.end - s.start) / 1e6 for s in tracer.spans)


def fresh(system):
    """A new system of the same arrays, holding no support rows or pairs."""
    if isinstance(system, DCTQuadraticSystem):
        return DCTQuadraticSystem(system.xi, system.b, system.c)
    return QuadraticSystem(system.A, system.b, system.c)


def cold_ms(system, method, *args):
    """`method` at args, the median ms of KERNEL_REPEATS calls, each on a
    fresh system."""
    return median_ms(partial(getattr(fresh(system), method), *args)
                     for _ in range(KERNEL_REPEATS))


def cold(workload, method, rows=None, supports=None):
    """`method` at an x with each support size, by default a dense x and
    round(sp n) nonzeros, after a block of `rows` rows if given: one
    `cold_ms` each, on the workload's first instance."""
    system = first_instance(workload).system
    rng = np.random.default_rng(SEEDS[0])
    block = {} if rows is None else {"rows": rows}
    head = [rng.choice(workload.m, size=rows, replace=False)] if block else []
    for size in supports or (workload.n, round(workload.sp * workload.n)):
        x = np.zeros(workload.n)
        x[rng.choice(workload.n, size=size, replace=False)] = \
            rng.standard_normal(size)
        yield {**shape(workload), **block, "support": size,
               "ms": cold_ms(system, method, *head, x)}


def recorded_calls(workload, preset, methods, seed=SEEDS[0], rep=0):
    """The system of repetition `rep` of `seed` of a workload and the
    (method, arguments) of every call of one of `methods` of a fresh copy
    of it in its solve by `preset`, in order."""
    instance = first_instance(workload, seed, rep)
    _, x0_seed, solver_seed = cli.derived_seeds(seed, rep)
    system, calls = fresh(instance.system), []
    for method in methods:
        def record(*args, method=method, call=getattr(system, method)):
            calls.append((method, tuple(np.array(arg) for arg in args)))
            return call(*args)
        setattr(system, method, record)
    solver.run(system, SparsePrior(cli.DEFAULT_LAMBDA),
               cli.preset_config(preset, seed=solver_seed),
               cli.initial_dual(system.n, x0_seed), truth=instance.truth)
    return instance.system, calls


def rerun(solves, method):
    """The calls of `method` in recorded solves, each solve's in order on
    a fresh system."""
    for system, calls in solves:
        replica = fresh(system)
        for name, args in calls:
            if name == method:
                getattr(replica, method)(*args)


def replay(solves, method):
    """The calls of `method` in recorded solves: their count, and the ms
    per call of the median of REPLAYS reruns."""
    count = sum(name == method for _, calls in solves for name, _ in calls)
    return count, median_ms([partial(rerun, solves, method)] * REPLAYS) / count


def pair_shares(points, budget):
    """The share of the residuals at `points` whose support pairs j <= k
    fit the `budget` of held pairs, and the share of the pairs of those
    residuals that the last one of them before lacked."""
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


def block_solves(workload):
    """For every preset, its `grad_block` calls on the first instance,
    replayed, with the share of pairs the block before had."""
    for preset in cli.SOLVER_NAMES:
        solve = recorded_calls(workload, preset, ("grad_block",))
        calls = [args for _, args in solve[1]]
        steps, ms = replay([solve], "grad_block")
        yield {**shape(workload), "preset": preset, "steps": steps,
               "rows": sum(idx.size for idx, _ in calls),
               "pairs_shared": shared_pairs(calls), "ms_per_step": ms}


def residual_solves(workload):
    """For each preset of the workload, its `eval_all` calls on the first
    instance, replayed, with the `pair_shares` of the calls."""
    for preset in workload.presets:
        solve = recorded_calls(workload, preset, ("eval_all",))
        calls, ms = replay([solve], "eval_all")
        within, new = pair_shares([x for _, (x,) in solve[1]],
                                   solve[0]._pair_budget())
        yield {**shape(workload), "preset": preset, "calls": calls,
               "within_budget": within, "pairs_new": new, "ms_per_call": ms}


def step_solves(workload):
    """For each preset of the workload, the `solver.abnbk_step` calls of
    its solve of the first instance, replayed on a fresh system with the
    recorded inputs, with the rows of their blocks."""
    for preset in workload.presets:
        steps, step = [], solver.abnbk_step

        def record(dual, primal, F, system, prior, config, rng, k):
            out = step(dual, primal, F, system, prior, config, rng, k)
            steps.append(((dual, primal, F), prior, config, out[3].size))
            return out
        solver.abnbk_step = record
        try:
            system = recorded_calls(workload, preset, ())[0]
        finally:
            solver.abnbk_step = step

        def rerun_steps():
            replica = fresh(system)
            rng = np.random.default_rng(steps[0][2].seed)
            for k, (state, prior, config, _) in enumerate(steps):
                step(*state, replica, prior, config, rng, k)
        ms = median_ms([rerun_steps] * REPLAYS) / len(steps)
        yield {**shape(workload), "preset": preset, "steps": len(steps),
               "rows": sum(rows for *_, rows in steps), "ms_per_step": ms}


class CountingNumpy:
    """numpy with a count of the cosines `cos` computes, to stand in for
    the numpy module of `systems` while a replay runs."""

    cosines = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, *args, **kwargs):
        out = np.cos(*args, **kwargs)
        self.cosines += out.size
        return out


def counted_cosines(solves, method):
    """The cosines the calls of `method` in recorded solves compute, rerun."""
    systems.np = counter = CountingNumpy()
    try:
        rerun(solves, method)
    finally:
        systems.np = np
    return counter.cosines


def matrix_free_solves(workload):
    """For each seed, the `eval_all` and `grad_block` calls of the
    workload's solves, replayed, and the cosines of the solves."""
    for seed in SEEDS:
        for preset in workload.presets:
            solves = [recorded_calls(workload, preset, ("eval_all", "grad_block"),
                                     seed, rep) for rep in range(workload.reps)]
            report = {**shape(workload), "seed": seed, "preset": preset,
                      "solves": len(solves)}
            for method, key in (("eval_all", "residual"), ("grad_block", "block")):
                report[f"{key}_calls"], report[f"{key}_ms_per_call"] = \
                    replay(solves, method)
                report[f"{key}_cosines"] = counted_cosines(solves, method)
            report["cosines_per_solve"] = (report["residual_cosines"]
                                           + report["block_cosines"]) / len(solves)
            yield report


# the kernel sections in report order: the function that fills a row, the
# workload whose shape, presets and repetitions it takes, and what no
# workload defines, the method, block rows and support sizes of a cold row
KERNELS = (
    ("grad_block", cold, "block-dense", "grad_block", 113),
    ("grad_block", cold, "diagnose", "grad_block", 20),
    ("grad_block_matrix_free", cold, "dct-matfree", "grad_block", 72, (8,)),
    ("grad_block_matrix_free_solve", block_solves, "dct-matfree"),
    ("matrix_free_solves", matrix_free_solves, "dct-matfree"),
    ("eval_all", cold, "block-dense", "eval_all", None, (5, 42, 73)),
    ("eval_all_solve", residual_solves, "row-sparse"),
    ("block_steps", step_solves, "block-dense"),
)


def remainders_ms(workload):
    """One `remainders` of REMAINDER_PAIRS local-start pairs (x, truth),
    over one stack of the local starts, then the truth."""
    pairs, instance = REMAINDER_PAIRS, first_instance(workload)
    truth = instance.truth
    rng = np.random.default_rng(SEEDS[0])
    noise = float(LOCAL_START) * rng.standard_normal((pairs, workload.n))
    X = np.vstack((truth + noise * (truth != 0), truth))
    index = np.column_stack((np.arange(pairs), np.full(pairs, pairs)))
    return {**shape(workload), "pairs": pairs,
            "ms": cold_ms(instance.system, "remainders", X, index)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=ROOT / "BENCH_diagnose.json", type=Path)
    args = parser.parse_args(argv)
    audited = WORKLOADS["diagnose"]
    storages = [(storage, dataclasses.replace(audited, kind=kind,
                                              matrix_free=matrix_free))
                for storage, kind, matrix_free in STORAGES]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for storage, workload in storages:
            for seed in SEEDS:
                audits = []
                for rep in range(workload.reps):
                    path = tmp / f"{storage}-{seed}-{rep}.npz"
                    gen.save_instance(path, first_instance(workload, seed, rep))
                    solver_seed = cli.derived_seeds(seed, rep)[2]
                    audits += [dict(rep=rep, **measure(path, preset, solver_seed,
                                                       tmp / "diag"))
                               for preset in workload.presets]
                results.append({
                    "storage": storage, "kind": workload.kind, "seed": seed,
                    "audits": audits,
                    "valid": sum(a["valid"] for a in audits),
                    "diagnose_ms": sum(a["spans"]["diagnose"]["ms"]
                                       for a in audits)})
    kernels = defaultdict(list)
    for section, fill, name, *extra in KERNELS:
        kernels[section] += fill(WORKLOADS[name], *extra)
    kernels["remainders"], kernels["remainders_matrix_free"] = (
        remainders_ms(workload) for _, workload in storages)
    report = {"command": "python3 scripts/bench_diagnose.py",
              **shape(audited), "local_start": float(LOCAL_START),
              "repeats": REPEATS, "environment": environment(),
              "results": results, **kernels}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for r in results:
        print(f"{r['storage']:<11} seed {r['seed']}: {r['valid']}/"
              f"{len(r['audits'])} valid, {r['diagnose_ms']:.0f} ms")
    for section, rows in kernels.items():
        for r in rows if isinstance(rows, list) else [rows]:
            print(section, json.dumps(r))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
