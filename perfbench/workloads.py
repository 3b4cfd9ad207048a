"""The benchmark's workloads and the passes that run them.

Every workload uses the paper presets as `bkz` builds them (lambda = 2,
tol 1e-6 on the squared relative residual, at most 1000 iterations).
Repetition `rep` of a workload seed takes its instance, start and solver
seeds from `cli.derived_seeds(seed, rep)`, as `bkz bench` does, so the
same seed gives the same inputs.  A workload runs a fixed number of
repetitions, so every version of the library is measured on the same
instances.  One pass is a closed loop: a single process runs one set-up
or one solve at a time.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from bregman_kaczmarz import cli, diagnostics, generators, solver
from bregman_kaczmarz.priors import SparsePrior

import layers

SETUP_SAMPLES = 12       # set-ups in a pass, spread over its instances
LOCAL_START = 1e-3       # bkz diagnose --local-start
GRADIENT_TRIALS = 20     # check_gradients trials of bkz diagnose
GRADIENT_TOL = 1e-5      # largest accepted finite-difference deviation
ROOT_TOL = 1e-9          # ||F(truth)||_inf, relative to 1 + max |c_i|


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    m: int
    n: int
    sp: float
    presets: tuple
    reps: int                # repetitions in a run of the reference length
    why: str
    matrix_free: bool = False
    audit: bool = False      # the bkz diagnose pipeline instead of bkz run


WORKLOADS = {w.name: w for w in (
    Workload("row-sparse", generators.GAUSSIAN, 300, 150, 0.1, ("nbk", "mrnbk"), 1,
             why="single-row presets on a sparse iterate: the full residual "
                 "evaluation is most of each step, so a sparse-support kernel "
                 "must speed it up"),
    Workload("block-dense", generators.GAUSSIAN, 300, 150, 0.4,
             ("abnbk-c", "abnbk-a"), 1,
             why="greedy blocks of 100-150 rows at dense support: block "
                 "Jacobian and step kernel paths, and the control for any "
                 "support-dependent fast path"),
    Workload("dct-matfree", generators.DCT, 200, 100, 0.05, ("abnbk-a",), 6,
             matrix_free=True,
             why="matrix-free cosine family rebuilds every A_i in Python and "
                 "bypasses QuadraticSystem, so only a matrix-free change "
                 "should move it"),
    Workload("diagnose", generators.GAUSSIAN, 200, 100, 0.05,
             tuple(cli.SOLVER_NAMES), 2, audit=True,
             why="the bkz diagnose pipeline for all presets: the only "
                 "workload through diagnostics, with full Jacobians from the "
                 "eta estimate"),
)}


@dataclass
class Outcome:
    """What one operation produced; two passes over the same inputs must
    produce equal outcomes."""

    rep: int
    preset: str
    status: str
    iterations: int
    sol_err: float
    valid: bool | None = None       # audit passed the hypothesis check
    grad_dev: float | None = None   # check_gradients result


@dataclass
class Pass:
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)      # one solve or one audit
    solve_s: list = field(default_factory=list)   # one solver.run call
    outcomes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_mb: float = 0.0     # peak resident memory of the process

    def count(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    @property
    def wall_s(self):
        """Time spent in set-ups and operations, without the output checks."""
        return sum(self.setup_s) + sum(self.op_s)


def repetitions(workload, seconds, reference_seconds):
    """Repetitions in a run of `seconds`: the workload's count scaled from
    the reference run length, at least one."""
    return max(1, round(workload.reps * seconds / reference_seconds))


def setups_per_instance(reps):
    """Set-ups of each instance, so that a pass times SETUP_SAMPLES or a few
    more set-ups in all."""
    return math.ceil(SETUP_SAMPLES / reps)


def run_pass(workload, seed, reps, setups, workdir, tracer=None):
    """Run repetitions 0, ..., reps - 1 of the workload, building each
    instance `setups` times.

    With a tracer, the calls that `layers` names are traced, and the output
    checks run after the tracer has restored everything, so they add no
    spans.
    """
    prior = SparsePrior(cli.DEFAULT_LAMBDA)
    result = Pass()
    deferred = []
    if tracer is not None:
        layers.trace_library(tracer)
        layers.trace_prior(tracer, prior)
    try:
        for rep in range(reps):
            instance = None     # hold one instance at a time
            instance = _setup(workload, seed, rep, setups, workdir, result,
                              tracer)
            if instance is None:
                break
            for preset in workload.presets:
                raw = _operation(workload, seed, rep, preset, instance, prior,
                                 workdir, result)
                if raw is None:
                    continue
                if tracer is None:
                    _finish(workload, instance, prior, raw, result)
                else:
                    deferred.append((instance, raw))
    finally:
        if tracer is not None:
            tracer.restore()
    result.peak_mb = peak_resident_mb()
    if tracer is not None:
        systems = [instance.system for instance, _ in deferred]
        result.count(layers.still_patched(systems, [prior]), "trace restore")
    for instance, raw in deferred:
        _finish(workload, instance, prior, raw, result)
    return result


def _setup(workload, seed, rep, setups, workdir, result, tracer):
    """Build the instance `setups` times from its spec, timing each, and
    check the copies are equal and the planted truth is a root."""
    spec = generators.GeneratorSpec(workload.kind, workload.m, workload.n,
                                    workload.sp, cli.derived_seeds(seed, rep)[0])
    problems = []
    instance = first = None
    try:
        for _ in range(setups):
            instance = None     # release the previous copy before the next
            t0 = time.perf_counter()
            instance = generators.generate(spec, matrix_free=workload.matrix_free)
            if workload.audit:
                path = workdir / f"rep{rep}.npz"
                generators.save_instance(path, instance)
                instance = generators.load_instance(path)
            result.setup_s.append(time.perf_counter() - t0)
            key = (instance.truth, instance.system.b, instance.system.c)
            if first is None:
                first = key
            elif not all(np.array_equal(a, b) for a, b in zip(first, key)):
                problems.append("repeated set-up built a different instance")
    except Exception:
        result.count([traceback.format_exc()], f"set-up rep {rep}")
        return None
    system = instance.system
    f = system.eval_all(instance.truth)
    scale = 1.0 + float(np.max(np.abs(system.c)))
    if not np.max(np.abs(f)) <= ROOT_TOL * scale:
        problems.append(f"||F(truth)||_inf = {np.max(np.abs(f)):.3e}")
    result.count(problems, f"set-up rep {rep}")
    if tracer is not None:
        # patched after the root check, so the check adds no spans
        layers.trace_system(tracer, system)
    return instance


def _operation(workload, seed, rep, preset, instance, prior, workdir, result):
    """One timed `bkz run` solve or one timed `bkz diagnose` audit."""
    _, x0_seed, solver_seed = cli.derived_seeds(seed, rep)
    config = cli.preset_config(preset, seed=solver_seed)
    n = instance.system.n
    try:
        if not workload.audit:
            x0_star = cli.initial_dual(n, x0_seed)
            t0 = time.perf_counter()
            record = solver.run(instance.system, prior, config, x0_star,
                                truth=instance.truth)
            elapsed = time.perf_counter() - t0
            result.solve_s.append(elapsed)
            raw = dict(rep=rep, preset=preset, config=config, x0_star=x0_star,
                       record=record)
        else:
            # as cmd_diagnose: one rng gives the local start, then the
            # gradient check; the CSVs are written only for a valid audit
            rng = np.random.default_rng(solver_seed)
            t0 = time.perf_counter()
            truth = instance.truth
            x0_star = (truth + cli.DEFAULT_LAMBDA * np.sign(truth)
                       + LOCAL_START * rng.standard_normal(n))
            grad_dev = diagnostics.check_gradients(
                instance.system, trials=GRADIENT_TRIALS, rng=rng)
            try:
                record, _, audit = diagnostics.audit_run(instance, prior, config,
                                                         x0_star)
            except diagnostics.HypothesisViolated:
                record = None
            else:
                record.to_csv(workdir / f"{preset}-history.csv")
                audit.to_csv(workdir / f"{preset}-contraction.csv")
            elapsed = time.perf_counter() - t0
            raw = dict(rep=rep, preset=preset, config=config, x0_star=x0_star,
                       record=record, grad_dev=grad_dev)
    except Exception:
        result.count([traceback.format_exc()], f"{preset} rep {rep}")
        return None
    result.op_s.append(elapsed)
    return raw


def _finish(workload, instance, prior, raw, result):
    """Untimed output checks of one operation; appends its Outcome."""
    problems = []
    try:
        result.outcomes.append(_check(workload, instance, prior, raw, result,
                                      problems))
    except Exception:
        problems.append(traceback.format_exc())
    result.count(problems, f"{raw['preset']} rep {raw['rep']}")


def _check(workload, instance, prior, raw, result, problems):
    system, truth = instance.system, instance.truth
    record = raw["record"]
    valid = grad_dev = None
    if workload.audit:
        grad_dev = raw["grad_dev"]
        if not grad_dev <= GRADIENT_TOL:
            problems.append(f"check_gradients deviation {grad_dev:.3e}")
        # audit_run drops its record when the hypothesis check fails, so the
        # audited solve is run again, with the settings audit_run uses, to
        # learn its iterations; for a valid audit it must match exactly
        valid = record is not None
        config = dataclasses.replace(raw["config"], record_history=True,
                                     keep_iterates=True, block_norm="frobenius")
        t0 = time.perf_counter()
        again = solver.run(system, prior, config, raw["x0_star"], truth=truth)
        result.solve_s.append(time.perf_counter() - t0)
        if valid and (again.status, again.iterations) != (record.status,
                                                          record.iterations):
            problems.append("audited solve does not reproduce")
        record = again
    if record.status == solver.DEGENERATE:
        problems.append(f"degenerate run: {record.message}")
    if record.status == solver.CONVERGED:
        f = system.eval_all(record.final_primal)
        f0 = system.eval_all(prior.conj_grad(raw["x0_star"]))
        if float(f0 @ f0) > 0 and not float(f @ f) / float(f0 @ f0) <= raw["config"].tol:
            problems.append("converged run above tol on recomputed residual")
    return Outcome(rep=raw["rep"], preset=raw["preset"], status=record.status,
                   iterations=record.iterations,
                   sol_err=solver.solution_error(record.final_primal, truth),
                   valid=valid, grad_dev=grad_dev)


def peak_resident_mb():
    """The peak resident set size of the process so far (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def end_to_end(workload, result):
    """Every end-to-end metric that applies to the workload, as
    name -> (value, unit, sample count)."""
    first = [o for o in result.outcomes if o.rep == 0]
    iterations = sum(o.iterations for o in result.outcomes)
    metrics = {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s)),
        "solve_s": (statistics.median(result.solve_s), "s", len(result.solve_s)),
        "iters_per_s": (iterations / sum(result.op_s), "1/s", len(result.op_s)),
        "iterations": (statistics.median(o.iterations for o in first), "count",
                       len(first)),
        "converged_frac": (sum(o.status == solver.CONVERGED for o in first)
                           / len(first), "ratio", len(first)),
        "sol_err": (statistics.median(o.sol_err for o in first), "ratio",
                    len(first)),
        "failed_frac": (result.failed / result.attempted, "ratio",
                        result.attempted),
        "peak_mem_mb": (result.peak_mb, "MB", 1),
    }
    if workload.audit:
        metrics["audit_s"] = (statistics.median(result.op_s), "s",
                              len(result.op_s))
        metrics["audit_valid_frac"] = (sum(o.valid for o in first) / len(first),
                                       "ratio", len(first))
    return metrics
