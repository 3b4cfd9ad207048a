"""Experiment harness: instance generation, single runs, benchmark sweeps
and hypothesis audits, all emitting deterministic CSV files.

Exit codes: 0 converged/complete, 2 max-iters, 3 degenerate, 4 validation
error, a usage error included.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import generators as gen
from . import selection as sel
from . import solver as slv
from .priors import SparsePrior

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_DEGENERATE = 3
EXIT_VALIDATION = 4

# Paper-preset parameters: lambda = 2, tol 1e-6, at most 1000 iterations,
# ABNBK-c (alpha, theta) = (1.9, 0.1), ABNBK-a (delta, theta) = (1.3, 0.1).
DEFAULT_LAMBDA = 2.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 1000
# the presets and the stepsize and block parameters each one reads
PRESET_FLAGS = {"nbk": ("alpha",), "mrnbk": ("alpha",),
                "abnbk-c": ("alpha", "theta"), "abnbk-a": ("delta", "theta")}
SOLVER_NAMES = list(PRESET_FLAGS)
# `bkz bench` refuses instances storing more than a dense (400, 200) one
DESK_SCALE_BYTES = 400 * 200 ** 2 * 8

TABLE_HEADER = ["m", "n", "sp", "solver", "it_median", "it_mean",
                "elapsed_median_ns", "converged_frac", "time_to_tol_median_ns"]
SIGNAL_HEADER = ["index", "recovered", "truth"]


def preset_config(name, seed=0, alpha=None, delta=None, theta=None,
                  tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, **kwargs):
    """SolverConfig for one of the four named methods, paper defaults.
    Raises ValueError for a parameter the named method does not read."""
    if name not in PRESET_FLAGS:
        raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    given = {"alpha": alpha, "delta": delta, "theta": theta}
    unused = [flag for flag, value in given.items()
              if value is not None and flag not in PRESET_FLAGS[name]]
    if unused:
        raise ValueError(f"solver {name!r} does not use {', '.join(unused)}")
    if name == "nbk":
        selection = sel.ResidualProbability()
        stepsize = sel.Constant(alpha if alpha is not None else 1.0)
    elif name == "mrnbk":
        selection = sel.MaxResidual()
        stepsize = sel.Constant(alpha if alpha is not None else 1.0)
    elif name == "abnbk-c":
        selection = sel.GreedyBlock(theta if theta is not None else 0.1)
        stepsize = sel.Constant(alpha if alpha is not None else 1.9)
        kwargs.setdefault("block_norm", "spectral")
    else:
        selection = sel.GreedyBlock(theta if theta is not None else 0.1)
        stepsize = sel.Adaptive(delta if delta is not None else 1.3)
    return slv.SolverConfig(selection=selection, stepsize=stepsize, tol=tol,
                            max_iters=max_iters, seed=seed, **kwargs)


def derived_seeds(base_seed, rep):
    """Portable (instance, x0, solver) seeds for one benchmark repetition."""
    state = np.random.SeedSequence([int(base_seed), int(rep)]).generate_state(
        3, dtype=np.uint64)
    return tuple(int(s) for s in state)


def initial_dual(n, seed):
    """Standard-normal dual start; x0 is its mirror image under the prior."""
    return np.random.default_rng(seed).standard_normal(n)


def local_dual(truth, lam, scale, rng):
    """Dual start whose mirror image under the prior of weight `lam` is the
    truth up to noise of the given scale: the tangential cone condition is
    local, so the contraction hypotheses only hold close to the root."""
    return truth + lam * np.sign(truth) + scale * rng.standard_normal(truth.size)


def sweep(spec, configs, reps, prior, matrix_free=False):
    """The runs of `bkz bench`: per repetition rep, one instance, start and
    solver seed from `derived_seeds(spec.seed, rep)` and a run of every
    config (preset name -> SolverConfig) on them.  Yields (rep, preset, record)."""
    for rep in range(reps):
        inst_seed, x0_seed, solver_seed = derived_seeds(spec.seed, rep)
        instance = gen.generate(replace(spec, seed=inst_seed),
                                matrix_free=matrix_free)
        x0_star = initial_dual(instance.system.n, x0_seed)
        for name, config in configs.items():
            yield rep, name, slv.run(instance.system, prior,
                                     replace(config, seed=solver_seed),
                                     x0_star, truth=instance.truth)


def _status_exit(status):
    return {slv.CONVERGED: EXIT_OK, slv.MAX_ITERS: EXIT_MAX_ITERS,
            slv.DEGENERATE: EXIT_DEGENERATE}[status]


def _usable_out(path, directory):
    """--out as a Path, refused before any work if a file lies above it, or
    if it is a file where a directory goes or a directory where a file goes."""
    out = Path(path)
    if any(p.is_file() for p in out.parents):
        raise NotADirectoryError(f"--out {out} lies below a file")
    if out.exists() and out.is_dir() != directory:
        raise (FileExistsError if directory else IsADirectoryError)(
            f"--out {out} exists as a {'file' if directory else 'directory'}")
    return out


def _problem(args):
    """(instance, prior, preset config) of `run` and `diagnose`; the flags
    are checked before the instance file is read."""
    config = preset_config(args.solver, seed=args.seed, alpha=args.alpha,
                           delta=args.delta, theta=args.theta, tol=args.tol,
                           max_iters=args.max_iters)
    prior = SparsePrior(args.lam)
    return gen.load_instance(args.instance), prior, config


def cmd_generate(args):
    out = _usable_out(args.out, directory=False)
    spec = gen.GeneratorSpec(args.kind, args.m, args.n, args.sp, args.seed)
    instance = gen.generate(spec, matrix_free=args.matrix_free)
    out.parent.mkdir(parents=True, exist_ok=True)
    gen.save_instance(out, instance)
    print(f"wrote {out} ({spec.kind}, m={spec.m}, n={spec.n}, sp={spec.sp}, "
          f"seed={spec.seed})")
    return EXIT_OK


def cmd_run(args):
    out = _usable_out(args.out, directory=True)
    instance, prior, config = _problem(args)
    x0_star = initial_dual(instance.system.n, args.seed)
    record = slv.run(instance.system, prior, config, x0_star,
                     truth=instance.truth)

    out.mkdir(parents=True, exist_ok=True)
    record.to_csv(out / "history.csv")
    slv.write_csv(out / "signal.csv", SIGNAL_HEADER,
                  zip(range(instance.truth.size), record.final_primal,
                      instance.truth))
    print(f"{args.solver}: status={record.status} iterations={record.iterations} "
          f"rel_res_sq={record.rows[-1][1]:.3e}")
    return _status_exit(record.status)


def cmd_bench(args):
    out = _usable_out(args.out, directory=True)
    solvers = [args.solver] if args.solver else SOLVER_NAMES
    spec = gen.GeneratorSpec(args.kind, args.m, args.n, args.sp, args.seed)
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    size = gen.stored_bytes(spec, args.matrix_free)
    if not args.force_large and size > DESK_SCALE_BYTES:
        raise ValueError(f"refusing {size} stored bytes beyond desk scale "
                         f"({DESK_SCALE_BYTES}); pass --force-large to override")

    # a sweep over every preset hands each one only the flags it reads
    flags = {"alpha": args.alpha, "delta": args.delta, "theta": args.theta}
    configs = {name: preset_config(name, tol=args.tol, max_iters=args.max_iters,
                                   **{flag: value for flag, value in flags.items()
                                      if args.solver or flag in PRESET_FLAGS[name]})
               for name in solvers}

    prior = SparsePrior(args.lam)
    results = {name: [] for name in solvers}
    for rep, name, record in sweep(spec, configs, args.reps, prior,
                                   args.matrix_free):
        # made once `generate` has passed the spec, so a refusal leaves none
        out.mkdir(parents=True, exist_ok=True)
        elapsed = int(record.column("elapsed_ns").sum())
        results[name].append((record.iterations, elapsed,
                              record.status == slv.CONVERGED))
        if args.curves:
            record.to_csv(out / f"curve_{name}_rep{rep}.csv")

    table, summary = [], []
    for name in solvers:
        its, times, conv = zip(*results[name])
        to_tol = [t for t, c in zip(times, conv) if c]
        table.append([args.m, args.n, args.sp, name, statistics.median(its),
                      statistics.mean(its), int(statistics.median(times)),
                      sum(conv) / len(conv),
                      int(statistics.median(to_tol)) if to_tol else ""])
        summary.append(f"{name}: median_it={table[-1][4]} "
                       f"converged={sum(conv)}/{args.reps}")
    slv.write_csv(out / "table.csv", TABLE_HEADER, table)
    print("\n".join(summary))
    return EXIT_OK


def cmd_diagnose(args):
    if args.local_start is not None and not np.isfinite(args.local_start):
        raise ValueError(f"--local-start must be finite, got {args.local_start}")
    out = _usable_out(args.out, directory=True)
    instance, prior, config = _problem(args)
    rng = np.random.default_rng(args.seed)
    if args.local_start is not None:
        x0_star = local_dual(instance.truth, args.lam, args.local_start, rng)
    else:
        x0_star = initial_dual(instance.system.n, args.seed)

    try:
        record, est, audit = diag.audit_run(instance, prior, config, x0_star)
    except diag.HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        est = exc.estimate
        if est is not None:
            print(f"eta = {est.eta:.4g} at the pair "
                  f"{diag.pair_label(exc.record, est.pair)}, row {est.row}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    # audit_run draws nothing from rng, so the check sees the same draws
    grad_dev = diag.check_gradients(instance.system, diag.GRADIENT_TRIALS, rng)
    out.mkdir(parents=True, exist_ok=True)
    record.to_csv(out / "history.csv")
    audit.to_csv(out / "contraction.csv")
    grads_ok = grad_dev <= diag.GRADIENT_TOL      # False for a NaN deviation
    passed = audit.all_satisfied and grads_ok
    grad_note = "" if grads_ok else f" > {diag.GRADIENT_TOL:g}"
    print(f"{'PASS' if passed else 'FAIL'}: eta={est.eta:.4g} "
          f"grad_dev={grad_dev:.3e}{grad_note} "
          f"contraction_satisfied={audit.fraction_satisfied:.3f}")
    return EXIT_OK if passed else EXIT_DEGENERATE


def _add_spec_flags(p):
    p.add_argument("--kind", choices=[gen.GAUSSIAN, gen.DCT], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sp", type=float, required=True)
    p.add_argument("--matrix-free", action="store_true")


def _add_solver_flags(p):
    p.add_argument("--solver", choices=SOLVER_NAMES, default="abnbk-a")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which `main` refuses (exit 4)."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="bkz",
        description="Sparse nonlinear system solving via block "
                    "Bregman-Kaczmarz iterations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a problem instance file")
    _add_spec_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="solve one instance, dump history + signal")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="solver comparison table over seeds")
    _add_spec_flags(p)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--curves", action="store_true")
    p.add_argument("--force-large", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(solver=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diagnose", help="eta estimate and contraction audit")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--local-start", type=float, default=None,
                   help="perturbation scale for a start near the ground truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # usage errors and an --out of the wrong kind (a file where a directory
    # goes, or the reverse) are refused like bad input; a full disk is not
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
