#!/usr/bin/env python3
"""Cost of the `bkz diagnose` pipeline, phase by phase.

    python3 scripts/bench_diagnose.py

For seeds 1 and 7, repetitions 0 and 1 and every preset, the script
builds the (200, 100, sp = 0.05) Gaussian instance of the `diagnose`
benchmark workload and the local start of `bkz diagnose --local-start
1e-3` (lambda = 2), then times two versions of the pipeline:

- before: the gradient check first, F evaluated again at every iterate
  of the eta estimate, and the list of every block Jacobian built before
  the hypothesis check (an in-script copy of the former path);
- after: the audit as `diagnostics.audit_run` makes it (the run's
  residuals seed the eta estimate, block Jacobians are built one at a
  time by the contraction audit) and the gradient check only after a
  valid audit, as `cli.cmd_diagnose` does.

Each phase is timed REPEATS times, alternating the two versions, and the
median is kept.  `eval_all` and `grad_block` calls are counted per
audit, and block Jacobians built are the `grad_block` calls outside the
run.  Both versions must give the audit of `diagnostics.audit_run`.

It writes BENCH_diagnose.json at the repository root, with the numpy
version, BLAS name and BLAS thread variables.  BLAS runs on one thread
unless the caller sets those variables.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_eta import environment

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import generators as gen
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.priors import SparsePrior

SEEDS = (1, 7)
REPS = (0, 1)
M, N, SP = 200, 100, 0.05
LOCAL_START = 1e-3
GRADIENT_TRIALS = 20
REPEATS = 5
PHASES = ("check_gradients", "run", "estimate_eta", "block_jacobians",
          "contraction_audit")
OUT = ROOT / "BENCH_diagnose.json"


class Probe:
    """Times named phases and counts `eval_all`/`grad_block` calls of one
    system instance inside each of them."""

    def __init__(self, system):
        self.ns = Counter()
        self.calls = defaultdict(Counter)
        self._phase = None
        for name in ("eval_all", "grad_block"):
            method = getattr(system, name)

            def counted(*args, name=name, method=method):
                self.calls[self._phase][name] += 1
                return method(*args)
            setattr(system, name, counted)
        self._system = system

    @contextmanager
    def phase(self, name):
        self._phase = name
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.ns[name] += time.perf_counter_ns() - t0
            self._phase = None

    def close(self):
        del self._system.eval_all, self._system.grad_block

    def count(self, name, phases=PHASES):
        return sum(self.calls[p][name] for p in phases)


def audited(record, est, config, jacs):
    try:
        return diag.contraction_audit(record, est.eta, config, jacs)
    except diag.HypothesisViolated:
        return None


def diagnose_before(instance, prior, config, x0_star, rng, probe):
    """The former pipeline: gradient check, the solve, F again at every
    iterate, then every block Jacobian before the hypothesis check."""
    system, truth = instance.system, instance.truth
    with probe.phase("check_gradients"):
        diag.check_gradients(system, trials=GRADIENT_TRIALS, rng=rng)
    with probe.phase("run"):
        record = slv.run(system, prior, config, x0_star, truth=truth)
    with probe.phase("estimate_eta"):
        pairs = diag.trajectory_pairs(record, truth=truth)
        est = diag.estimate_eta(system, pairs)
    with probe.phase("block_jacobians"):
        jacs = list(diag.block_jacobians(record, system))
    with probe.phase("contraction_audit"):
        audit = audited(record, est, config, jacs)
    return record, est, audit


def diagnose_after(instance, prior, config, x0_star, rng, probe):
    """The steps of `diagnostics.audit_run`, then the gradient check of
    `cli.cmd_diagnose` for a valid audit only."""
    system, truth = instance.system, instance.truth
    with probe.phase("run"):
        record = slv.run(system, prior, config, x0_star, truth=truth)
    with probe.phase("estimate_eta"):
        pairs = diag.trajectory_pairs(record, truth=truth)
        est = diag.estimate_eta(system, pairs,
                                known=zip(record.primals, record.residuals))
    with probe.phase("block_jacobians"):
        jacs = diag.block_jacobians(record, system)
    with probe.phase("contraction_audit"):
        audit = audited(record, est, config, jacs)
    if audit is not None:
        with probe.phase("check_gradients"):
            diag.check_gradients(system, trials=GRADIENT_TRIALS, rng=rng)
    return record, est, audit


def local_start(instance, seed):
    """The start of `bkz diagnose --local-start` and the rng it leaves for
    the gradient check."""
    rng = np.random.default_rng(seed)
    return cli.local_dual(instance.truth, cli.DEFAULT_LAMBDA, LOCAL_START, rng), rng


def measure(instance, prior, preset, solver_seed):
    config = replace(cli.preset_config(preset, seed=solver_seed), **diag.AUDITED)
    x0_star, _ = local_start(instance, solver_seed)
    try:
        _, reference, audit = diag.audit_run(instance, prior, config, x0_star)
    except diag.HypothesisViolated:
        reference, audit = None, None
    library = (reference.eta, audit.rows) if audit is not None else None

    versions = {"before": diagnose_before, "after": diagnose_after}
    ms = {v: defaultdict(list) for v in versions}
    counts = {}
    for repeat in range(REPEATS):
        order = list(versions) if repeat % 2 == 0 else list(versions)[::-1]
        for version in order:
            probe = Probe(instance.system)
            _, rng = local_start(instance, solver_seed)
            try:
                record, est, audit = versions[version](
                    instance, prior, config, x0_star, rng, probe)
            finally:
                probe.close()
            got = (est.eta, audit.rows) if audit is not None else None
            if got != library:
                raise AssertionError(f"{version} differs from audit_run "
                                     f"({preset}, seed {solver_seed})")
            for phase in PHASES:
                ms[version][phase].append(probe.ns[phase] / 1e6)
            counts[version] = {
                "eval_all_calls": probe.count("eval_all"),
                "grad_block_calls": probe.count("grad_block"),
                "block_jacobians_built": probe.count(
                    "grad_block", ("block_jacobians", "contraction_audit"))}
    row = {"preset": preset, "valid": audit is not None,
           "iterations": record.iterations, "eta": est.eta}
    for version in versions:
        phase_ms = {p: statistics.median(ms[version][p]) for p in PHASES}
        row[version] = dict(counts[version], phase_ms=phase_ms,
                            total_ms=sum(phase_ms.values()))
    return row


def summarize(audits):
    """Totals over the audits of one seed, and the block Jacobians built
    per refused and per valid audit."""
    summary = {"audits": len(audits),
               "valid": sum(a["valid"] for a in audits)}
    for version in ("before", "after"):
        phase_ms = {p: sum(a[version]["phase_ms"][p] for a in audits)
                    for p in PHASES}
        summary[version] = {
            "phase_ms": phase_ms, "total_ms": sum(phase_ms.values()),
            "eval_all_calls": sum(a[version]["eval_all_calls"] for a in audits),
            "grad_block_calls": sum(a[version]["grad_block_calls"]
                                    for a in audits)}
        for valid, label in ((False, "refused"), (True, "valid")):
            summary[version][f"block_jacobians_built_{label}"] = sum(
                a[version]["block_jacobians_built"] for a in audits
                if a["valid"] == valid)
    summary["speedup"] = summary["before"]["total_ms"] / summary["after"]["total_ms"]
    return summary


def main():
    prior = SparsePrior(cli.DEFAULT_LAMBDA)
    results = []
    for seed in SEEDS:
        audits = []
        for rep in REPS:
            inst_seed, _, solver_seed = cli.derived_seeds(seed, rep)
            instance = gen.generate(gen.GeneratorSpec(gen.GAUSSIAN, M, N, SP,
                                                      seed=inst_seed))
            for preset in cli.SOLVER_NAMES:
                audits.append(dict(rep=rep, **measure(instance, prior, preset,
                                                      solver_seed)))
        results.append({"seed": seed, "summary": summarize(audits),
                        "audits": audits})
    report = {"command": "python3 scripts/bench_diagnose.py",
              "kind": gen.GAUSSIAN, "m": M, "n": N, "sp": SP,
              "local_start": LOCAL_START, "repeats": REPEATS,
              "environment": environment(), "results": results}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for r in results:
        s = r["summary"]
        print(f"seed {r['seed']}: {s['valid']}/{s['audits']} valid, "
              f"{s['before']['total_ms']:.0f} -> {s['after']['total_ms']:.0f} ms "
              f"(x{s['speedup']:.2f}), eval_all {s['before']['eval_all_calls']} "
              f"-> {s['after']['eval_all_calls']}, grad_block "
              f"{s['before']['grad_block_calls']} -> "
              f"{s['after']['grad_block_calls']}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
