"""End-to-end acceptance checks for the solver package.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with `pytest -s tests/test_acceptance.py`.
"""

import statistics

import numpy as np

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import selection as sel
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.generators import GeneratorSpec, generate
from bregman_kaczmarz.priors import SparsePrior


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def sweep(kind, m, n, sp, reps, solvers):
    """Median iteration counts and convergence fractions per solver over
    the runs of `bkz bench --seed 42` without history."""
    configs = {name: cli.preset_config(name, record_history=False)
               for name in solvers}
    runs = {name: [] for name in solvers}
    for _, name, record in cli.sweep(GeneratorSpec(kind, m, n, sp, seed=42),
                                     configs, reps, SparsePrior(2.0)):
        runs[name].append(record)
    med = {name: statistics.median(r.iterations for r in runs[name])
           for name in solvers}
    frac = {name: sum(r.status == slv.CONVERGED for r in runs[name]) / reps
            for name in solvers}
    return med, frac


def test_criterion_1_gaussian_method_ordering():
    med, _ = sweep("gaussian", 200, 100, 0.05, reps=20, solvers=cli.SOLVER_NAMES)
    ok = (med["abnbk-a"] <= med["abnbk-c"] < med["mrnbk"] < med["nbk"]
          and med["abnbk-a"] <= 60)
    report("gaussian (200,100) sp=0.05 median ordering", ok,
           f"abnbk-a={med['abnbk-a']} <= abnbk-c={med['abnbk-c']} "
           f"< mrnbk={med['mrnbk']} < nbk={med['nbk']}")


def test_criterion_2_gaussian_large_gap():
    med, frac = sweep("gaussian", 300, 150, 0.1, reps=10,
                      solvers=["nbk", "abnbk-c", "abnbk-a"])
    ok = (frac["abnbk-c"] >= 0.8 and frac["abnbk-a"] >= 0.8
          and (1.0 - frac["nbk"]) >= 0.8)
    report("gaussian (300,150) sp=0.1 convergence split", ok,
           f"abnbk-c conv={frac['abnbk-c']:.0%}, abnbk-a conv="
           f"{frac['abnbk-a']:.0%}, nbk capped={1 - frac['nbk']:.0%}")


def test_criterion_3_dct_family():
    med, _ = sweep("dct", 200, 100, 0.05, reps=10, solvers=["mrnbk", "abnbk-a"])
    ok = med["abnbk-a"] < med["mrnbk"]
    report("dct (200,100) sp=0.05 adaptive beats max-residual", ok,
           f"abnbk-a={med['abnbk-a']} < mrnbk={med['mrnbk']}")


def test_criterion_4_monotone_bregman_decrease():
    # audit runs started near the root, where the cone-condition estimate
    # is meaningful; runs whose estimated eta or stepsize falls outside
    # the theorem hypotheses are excluded, everything else must contract
    # at every single iteration
    prior = SparsePrior(2.0)
    configs = [
        slv.SolverConfig(selection=sel.GreedyBlock(0.1), stepsize=sel.Constant(1.0)),
        slv.SolverConfig(selection=sel.GreedyBlock(0.1), stepsize=sel.Constant(1.2)),
        slv.SolverConfig(selection=sel.GreedyBlock(0.1), stepsize=sel.Adaptive(1.0)),
        slv.SolverConfig(selection=sel.GreedyBlock(0.1), stepsize=sel.Adaptive(1.3)),
    ]
    valid = 0
    monotone = 0
    for rep in range(10):
        inst_seed, x0_seed, _ = cli.derived_seeds(7, rep)
        inst = generate(GeneratorSpec("gaussian", 60, 30, 0.1, seed=inst_seed))
        x0_star = cli.local_dual(inst.truth, 2.0, 1e-3,
                                 np.random.default_rng(x0_seed))
        for config in configs:
            try:
                _, est, audit = diag.audit_run(inst, prior, config, x0_star)
            except diag.HypothesisViolated:
                continue
            valid += 1
            monotone += int(audit.all_satisfied)
    ok = valid >= 5 and monotone == valid
    report("per-iteration Bregman contraction under valid hypotheses", ok,
           f"{monotone}/{valid} hypothesis-valid runs monotone "
           f"(over 10 instances x {len(configs)} configs)")


def test_criterion_5_reduction_oracles():
    inst = generate(GeneratorSpec("gaussian", 20, 10, 0.2, seed=8))
    prior = SparsePrior(0.0)

    # (a) zero shrinkage, singleton rows: classic nonlinear Kaczmarz
    config = slv.SolverConfig(selection=sel.UniformRandom(),
                              stepsize=sel.Constant(1.0), seed=77,
                              max_iters=50, tol=1e-300, keep_iterates=True)
    x0 = np.random.default_rng(5).standard_normal(10)
    record = slv.run(inst.system, prior, config, x0)
    rng = np.random.default_rng(77)
    x = x0.copy()
    dev_a = 0.0
    for dual in record.duals[1:]:
        i = int(rng.integers(inst.system.m))
        g = inst.system.grad_component(i, x)
        x = x - (inst.system.eval_component(i, x) / float(g @ g)) * g
        dev_a = max(dev_a, float(np.abs(dual - x).max()))

    # zero shrinkage, greedy block: direct averaged update
    config = slv.SolverConfig(selection=sel.GreedyBlock(0.3),
                              stepsize=sel.Constant(1.5), max_iters=50,
                              tol=1e-300, keep_iterates=True)
    x0 = np.random.default_rng(6).standard_normal(10)
    record = slv.run(inst.system, prior, config, x0)
    x = x0.copy()
    for dual in record.duals[1:]:
        F = inst.system.eval_all(x)
        sq = F * F
        block = np.flatnonzero(sq >= 0.3 * sq.max())
        G = inst.system.grad_block(block, x)
        x = x - 1.5 * (G.T @ F[block]) / np.sum(G ** 2)
        dev_a = max(dev_a, float(np.abs(dual - x).max()))

    # (b) singleton adaptive stepsize is exactly delta
    dev_b = 0.0
    prng = np.random.default_rng(1)
    for _ in range(100):
        g = prng.standard_normal((1, 6))
        f = prng.standard_normal(1)
        delta = float(prng.uniform(0.5, 1.9))
        alpha = sel.adaptive_stepsize(f, g, np.einsum("ij,ij->i", g, g),
                                      np.array([1.0]), delta)
        dev_b = max(dev_b, abs(alpha - delta) / delta)

    # (c) theta = 1 greedy singleton at alpha = 1 equals the max-residual trace
    prior2 = SparsePrior(2.0)
    common = dict(stepsize=sel.Constant(1.0), max_iters=50, tol=1e-300,
                  keep_iterates=True)
    x0 = np.random.default_rng(2).standard_normal(10)
    rec_g = slv.run(inst.system, prior2,
                    slv.SolverConfig(selection=sel.GreedyBlock(1.0), **common),
                    x0)
    rec_m = slv.run(inst.system, prior2,
                    slv.SolverConfig(selection=sel.MaxResidual(), **common),
                    x0)
    dev_c = max(float(np.abs(a - b).max())
                for a, b in zip(rec_g.duals, rec_m.duals))

    ok = dev_a <= 1e-12 and dev_b <= 1e-14 and dev_c <= 1e-12
    report("reduction to classic Kaczmarz special cases", ok,
           f"trace dev={dev_a:.2e} (<=1e-12), singleton delta dev="
           f"{dev_b:.2e} (<=1e-14), max-residual trace dev={dev_c:.2e}")


def test_criterion_6_conjugate_identities():
    prng = np.random.default_rng(3)
    worst_fy = 0.0
    worst_lb = -np.inf
    for _ in range(100):
        lam = float(prng.uniform(0.0, 4.0))
        prior = SparsePrior(lam)
        xs = prng.standard_normal((100, 6)) * prng.uniform(0.1, 10.0)
        for x_star in xs:
            x = prior.conj_grad(x_star)
            fy = abs(prior.value(x) + prior.conj_value(x_star)
                     - float(x_star @ x))
            worst_fy = max(worst_fy, fy)
            y = prng.standard_normal(6)
            lb = (0.5 * prior.sigma * float(np.sum((x - y) ** 2))
                  - prior.bregman_distance(x_star, y))
            worst_lb = max(worst_lb, lb)
    ok = worst_fy <= 1e-10 and worst_lb <= 1e-10
    report("conjugate pairing and strong-convexity lower bound", ok,
           f"pairing dev={worst_fy:.2e}, bound excess={worst_lb:.2e} "
           "(both <=1e-10 over 10^4 samples)")


def test_criterion_7_gradient_checks():
    worst = 0.0
    for kind in ("gaussian", "dct"):
        inst = generate(GeneratorSpec(kind, 30, 20, 0.1, seed=13))
        dev = diag.check_gradients(inst.system, trials=100,
                                   rng=np.random.default_rng(4))
        worst = max(worst, dev)
    ok = worst <= 1e-5
    report("analytic gradients vs finite differences", ok,
           f"max relative deviation {worst:.2e} <= 1e-5 "
           "(100 samples per family)")


def test_criterion_8_determinism():
    inst = generate(GeneratorSpec("gaussian", 50, 25, 0.1, seed=17))
    prior = SparsePrior(2.0)
    x0_star = cli.initial_dual(25, 9)
    ok = True
    for name in cli.SOLVER_NAMES:
        config = cli.preset_config(name, seed=31)
        r1 = slv.run(inst.system, prior, config, x0_star, truth=inst.truth)
        r2 = slv.run(inst.system, prior, config, x0_star, truth=inst.truth)
        same = (r1.iterations == r2.iterations and r1.status == r2.status
                and all(a[:6] == b[:6] for a, b in zip(r1.rows, r2.rows)))
        ok = ok and same
    report("bit-exact reproducibility of repeated runs", ok,
           "iteration counts and history columns identical across reruns "
           "for all four presets")
