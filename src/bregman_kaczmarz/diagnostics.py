"""Empirical checks of the solver's working hypotheses and bounds.

The tangential-cone constant eta is estimated along realized trajectories
(a neighborhood certificate is not computable), and the per-iteration
contraction factors are audited against the recorded Bregman distances.
Everything here is pure analysis over recorded histories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import selection as sel
from . import solver as slv
from .priors import SparsePrior


class HypothesisViolated(Exception):
    """Audit preconditions (eta < 1/2, stepsize in the theorem range) failed.

    Raised by `audit_run`, it carries the audited run's `record` and the
    `estimate` of eta when one was made; `estimate_eta` attaches the
    estimate at a non-finite ratio."""

    record = None
    estimate = None


class NoValidPairs(HypothesisViolated):
    """Every sampled pair had a zero denominator, so eta has no estimate."""


# the settings `audit_run` imposes: every history row and iterate, and the
# update the decrease bounds cover (the Frobenius-normalized one only)
AUDITED = dict(record_history=True, keep_iterates=True, block_norm="frobenius")
# the largest finite-difference deviation `check_gradients` may report
GRADIENT_TOL = 1e-5
GRADIENT_TRIALS = 20        # the `check_gradients` trials of `bkz diagnose`


@dataclass
class EtaEstimate:
    """eta, the number of valid (pair, row) samples, and the first sample
    attaining eta: an index into the sampled pairs and a row of F."""

    eta: float
    sample_count: int
    pair: int
    row: int


def estimate_eta(system, pairs, X, F):
    """Max over sampled pairs and rows of

        |F_i(x1) - F_i(x2) - <grad F_i(x1), x1 - x2>| / |F_i(x1) - F_i(x2)|.

    Each row (i1, i2) of the (P, 2) int array `pairs` indexes rows of the
    point stack X, whose residuals are the rows of F.  Rows with zero (or
    NaN) denominator are skipped; raises NoValidPairs if none survive, and
    HypothesisViolated if a surviving ratio is NaN or infinite.  The
    numerators are one `system.remainders(X, pairs)`.  A quadratic system
    gives them as forms, without evaluating F or a Jacobian and without
    the cancellation of F_i(x1) - F_i(x2) against the linear term; the
    base class evaluates F once at each row a pair uses and the Jacobian
    once at each distinct i1.
    """
    num = np.abs(system.remainders(X, pairs))
    den = np.abs(F[pairs[:, 0]] - F[pairs[:, 1]])
    valid = den > 0.0
    count = int(valid.sum())
    if count == 0:
        raise NoValidPairs("eta could not be estimated: no sampled pair had "
                           "a nonzero denominator")
    ratios = np.divide(num, den, out=num, where=valid)
    ratios[~valid] = -np.inf
    bad = np.argwhere(valid & ~np.isfinite(ratios))
    if bad.size:
        pair, row = (int(k) for k in bad[0])
        exc = HypothesisViolated(f"eta is not finite: the ratio of pair {pair}, "
                                 f"row {row} is {ratios[pair, row]}")
        exc.estimate = EtaEstimate(float(ratios[pair, row]), count, pair, row)
        raise exc
    pair, row = (int(k) for k in np.unravel_index(ratios.argmax(), ratios.shape))
    return EtaEstimate(eta=float(ratios[pair, row]), sample_count=count,
                       pair=pair, row=row)


def trajectory_pairs(record, truth=None):
    """Sample pairs for eta estimation from the iterates a run kept, as rows
    (i1, i2) of the stack primals + [truth]: the consecutive (k, k+1),
    then every (k, T+1), the truth, when a truth is given.

    The (x_k, truth) pairs are exactly the ones the per-step decrease
    bound relies on, so an estimate over them makes the audit
    self-consistent.
    """
    if record.primals is None:
        raise ValueError("run was recorded without keep_iterates")
    k = np.arange(len(record.primals))
    pairs = [np.column_stack((k[:-1], k[1:]))]
    if truth is not None:
        pairs.append(np.column_stack((k, np.full_like(k, len(k)))))
    return np.concatenate(pairs)


def pair_label(record, pair):
    """The pair of `trajectory_pairs(record, truth)` at an index, as text:
    (x_k, x_k+1) or (x_k, truth)."""
    steps = len(record.primals) - 1
    if pair < steps:
        return f"(x_{pair}, x_{pair + 1})"
    return f"(x_{pair - steps}, truth)"


def check_gradients(system, trials, rng):
    """Max relative deviation between analytic and central finite-difference
    gradient rows over random (i, x); a non-finite deviation is returned
    as such.  F_i is evaluated at all 2n points x +- h e_j in one call."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = system.n
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(system.m))
        x = rng.standard_normal(n)
        g = system.grad_component(i, x)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        hI = h * np.eye(n)
        f = system.eval_points(i, np.vstack((x + hI, x - hI)))
        fd = (f[:n] - f[n:]) / (2.0 * h)
        dev = np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd))
        worst = np.maximum(worst, dev)      # max() would drop a NaN
    return float(worst)


AUDIT_HEADER = ["k", "d_k", "d_k1", "bound_factor", "satisfied"]


@dataclass
class ContractionAudit:
    rows: list                          # tuples matching AUDIT_HEADER
    fraction_satisfied: float

    @property
    def all_satisfied(self):
        return self.fraction_satisfied == 1.0

    def to_csv(self, path):
        slv.write_csv(path, AUDIT_HEADER, self.rows)


def block_jacobians(record, system):
    """Jacobian rows of each recorded step's block at the kept iterate it
    started from, built one step at a time as the caller iterates."""
    if record.primals is None:
        raise ValueError("run was recorded without keep_iterates")
    return (system.grad_block(block, x)
            for x, block in zip(record.primals, record.blocks))


def contraction_audit(record, eta, config, per_block_jacobians):
    """Check the per-iteration geometric decrease of the Bregman distance.

    For constant stepsize alpha the factor is

        1 - (2(1-eta)alpha - alpha^2) sigma / (M (1+eta)^2 kappa_F^2),

    with kappa_F = ||J||_F / sigma_min(J) of the block Jacobian and the
    moduli sigma and M of `SparsePrior`; the adaptive bound uses delta and
    the spectral ratio sigma_max/sigma_min.
    The (1+eta)^2 term follows the proof of the NBK bound (Gower, Lorenz &
    Winkler, 2023).  A step passes with an absolute slack of 1e-12, so
    distances at rounding level near convergence are not flagged.
    """
    if not eta < 0.5:           # a NaN eta is refused too
        raise HypothesisViolated(f"eta = {eta:.4g} is not below 1/2")
    if isinstance(config.stepsize, sel.Constant):
        step = config.stepsize.alpha
        if not 1.0 <= step < 2.0 * (1.0 - eta):
            raise HypothesisViolated(
                f"alpha = {step} outside [1, {2 * (1 - eta):.4g})")
    elif isinstance(config.stepsize, sel.Adaptive):
        step = config.stepsize.delta
        if not 0.0 < step < 2.0 * (1.0 - eta):
            raise HypothesisViolated(
                f"delta = {step} outside (0, {2 * (1 - eta):.4g})")
    else:
        raise TypeError(f"not a stepsize policy: {config.stepsize!r}")

    eta_term = (1.0 + eta) ** 2
    gain = (2.0 * (1.0 - eta) * step - step ** 2) * SparsePrior.sigma
    breg = record.column("bregman")
    rows = []
    satisfied = 0
    for k, jac in enumerate(per_block_jacobians):
        # an SVD, not the Gram eigenvalues of the step: sigma_min from a
        # Gram matrix is resolved only to about 1e-8 sigma_max, and the
        # cut-off below is 1e-12
        svals = np.linalg.svd(jac, compute_uv=False)
        smin = svals[svals > 1e-12 * svals[0]].min()
        if isinstance(config.stepsize, sel.Constant):
            kappa_sq = (svals ** 2).sum() / smin ** 2     # Frobenius over min
        else:
            kappa_sq = svals[0] ** 2 / smin ** 2          # spectral ratio
        factor = 1.0 - gain / (SparsePrior.smooth_modulus * eta_term * kappa_sq)
        ok = breg[k + 1] <= factor * breg[k] + 1e-12
        satisfied += int(ok)
        rows.append((k, float(breg[k]), float(breg[k + 1]), float(factor), ok))
    frac = satisfied / len(rows) if rows else 1.0
    return ContractionAudit(rows=rows, fraction_satisfied=frac)


def audit_run(instance, prior, config, x0_star):
    """Run with the AUDITED settings, estimate eta along the trajectory
    and audit the contraction.  F is evaluated again only at the truth:
    the audit reads the iterates and residuals the run kept.  Block
    Jacobians are built only once the hypotheses hold."""
    config = replace(config, **AUDITED)
    record = slv.run(instance.system, prior, config, x0_star,
                     truth=instance.truth)
    pairs = trajectory_pairs(record, truth=instance.truth)
    X = np.vstack(record.primals + [instance.truth])
    F = np.vstack(record.residuals + [instance.system.eval_all(instance.truth)])
    est = None
    try:
        est = estimate_eta(instance.system, pairs, X, F)
        jacs = block_jacobians(record, instance.system)
        audit = contraction_audit(record, est.eta, config, jacs)
    except HypothesisViolated as exc:
        exc.record = record
        if est is not None:
            exc.estimate = est
        raise
    return record, est, audit
