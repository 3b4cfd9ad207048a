"""The averaging block Bregman-Kaczmarz iteration engine.

One engine drives every method in the experiments; the baselines are just
configurations:

    NBK      single row by residual probability, constant stepsize 1
    MRNBK    single maximal-residual row, constant stepsize 1
    ABNBK-c  greedy block, gradient-norm weights, constant stepsize
    ABNBK-a  greedy block, gradient-norm weights, adaptive stepsize
"""

from __future__ import annotations

import csv
import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import selection as sel

log = logging.getLogger(__name__)

CSV_HEADER = ["k", "rel_res_sq", "sol_err", "bregman", "block_size",
              "alpha_k", "elapsed_ns"]

CONVERGED = "converged"
MAX_ITERS = "max_iters"
DEGENERATE = "degenerate"


class ZeroTruth(Exception):
    """Relative solution error is undefined for a zero ground truth."""


def solution_error(x, truth):
    """Relative Euclidean error ||x - truth|| / ||truth||."""
    x = np.asarray(x, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if x.shape != truth.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {truth.shape}")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise ZeroTruth("ground truth is the zero vector")
    return float(np.linalg.norm(x - truth) / denom)


@dataclass
class SolverConfig:
    selection: object = field(default_factory=lambda: sel.GreedyBlock(0.1))
    stepsize: object = field(default_factory=lambda: sel.Constant(1.0))
    max_iters: int = 1000
    tol: float = 1e-6           # on the squared relative residual
    seed: int = 0
    record_history: bool = True
    keep_iterates: bool = False  # retain dual iterates and blocks for audits
    # Normalization of the collapsed constant-stepsize block update.
    # "frobenius" is the literal averaged form of the dual update;
    # "spectral" divides by sigma_max^2 of the block Jacobian instead,
    # the largest eigenvalue of its smaller Gram matrix, which takes much
    # larger steps on wide blocks and is what the reported
    # constant-stepsize iteration counts correspond to.
    # The adaptive stepsize is invariant to this choice and ignores it.
    block_norm: str = "frobenius"

    def __post_init__(self):
        if self.block_norm not in ("frobenius", "spectral"):
            raise ValueError(
                f"block_norm must be 'frobenius' or 'spectral', got {self.block_norm!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.stepsize, sel.Constant) and self.stepsize.alpha < 1.0:
            warnings.warn(
                f"constant stepsize {self.stepsize.alpha} is below the "
                "theoretical range [1, 2(1-eta))", stacklevel=2)
        if isinstance(self.stepsize, sel.Adaptive) and self.stepsize.delta < 1.0:
            warnings.warn(
                f"adaptive delta {self.stepsize.delta} is below the stated "
                "range [1, 2)", stacklevel=2)


def write_csv(path, header, rows):
    """Write one header line and then the rows to the CSV file at path."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@dataclass
class RunRecord:
    status: str
    iterations: int
    rows: list                  # tuples matching CSV_HEADER
    message: str = ""
    duals: list | None = None   # dual iterates, when keep_iterates
    blocks: list | None = None  # index set of the step k -> k+1
    primals: list | None = None     # the mirror image of each dual
    residuals: list | None = None   # F at each primal
    final_dual: np.ndarray | None = None
    final_primal: np.ndarray | None = None

    def column(self, name):
        j = CSV_HEADER.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv(self, path):
        write_csv(path, CSV_HEADER + ["status"],
                  ((*row, self.status) for row in self.rows))


def abnbk_step(dual, primal, F, system, prior, config, rng, k):
    """One step of the block iteration from the dual iterate `dual`, its
    mirror image `primal` and the residual F = F(primal), at step `k`;
    returns the next (dual, primal, F), the block and alpha.

    Precondition: F.dot(F) is finite and positive, so that some rounded
    square F_i F_i is too.  Rows with vanishing gradient are dropped from
    the block before weighting; a DegenerateDirection from the adaptive
    stepsize falls back to alpha = 1 and is logged.  A spectral block
    with a constant stepsize takes sigma_max^2 of its gradient rows G as
    the largest eigenvalue of the smaller Gram matrix, G G^T for at most
    n rows and G^T G otherwise, not from an SVD of G.
    """
    block = sel.select_indices(config.selection, F, rng)
    grads = system.grad_block(block, primal)
    norms_sq = np.einsum("ij,ij->i", grads, grads)
    usable = norms_sq > sel.GRAD_NORM_FLOOR ** 2
    block, grads, norms_sq = block[usable], grads[usable], norms_sq[usable]
    if len(block) == 0:
        raise sel.ZeroGradientRow("every selected row has a zero gradient")
    fvals = F[block]

    weights = sel.weights_for(norms_sq)
    if isinstance(config.stepsize, sel.Constant):
        alpha = config.stepsize.alpha
    else:
        try:
            alpha = sel.adaptive_stepsize(fvals, grads, norms_sq, weights,
                                          config.stepsize.delta)
        except sel.DegenerateDirection as exc:
            log.warning("adaptive stepsize degenerate at k=%d (%s); using alpha=1",
                        k, exc)
            alpha = 1.0

    direction = sel.effective_direction(fvals, grads, norms_sq, weights,
                                        prior.sigma)
    if (config.block_norm == "spectral" and len(block) > 1
            and isinstance(config.stepsize, sel.Constant)):
        gram = grads @ grads.T if len(block) <= system.n else grads.T @ grads
        smax_sq = np.linalg.eigvalsh(gram)[-1]
        direction = direction * (norms_sq.sum() / smax_sq)
    dual = dual - alpha * direction
    primal = prior.conj_grad(dual)
    return dual, primal, system.eval_all(primal), block, float(alpha)


def run(system, prior, config, x0_star, truth=None):
    """Iterate until the squared relative residual drops below tol.

    Ground-truth columns (solution error, Bregman distance) are populated
    only when `truth` is given, and only for the rows kept: without
    history they are computed once, for the last row.  Identical (config,
    x0_star, instance) inputs reproduce the record bit-exactly apart from
    timings, at one BLAS thread count: with another, the block products
    may round differently in their last bits.
    """
    dual = np.array(x0_star, dtype=float)
    if dual.shape != (system.n,):
        raise ValueError(f"x0_star must have length {system.n}, got {dual.shape}")
    rng = np.random.default_rng(config.seed)
    primal = prior.conj_grad(dual)
    F = system.eval_all(primal)
    res0_sq = float(F.dot(F))
    duals = [dual] if config.keep_iterates else None
    blocks = [] if config.keep_iterates else None
    primals = [primal] if config.keep_iterates else None
    residuals = [F] if config.keep_iterates else None

    def history_row(k, res_sq, block_size, alpha, elapsed_ns, dual, primal):
        # the truth columns are those of the step's (dual, primal)
        rel = res_sq / res0_sq if res0_sq > 0 else 0.0
        if truth is None:
            err = breg = float("nan")
        else:
            err = solution_error(primal, truth)
            breg = prior.bregman_distance(dual, truth)
        return (k, rel, err, breg, block_size, alpha, elapsed_ns)

    last = (0, res0_sq, 0, 0.0, 0, dual, primal)    # the last recorded step
    rows = [history_row(*last)] if config.record_history else []
    k = 0
    status = MAX_ITERS
    message = ""
    if not math.isfinite(res0_sq):
        status = DEGENERATE
        message = "non-finite residual at the start"
    elif res0_sq == 0.0:
        status = CONVERGED

    while status == MAX_ITERS and k < config.max_iters:
        t0 = time.perf_counter_ns()
        try:
            dual, primal, F, block, alpha = abnbk_step(
                dual, primal, F, system, prior, config, rng, k)
        except sel.ZeroGradientRow as exc:
            status = DEGENERATE
            message = str(exc)
            break
        elapsed = time.perf_counter_ns() - t0
        k += 1
        res_sq = float(F.dot(F))
        if not math.isfinite(res_sq):
            status = DEGENERATE
            message = f"non-finite residual at k={k}"
            break
        if config.keep_iterates:
            duals.append(dual)
            blocks.append(block)
            primals.append(primal)
            residuals.append(F)
        last = (k, res_sq, len(block), alpha, elapsed, dual, primal)
        if config.record_history:
            rows.append(history_row(*last))
        if res_sq / res0_sq <= config.tol:
            status = CONVERGED
            break

    if not config.record_history:
        rows = [history_row(*last)]     # only the row of the last recorded step
    return RunRecord(status, k, rows, message=message, duals=duals,
                     blocks=blocks, primals=primals, residuals=residuals,
                     final_dual=dual, final_primal=primal)
