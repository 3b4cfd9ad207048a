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
    # which takes much larger steps on wide blocks and is what the
    # reported constant-stepsize iteration counts correspond to.
    # The adaptive stepsize is invariant to this choice and ignores it.
    block_norm: str = "frobenius"

    def __post_init__(self):
        if self.block_norm not in ("frobenius", "spectral"):
            raise ValueError(
                f"block_norm must be 'frobenius' or 'spectral', got {self.block_norm!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if isinstance(self.stepsize, sel.Constant) and self.stepsize.alpha < 1.0:
            warnings.warn(
                f"constant stepsize {self.stepsize.alpha} is below the "
                "theoretical range [1, 2(1-eta))", stacklevel=2)
        if isinstance(self.stepsize, sel.Adaptive) and self.stepsize.delta < 1.0:
            warnings.warn(
                f"adaptive delta {self.stepsize.delta} is below the stated "
                "range [1, 2)", stacklevel=2)


@dataclass
class IterationState:
    k: int
    dual: np.ndarray
    primal: np.ndarray
    residual: np.ndarray
    res0_sq: float
    # bookkeeping of the step that produced this state
    block_size: int = 0
    alpha_used: float = 0.0
    block: np.ndarray | None = None

    @property
    def res_sq(self):
        return float(self.residual @ self.residual)


@dataclass
class RunRecord:
    status: str
    iterations: int
    rows: list                  # tuples matching CSV_HEADER
    message: str = ""
    duals: list | None = None   # dual iterates, when keep_iterates
    blocks: list | None = None  # index set of the step k -> k+1
    final_dual: np.ndarray | None = None
    final_primal: np.ndarray | None = None

    @property
    def terminal_row(self):
        return self.rows[-1]

    def column(self, name):
        j = CSV_HEADER.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER + ["status"])
            for row in self.rows:
                w.writerow(list(row) + [self.status])


def initial_state(system, prior, x0_star):
    x0_star = np.asarray(x0_star, dtype=float)
    if x0_star.shape != (system.n,):
        raise ValueError(f"x0_star must have length {system.n}, got {x0_star.shape}")
    dual = x0_star.copy()
    primal = prior.conj_grad(dual)
    F = system.eval_all(primal)
    return IterationState(k=0, dual=dual, primal=primal, residual=-F,
                          res0_sq=float(F @ F))


def abnbk_step(state, system, prior, config, rng):
    """One dual update per the block iteration; returns the next state.

    Precondition: the current residual is nonzero.  Rows with vanishing
    gradient are dropped from the block before weighting; a
    DegenerateDirection from the adaptive stepsize falls back to
    alpha = 1 and is logged.
    """
    r = state.residual
    block = sel.select_indices(config.selection, r, rng)
    grads = system.grad_block(block, state.primal)
    norms_sq = np.einsum("ij,ij->i", grads, grads)
    usable = norms_sq > sel.GRAD_NORM_FLOOR ** 2
    if not np.all(usable):
        block = block[usable]
        grads = grads[usable]
        norms_sq = norms_sq[usable]
        if len(block) == 0:
            raise sel.ZeroGradientRow("every selected row has a zero gradient")
    fvals = -r[block]

    weights = sel.weights_for(norms_sq)
    if isinstance(config.stepsize, sel.Constant):
        alpha = config.stepsize.alpha
    else:
        try:
            alpha = sel.adaptive_stepsize(fvals, grads, norms_sq, weights,
                                          config.stepsize.delta)
        except sel.DegenerateDirection as exc:
            log.warning("adaptive stepsize degenerate at k=%d (%s); using alpha=1",
                        state.k, exc)
            alpha = 1.0

    direction = sel.effective_direction(fvals, grads, norms_sq, weights,
                                        prior.sigma)
    if (config.block_norm == "spectral" and len(block) > 1
            and isinstance(config.stepsize, sel.Constant)):
        smax_sq = np.linalg.norm(grads, 2) ** 2
        direction = direction * (norms_sq.sum() / smax_sq)
    dual = state.dual - alpha * direction
    primal = prior.conj_grad(dual)
    F = system.eval_all(primal)
    return IterationState(k=state.k + 1, dual=dual, primal=primal, residual=-F,
                          res0_sq=state.res0_sq, block_size=len(block),
                          alpha_used=float(alpha), block=block)


def run(system, prior, config, x0_star, truth=None):
    """Iterate until the squared relative residual drops below tol.

    Ground-truth columns (solution error, Bregman distance) are populated
    only when `truth` is given.  Identical (config, x0_star, instance)
    inputs reproduce the record bit-exactly apart from timings.
    """
    rng = np.random.default_rng(config.seed)
    state = initial_state(system, prior, x0_star)
    duals = [state.dual.copy()] if config.keep_iterates else None
    blocks = [] if config.keep_iterates else None

    def history_row(st, elapsed_ns):
        rel = st.res_sq / st.res0_sq if st.res0_sq > 0 else 0.0
        if truth is not None:
            err = solution_error(st.primal, truth)
            breg = prior.bregman_distance(st.dual, truth)
        else:
            err = float("nan")
            breg = float("nan")
        return (st.k, rel, err, breg, st.block_size, st.alpha_used, elapsed_ns)

    # without history only the row of the last recorded state is built
    recorded, recorded_ns = state, 0
    rows = [history_row(state, 0)] if config.record_history else []
    status = MAX_ITERS
    message = ""
    if not np.isfinite(state.res0_sq):
        status = DEGENERATE
        message = "non-finite residual at the start"
    elif state.res0_sq == 0.0:
        status = CONVERGED

    while status == MAX_ITERS and state.k < config.max_iters:
        t0 = time.perf_counter_ns()
        try:
            state = abnbk_step(state, system, prior, config, rng)
        except (sel.ZeroGradientRow, sel.AllResidualsZero) as exc:
            status = DEGENERATE
            message = str(exc)
            break
        elapsed = time.perf_counter_ns() - t0
        if not np.isfinite(state.res_sq):
            status = DEGENERATE
            message = f"non-finite residual at k={state.k}"
            break
        if config.keep_iterates:
            duals.append(state.dual.copy())
            blocks.append(state.block)
        recorded, recorded_ns = state, elapsed
        if config.record_history:
            rows.append(history_row(state, elapsed))
        if state.res_sq / state.res0_sq <= config.tol:
            status = CONVERGED
            break

    if not config.record_history:
        rows = [history_row(recorded, recorded_ns)]
    return RunRecord(status, state.k, rows, message=message, duals=duals,
                     blocks=blocks, final_dual=state.dual,
                     final_primal=state.primal)
