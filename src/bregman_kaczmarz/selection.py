"""Row selection rules, averaging weights and stepsize policies.

These parameterize one iteration of the block dual update

    x*_{k+1} = x*_k - alpha_k * sum_{i in I_k} w_i * sigma F_i(x_k)
                                / ||grad F_i(x_k)||^2 * grad F_i(x_k).

All functions are pure; any randomness comes from an explicit numpy
Generator passed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAD_NORM_FLOOR = 1e-14      # rows with smaller gradient norm are unusable
DIRECTION_FLOOR = 1e-30      # adaptive-stepsize denominator underflow guard


class AllResidualsZero(Exception):
    """Selection requested at an exact root; the solver should have stopped."""


class DegenerateDirection(Exception):
    """Adaptive stepsize denominator underflowed with a nonzero numerator."""


class ZeroGradientRow(Exception):
    """All rows of the selected block were dropped for vanishing gradients."""


@dataclass(frozen=True)
class UniformRandom:
    """Single index, uniform over the m rows."""


@dataclass(frozen=True)
class ResidualProbability:
    """Single index sampled with probability |r_i|^2 / ||r||^2."""


@dataclass(frozen=True)
class MaxResidual:
    """Single index argmax |r_i|, lowest index on ties."""


@dataclass(frozen=True)
class GreedyBlock:
    """All indices with r_i^2 >= theta * max_j r_j^2."""

    theta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class Constant:
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"constant stepsize must be in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class Adaptive:
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 2.0:
            raise ValueError(f"adaptive delta must be in (0, 2), got {self.delta}")


def greedy_block(r, theta):
    """Indices whose squared residual reaches theta times the maximum.

    Returned ascending; always contains every argmax index.  Raises
    AllResidualsZero when ||r|| = 0.
    """
    r = np.asarray(r, dtype=float)
    sq = r * r
    mx = sq.max()
    if mx == 0.0:
        raise AllResidualsZero("all residual entries are zero")
    return np.flatnonzero(sq >= theta * mx)


def select_indices(rule, r, rng):
    """Dispatch a selection rule on the residual vector, smallest first."""
    r = np.asarray(r, dtype=float)
    if isinstance(rule, UniformRandom):
        return np.array([rng.integers(len(r))])
    if isinstance(rule, ResidualProbability):
        sq = r * r
        total = sq.sum()
        if total == 0.0:
            raise AllResidualsZero("all residual entries are zero")
        # inverse-CDF over the cumulative probabilities for reproducibility
        cdf = np.cumsum(sq / total)
        return np.array([min(int(np.searchsorted(cdf, rng.random(), side="right")),
                             len(r) - 1)])
    if isinstance(rule, MaxResidual):
        sq = r * r
        if sq.max() == 0.0:
            raise AllResidualsZero("all residual entries are zero")
        return np.array([int(np.argmax(sq))])    # argmax takes the lowest index
    if isinstance(rule, GreedyBlock):
        return greedy_block(r, rule.theta)
    raise TypeError(f"unknown selection rule: {rule!r}")


def weights_for(norms_sq):
    """Gradient-norm averaging weights w_i = ||grad F_i||^2 / ||J||_F^2.

    `norms_sq` holds the squared gradient norms of the block rows, all
    positive: the caller drops rows with vanishing gradient first.
    """
    return norms_sq / norms_sq.sum()


def adaptive_stepsize(fvals, grads, norms_sq, weights, delta):
    """Extrapolated stepsize

        alpha_k = delta * sum_i wh_i F_i^2 / ||sum_i wh_i F_i grad F_i||^2,

    with wh_i = w_i / ||grad F_i||^2.  Collapses to exactly delta on
    singleton blocks and to 0 when every F_i in the block vanishes.
    """
    wh = weights / norms_sq
    numer = float(np.sum(wh * fvals * fvals))
    if numer == 0.0:
        return 0.0
    d = (wh * fvals) @ grads
    denom = float(d @ d)
    if denom < DIRECTION_FLOOR:
        raise DegenerateDirection(
            f"stepsize denominator {denom:.3e} underflowed with numerator {numer:.3e}")
    return delta * numer / denom


def effective_direction(fvals, grads, norms_sq, weights, sigma):
    """The bracketed dual direction sum_i w_i sigma F_i / ||grad F_i||^2 grad F_i."""
    coeff = weights * sigma * fvals / norms_sq
    return coeff @ grads
