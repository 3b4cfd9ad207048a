"""Convex generating functions, their conjugates and mirror maps.

The solver works in dual coordinates: the dual iterate x* is updated
additively and the primal iterate is always the mirror image
x = grad_conjugate(x*).  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np


def soft_shrink(v, lam):
    """Componentwise soft shrinkage max(|v| - lam, 0) * sign(v).

    sign(0) = 0, so the result is continuous and vanishes at 0.
    """
    if lam < 0:
        raise ValueError(f"shrinkage threshold must be >= 0, got {lam}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


class SparsePrior:
    """phi(x) = lam * ||x||_1 + 0.5 * ||x||_2^2, the sparsity-inducing choice.

    Its conjugate is phi*(x*) = 0.5 * ||S_lam(x*)||^2 and the mirror map is
    the soft shrinkage operator itself.  `sigma` is the strong-convexity
    modulus with respect to the Euclidean norm and is consumed by the
    solver; `smooth_modulus` (M) of the smooth quadratic part is only used
    by diagnostics.
    """

    sigma = 1.0
    smooth_modulus = 1.0

    def __init__(self, lam):
        if not 0 <= lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        self.lam = float(lam)

    def __repr__(self):
        return f"SparsePrior(lam={self.lam})"

    def value(self, x):
        """phi(x)."""
        x = np.asarray(x, dtype=float)
        return self.lam * np.abs(x).sum() + 0.5 * float(x @ x)

    def conj_value(self, xstar):
        """phi*(x*)."""
        s = soft_shrink(xstar, self.lam)
        return 0.5 * float(s @ s)

    def conj_grad(self, xstar):
        """The mirror point grad phi*(x*)."""
        return soft_shrink(xstar, self.lam)

    def bregman_distance(self, xstar, y):
        """D_phi^{x*}(x, y) = phi*(x*) - <x*, y> + phi(y).

        Nonnegative, and >= (sigma/2) * ||grad phi*(x*) - y||^2.
        """
        xstar = np.asarray(xstar, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.conj_value(xstar) - float(xstar @ y) + self.value(y)
