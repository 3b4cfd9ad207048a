"""Nonlinear systems F(x) = 0 with component-wise access.

A system exposes m scalar equations F_i and their gradient rows.  The
quadratic measurement model F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i is
the workhorse of the experiments (one dense tensor, residuals in m*|S|*n
on the support S of x); a matrix-free variant backs the partial-cosine
family when materializing the full tensor is too large.
All systems are read-only after construction.
"""

from __future__ import annotations

import numpy as np


class NonlinearSystem:
    """m differentiable equations in n unknowns."""

    m: int
    n: int

    def eval_component(self, i, x):
        """F_i(x)."""
        raise NotImplementedError

    def grad_component(self, i, x):
        """The gradient row of F_i at x, length n."""
        raise NotImplementedError

    def eval_all(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([self.eval_component(i, x) for i in range(self.m)])

    def grad_block(self, idx, x):
        """Rows of the Jacobian for the given indices, shape (|idx|, n)."""
        x = np.asarray(x, dtype=float)
        return np.array([self.grad_component(i, x) for i in idx])

    def jacobian(self, x):
        return self.grad_block(np.arange(self.m), x)

    def _check_index(self, i):
        if not 0 <= i < self.m:
            raise IndexError(f"component index {i} out of range [0, {self.m})")


class QuadraticSystem(NonlinearSystem):
    """F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i with dense storage.

    A_i may be non-symmetric and is stored once, as given.  Gradient
    rows 0.5 (A_i + A_i^T) x + b_i come from the contiguous slab A_i;
    `eval_all` touches only the support S of x, at cost m*|S|*n.
    """

    def __init__(self, A, b, c):
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        m, n, n2 = A.shape
        if n != n2:
            raise ValueError(f"A must be (m, n, n), got {A.shape}")
        if b.shape != (m, n) or c.shape != (m,):
            raise ValueError(
                f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
        self.A = A
        self.b = b
        self.c = c
        self.m = m
        self.n = n

    def eval_component(self, i, x):
        self._check_index(i)
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (self.A[i] @ x)) + float(self.b[i] @ x) + float(self.c[i])

    def grad_component(self, i, x):
        self._check_index(i)
        x = np.asarray(x, dtype=float)
        return 0.5 * (self.A[i] @ x + x @ self.A[i]) + self.b[i]

    def eval_all(self, x):
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        u = np.empty((self.m, S.size))
        for s, j in enumerate(S):
            u[:, s] = self.A[:, j, :] @ x    # (A_i x)_j for every row i
        return 0.5 * (u * x[S]).sum(axis=1) + self.b @ x + self.c


class DCTQuadraticSystem(NonlinearSystem):
    """Matrix-free partial-cosine quadratics.

    Column j of A_i is cos(2*pi*j*xi_i) elementwise (j = 0..n-1), so only
    the frequency vectors xi_i need to be stored.  Rows are rebuilt on
    demand; prefer `to_dense()` whenever m*n^2 doubles fit in memory.
    """

    def __init__(self, xi, b, c):
        xi = np.asarray(xi, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        m, n = xi.shape
        if b.shape != (m, n) or c.shape != (m,):
            raise ValueError(
                f"shape mismatch: xi {xi.shape}, b {b.shape}, c {c.shape}")
        self.xi = xi
        self.b = b
        self.c = c
        self.m = m
        self.n = n

    def matrix(self, i):
        """Materialize A_i, shape (n, n)."""
        self._check_index(i)
        j = np.arange(self.n)
        return np.cos(2.0 * np.pi * self.xi[i][:, None] * j[None, :])

    def eval_component(self, i, x):
        x = np.asarray(x, dtype=float)
        Ai = self.matrix(i)
        return 0.5 * float(x @ (Ai @ x)) + float(self.b[i] @ x) + float(self.c[i])

    def grad_component(self, i, x):
        x = np.asarray(x, dtype=float)
        Ai = self.matrix(i)
        return 0.5 * (Ai @ x + Ai.T @ x) + self.b[i]

    def to_dense(self):
        A = np.stack([self.matrix(i) for i in range(self.m)])
        return QuadraticSystem(A, self.b, self.c)
