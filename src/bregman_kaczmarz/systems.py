"""Nonlinear systems F(x) = 0 with component-wise access.

A system exposes m scalar equations F_i and their gradient rows.  The
quadratic measurement model F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i is
the workhorse of the experiments (one dense tensor, residuals in m*|S|*n
on the support S of x); a matrix-free variant backs the partial-cosine
family and computes only the cosines that meet the support.  Both give the
Jacobian-vector product J(x) d without forming J(x).  `eval_points` (F_i
at many points) and `grad_block` (many gradient rows at one point) loop
`eval_component` and `grad_component` unless a system overrides them, as
both built-in ones do.  All systems are read-only after construction.
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
        """Gradient row of F_i at x, length n; implement this or grad_block."""
        return self.grad_block([i], x)[0]

    def eval_all(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([self.eval_component(i, x) for i in range(self.m)])

    def eval_points(self, i, X):
        """F_i at each row of X, length len(X)."""
        return np.array([self.eval_component(i, x)
                         for x in np.asarray(X, dtype=float)])

    def grad_block(self, idx, x):
        """Rows of the Jacobian for the given indices, shape (|idx|, n)."""
        idx = self._rows(idx)
        x = np.asarray(x, dtype=float)
        rows = np.array([self.grad_component(i, x) for i in idx.tolist()])
        return rows.reshape(idx.size, self.n)

    def jacobian(self, x):
        return self.grad_block(np.arange(self.m), x)

    def jvp(self, x, d):
        """The Jacobian-vector product J(x) d, length m."""
        return self.jacobian(x) @ np.asarray(d, dtype=float)

    def _check_index(self, i):
        if not 0 <= i < self.m:
            raise IndexError(f"component index {i} out of range [0, {self.m})")

    def _rows(self, idx):
        """idx as an int array, every entry checked against [0, m); a float
        or boolean block is refused, not truncated or read as a mask."""
        idx = np.asarray(idx)
        if idx.size:
            if idx.dtype.kind not in "iu":
                raise IndexError(f"block indices must be integers, not {idx.dtype}")
            self._check_index(idx.min())
            self._check_index(idx.max())
        return idx.astype(int, copy=False)


def _quadratic_points(A, b, c, X):
    """0.5 <x, A x> + <b, x> + c at each row x of X, by one product X A^T."""
    X = np.asarray(X, dtype=float)
    return 0.5 * ((X @ A.T) * X).sum(axis=1) + X @ b + c


class QuadraticSystem(NonlinearSystem):
    """F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i with dense storage.

    A_i may be non-symmetric and is stored once, as given.  Gradient
    rows 0.5 (A_i + A_i^T) x + b_i come from the contiguous slab A_i;
    `eval_all` touches only the support S of x, at cost m*|S|*n, and
    `jvp` only the union U of the supports of x and d, at cost 2m*|U|*n.
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
        return float(self.eval_points(i, [x])[0])

    def eval_points(self, i, X):
        self._check_index(i)
        return _quadratic_points(self.A[i], self.b[i], self.c[i], X)

    def grad_block(self, idx, x):
        # slab by slab: gathering A[idx] copies |idx| n x n matrices first
        idx = self._rows(idx)
        x = np.asarray(x, dtype=float)
        rows = np.array([self.A[i] @ x + x @ self.A[i] for i in idx.tolist()])
        return 0.5 * rows.reshape(idx.size, self.n) + self.b[idx]

    def eval_all(self, x):
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        u = np.empty((self.m, S.size))
        for s, j in enumerate(S):
            u[:, s] = self.A[:, j, :] @ x    # (A_i x)_j for every row i
        return 0.5 * (u * x[S]).sum(axis=1) + self.b @ x + self.c

    def jvp(self, x, d):
        """J(x) d: row i is 0.5 (<x, A_i d> + <d, A_i x>) + <b_i, d>, where
        only the entries j of A_i d and A_i x with x_j or d_j nonzero count.
        """
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        U = np.flatnonzero((x != 0.0) | (d != 0.0))
        dx = np.column_stack((d, x))
        w = np.empty((self.m, U.size, 2))
        for s, j in enumerate(U):
            w[:, s] = self.A[:, j, :] @ dx   # (A_i d)_j, (A_i x)_j for every row i
        return 0.5 * (w[:, :, 0] @ x[U] + w[:, :, 1] @ d[U]) + self.b @ d


class DCTQuadraticSystem(NonlinearSystem):
    """Matrix-free partial-cosine quadratics.

    Column j of A_i is cos(2*pi*j*xi_i) elementwise (j = 0..n-1), so only
    the frequency vectors xi_i need to be stored.  Entries are computed on
    demand and only where they meet the support S of x: m*|S|^2 cosines
    per residual vector, 2*n*|S| - |S|^2 per gradient row and
    2*|S|*|S(d)| per row of J(x) d, against n^2 per row for a materialized
    A_i.  Nothing is cached between calls.
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

    @staticmethod
    def _cosines(xi, cols):
        """cos(2*pi*xi_k*j) for every entry xi_k of xi and every column j in
        cols, shape xi.shape + (len(cols),): the entries A_i[k, j] for the
        rows k of xi = xi_i."""
        # einsum, not a broadcast multiply: that one allocates two 64 KiB
        # iterator buffers per call
        out = np.einsum("...k,j->...kj", 2.0 * np.pi * xi,
                        np.asarray(cols, dtype=float), order="C")
        return np.cos(out, out=out)

    def _values(self, rows, x):
        """F_i(x) for the rows of an index array."""
        S = np.flatnonzero(x)
        xS = x[S]
        C = self._cosines(self.xi[:, S][rows], S)      # A_i[S, S]
        return 0.5 * (C @ xS * xS).sum(axis=1) + self.b[rows] @ x + self.c[rows]

    def _gradients(self, rows, x):
        """Gradient rows 0.5 (A_i x + A_i^T x) + b_i for an index array.

        A_i x needs the support columns A_i[:, S]; A_i^T x needs the support
        rows A_i[S, :], whose block A_i[S, S] is read from the columns.
        """
        S = np.flatnonzero(x)
        xS = x[S]
        xi = self.xi[rows]
        cols = self._cosines(xi, S)                    # A_i[:, S]
        Ax = cols @ xS
        Atx = np.empty_like(xi)
        Atx[:, S] = x @ cols                           # x is zero off S
        del cols                        # freed before the second block
        Sc = np.flatnonzero(x == 0.0)
        Atx[:, Sc] = xS @ self._cosines(xi[:, S], Sc)  # A_i[S, S^c]
        return 0.5 * (Ax + Atx) + self.b[rows]

    def matrix(self, i):
        """Materialize A_i, shape (n, n)."""
        self._check_index(i)
        return self._cosines(self.xi[i], np.arange(self.n))

    def eval_component(self, i, x):
        """F_i(x); for an index array i, the array of F_i(x) over its
        entries in one vectorized call (eval_all passes every row)."""
        x = np.asarray(x, dtype=float)
        if np.ndim(i) == 0:
            self._check_index(i)
            return float(self._values([i], x)[0])
        return self._values(self._rows(i), x)

    def eval_points(self, i, X):
        """F_i at each row of X from A_i, built once (n^2 cosines)."""
        return _quadratic_points(self.matrix(i), self.b[i], self.c[i], X)

    def eval_all(self, x):
        return self.eval_component(np.arange(self.m), x)

    def grad_block(self, idx, x):
        return self._gradients(self._rows(idx), np.asarray(x, dtype=float))

    def jvp(self, x, d):
        """J(x) d from the cosines A_i[S, S(d)] and A_i[S(d), S] alone,
        one block of them alive at a time."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        Sx, Sd = np.flatnonzero(x), np.flatnonzero(d)
        xS, dS = x[Sx], d[Sd]
        xAd = self._cosines(self.xi[:, Sx], Sd) @ dS @ xS   # <x, A_i d>
        dAx = self._cosines(self.xi[:, Sd], Sx) @ xS @ dS   # <d, A_i x>
        return 0.5 * (xAd + dAx) + self.b @ d

    def to_dense(self):
        A = self._cosines(self.xi, np.arange(self.n))
        return QuadraticSystem(A, self.b, self.c)
