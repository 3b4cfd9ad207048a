"""Nonlinear systems F(x) = 0 with component-wise access.

A system exposes m scalar equations F_i and their gradient rows.  The
quadratic measurement model F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i is
the workhorse of the experiments.  F depends on A_i only through its
symmetric part, so the dense storage holds symmetric slabs (`symmetrize`
makes them): a gradient row reads the |S| support rows of its slab, S
the support of x.  The residuals are one product of the weights x_j x_k
with the entries A_i[j, k] of the pairs j <= k of S, which a dense system
holds from one residual to the next within a budget of n^2 // 12 pairs,
a twelfth of the tensor: the next residual moves the pairs its support
shares with the one held and gathers only the others.  Beyond the budget
the residuals read about half of the support rows of every slab, at cost
m*|S|*n/2, and leave the held pairs as they are.  A matrix-free variant
backs the partial-cosine family and computes only the cosines that meet
the support; it holds the support rows of its last gradient block,
within a bound, so that the next block computes only the rows it does
not share with it.  `eval_points` (F_i at many points) and `grad_block` (many
gradient rows at one point) loop `eval_component` and `grad_component`
unless a system overrides them, as both built-in ones do.  `jvp` takes
one pair (x, d) or stacks X, D of P pairs, shape (P, n), and gives
J(X_p) D_p for all of them in one call without forming J(x); the base
class goes pair by pair.  Both storages share one quadratic base, which
computes `eval_points` from a storage's A_i, `grad_block` from products
of x_S with the support rows of the symmetric slabs and `jvp` from rows
of those slabs, working through the pairs in chunks that share their
support work.  Both storages replace what they hold as they are
called, a dense system its pairs on a residual and a matrix-free one its
rows on a gradient block, so neither may be shared between threads; the
held values stay valid only while A, from the first residual on, or xi
does not change.
"""

from __future__ import annotations

import numpy as np

# the support rows or columns of the slabs one chunk of `grad_block`
# reads, counted in slabs: a block of them holds at most _GRAD_SLABS n^2
# doubles, gathered (dense) or computed (matrix-free)
_GRAD_SLABS = 4
# the support rows a matrix-free system holds from one gradient block to
# the next, counted in slabs: at most _HELD_SLABS n^2 doubles, a little
# above the largest block of the greedy presets on the cosine family
# (15.2 n^2 at (200, 100)); a larger block goes in chunks of _GRAD_SLABS
# and leaves the held rows as they are
_HELD_SLABS = 16
# the support pairs (j, k), j <= k, a dense system holds from one residual
# vector to the next: at most n^2 // _PAIR_SHARE pairs, m n^2 / 12
# doubles, a twelfth of the stored tensor (4.5 MB and |S| <= 60 at
# (300, 150)); a residual at a larger support reads the rows of A instead
_PAIR_SHARE = 12


def _positions(held, keys, size):
    """The position of each key in the int array held, -1 where held lacks
    it; keys and held lie in [0, size)."""
    where = np.full(size, -1)
    where[held] = np.arange(held.size)
    return where[keys]


def _move(buffer, src, dst, rows):
    """Copy row src[k] of buffer to row dst[k] for every k, in place, for
    increasing src and dst, at most `rows` rows at a time: first the rows
    that move to a lower position, in increasing order, then those that
    move to a higher one, in decreasing order, so that no row is
    overwritten before it has been copied."""
    lower = np.flatnonzero(dst < src)
    higher = np.flatnonzero(dst > src)[::-1]
    for moving in (lower, higher):
        for s in range(0, moving.size, rows):
            k = moving[s:s + rows]
            buffer[dst[k]] = buffer[src[k]]


def _move_runs(flat, src, dst, width):
    """Copy the `width` entries of the 1-D array flat from src[k] * width
    to dst[k] * width for every k, in place, for increasing src and dst.
    The k where both src and dst step by one make a run, copied as one
    slice; numpy copies an overlapping slice as if through a temporary,
    so a run may overlap its target.  First the runs that move to a lower
    position, in increasing order, then those that move to a higher one,
    in decreasing order, so that no run is overwritten before it has been
    copied."""
    if src.size == 0:
        return
    ends = np.flatnonzero((src[1:] != src[:-1] + 1)
                          | (dst[1:] != dst[:-1] + 1)) + 1
    starts = np.concatenate(([0], ends))
    sizes = (np.concatenate((ends, [src.size])) - starts) * width
    src, dst = src[starts] * width, dst[starts] * width
    lower = np.flatnonzero(dst < src).tolist()
    higher = np.flatnonzero(dst > src)[::-1].tolist()
    for k in lower + higher:
        a, b, size = src[k], dst[k], sizes[k]
        flat[b:b + size] = flat[a:a + size]


def _chunks(at, width, rows):
    """The index array at in pieces of rows // width entries, so that a
    piece of slabs with width <= rows rows each covers at most `rows`
    rows; nothing when width is 0."""
    if width == 0:
        return
    step = rows // width
    for s in range(0, at.size, step):
        yield at[s:s + step]


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
        """The Jacobian-vector product J(x) d, length m; for stacks X, D of
        shape (P, n), the (P, m) array whose row p is J(X_p) D_p."""
        X, D, single = self._stacks(x, d)
        out = np.array([self.jacobian(xp) @ dp for xp, dp in zip(X, D)])
        out = out.reshape(len(X), self.m)
        return out[0] if single else out

    def _stacks(self, x, d):
        """x and d as (P, n) stacks, and whether they were single vectors."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if x.shape != d.shape or x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"jvp needs x and d of one shape, (n,) or (P, n) "
                             f"with n = {self.n}; got {x.shape} and {d.shape}")
        return np.atleast_2d(x), np.atleast_2d(d), x.ndim == 1

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


def symmetrize(A):
    """Replace each slab A_i of an (m, n, n) array, in place and one slab
    at a time, by its symmetric part 0.5 (A_i + A_i^T); returns A.  The
    result is exactly symmetric, since floating-point addition commutes,
    and a symmetric slab comes back bit for bit."""
    for slab in A:
        slab *= 0.5
        slab += slab.T.copy()
    return A


class _Quadratic(NonlinearSystem):
    """F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i, whatever the storage of
    the A_i.  A subclass supplies `matrix(i)`, which gives A_i with i
    checked; `_support_rows(idx, S)`, which gives the support rows
    sym(A_i)[S, :] of each slab i of idx, shape (|idx|, |S|, n); and
    `_sym_rows(j, cols)`, which gives row j of every symmetric part
    sym(A_i) = 0.5 (A_i + A_i^T) at the columns cols, shape (m, len(cols)).
    `jvp` reads only the entries with j in the support Ux of the x and a
    column in the support Ud of the d of its pairs.
    """

    def __init__(self, name, coef, b, c):
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        m, n = coef.shape[:2]
        if b.shape != (m, n) or c.shape != (m,):
            raise ValueError(f"shape mismatch: {name} {coef.shape}, "
                             f"b {b.shape}, c {c.shape}")
        self.b = b
        self.c = c
        self.m = m
        self.n = n

    def eval_points(self, i, X):
        """F_i at each row of X, by one product X A_i^T."""
        X = np.asarray(X, dtype=float)
        A = self.matrix(i)
        return 0.5 * ((X @ A.T) * X).sum(axis=1) + X @ self.b[i] + self.c[i]

    def jvp(self, x, d):
        """J(x) d, or row p J(X_p) D_p for stacks: row i of J(x) d is
        <x, A_i d> + <b_i, d>, where only the entries A_i[j, k] with x_j
        and d_k nonzero count.

        The pairs go in chunks of max(1, m n // (m + n)), so that the
        temporaries of a chunk, its (P, m) products and D[:, Ud], hold at
        most m*n doubles.  For a chunk, Ux and Ud are the unions of the
        supports of its x and d rows, and each j in Ux costs one product
        of D[:, Ud] with `_sym_rows(j, Ud)` over all its pairs.
        """
        X, D, single = self._stacks(x, d)
        out = np.empty((len(X), self.m))
        step = max(1, self.m * self.n // (self.m + self.n))
        for s in range(0, len(X), step):
            self._jvp_chunk(X[s:s + step], D[s:s + step], out[s:s + step])
        return out[0] if single else out

    def grad_block(self, idx, x):
        """Rows x_S sym(A_i)[S, :] + b_i for i in idx, S the support of x:
        one stacked product of x_S with the `_support_rows` of
        _GRAD_SLABS n // |S| slabs at a time; at x = 0 the rows are b[idx]."""
        idx = self._rows(idx)
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        rows = self._products(idx, S, x[S])
        rows += self.b[idx]
        return rows

    def _products(self, idx, S, xS):
        """x_S sym(A_i)[S, :] for i in idx, shape (|idx|, n), in chunks."""
        rows = np.empty((idx.size, self.n))
        step = _GRAD_SLABS * self.n // max(S.size, 1)
        for s in range(0, idx.size, step):
            np.matmul(xS, self._support_rows(idx[s:s + step], S),
                      out=rows[s:s + step])
        return rows

    def _jvp_chunk(self, X, D, out):
        """Write J(X_p) D_p into row p of out; the temporaries die here."""
        Ux = np.flatnonzero((X != 0.0).any(axis=0))
        Ud = np.flatnonzero((D != 0.0).any(axis=0))
        DU = D[:, Ud]
        w = np.empty_like(out)
        out[:] = 0.0
        for j in Ux.tolist():
            np.matmul(DU, self._sym_rows(j, Ud).T, out=w)   # (A_i d_p)_j
            w *= X[:, j, None]
            out += w
        np.matmul(D, self.b.T, out=w)
        out += w


class QuadraticSystem(_Quadratic):
    """F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i with dense storage.

    Every A_i must be symmetric; `symmetrize` makes it so, and every
    dense system the package builds holds symmetric slabs.  A is stored
    as given, unchecked and unchanged (copied only if it is no contiguous
    float array): for a non-symmetric A_i the kernels give the gradient
    row x_S A_i[S, :] + b_i, which is wrong and which
    `diagnostics.check_gradients` reports.  A gradient row reads the |S|
    support rows A_i[S, :] of its slab, S the support of x, at cost
    |S|*n; `eval_all` is one product of the held pairs, at cost
    m*|S|*(|S| + 1)/2, plus the moves of the pairs it keeps and a gather
    of m*|S| entries for each support index new since the residual
    before, or beyond the budget a read, for each j in S, of the part of
    row j of every A_i right of the diagonal, at cost about m*|S|*n/2;
    and `jvp` reads the stored entries A[:, j, Ud] for each j in Ux, at
    cost m*|Ux|*|Ud| per pair.

    The system holds A_i[j, k] for every i and every pair j <= k of the
    support of its last residual within the budget, at most
    n^2 // _PAIR_SHARE pairs (m*n^2/12 doubles, |S| <= 60 at (300, 150)),
    in one buffer allocated with the system: the pairs by k,
    then by j, so that a new support index above all the others only
    appends pairs.  The next residual within the budget moves the pairs
    its support keeps, which keep their order, as runs within the buffer
    and gathers the pairs of each new support index from its row of
    every slab; the consecutive residuals of the single-row presets share
    about 97% of their pairs.  A residual beyond the budget reads the
    rows of A and leaves the held pairs as they are.  The residual is
    the product of the weights with the pairs in that order, so it is
    that of a fresh system bit for bit, whatever came before, and within
    rounding of the loop over rows of A.  The held pairs assume that A
    does not change after the first residual; since every residual may
    replace them, a system must not be shared between threads.
    """

    def __init__(self, A, b, c):
        A = np.ascontiguousarray(A, dtype=float)
        _, n, n2 = A.shape
        if n != n2:
            raise ValueError(f"A must be (m, n, n), got {A.shape}")
        super().__init__("A", A, b, c)
        self.A = A
        # the support of the last residual within the budget and the
        # buffer of its pairs, whose pages cost nothing until touched, and
        # the pair indices of one support size
        self._pairs = (np.empty(0, dtype=int),
                       np.empty(n * n // _PAIR_SHARE * self.m))
        self._pair_index = (np.empty(0, dtype=int), np.empty(0, dtype=int),
                            np.zeros(1, dtype=int))

    def matrix(self, i):
        """A_i, shape (n, n), a view of the stored slab."""
        self._check_index(i)
        return self.A[i]

    def _sym_rows(self, j, cols):
        return self.A[:, j, cols]

    def eval_component(self, i, x):
        return float(self.eval_points(i, [x])[0])

    def _support_rows(self, idx, S):
        # A_i x = x_S A_i[S, :] for a symmetric slab: one gather
        return self.A[idx[:, None], S]

    def eval_all(self, x):
        # 0.5 <x, A_i x> = sum over the pairs j <= k of S of w_jk A_i[j, k],
        # w_jk = x_j x_k halved where j = k: one product of the weights
        # with the held pairs; it subtracts no term, so one overflowing
        # square gives +-inf, not the NaN of inf - inf
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        if S.size * (S.size + 1) // 2 > self.n * self.n // _PAIR_SHARE:
            return self._row_residuals(x)
        k, j, first = self._pair_index
        if first.size != S.size + 1:
            # the pairs by k, then by j: those of k start at row k (k + 1) / 2
            first = np.arange(S.size + 1)
            first = first * (first + 1) // 2
            k = np.repeat(np.arange(S.size), np.arange(1, S.size + 1))
            j = np.arange(first[-1]) - first[k]
            self._pair_index = (k, j, first)
        xS = x[S]
        w = xS[j] * xS[k]
        w[first[1:] - 1] *= 0.5                 # the pairs j = k
        return w @ self._held_pairs(S, k, j, first) + self.b @ x + self.c

    def _held_pairs(self, S, k, j, first):
        """A_i[S[j_p], S[k_p]] for every i in row p of a (P, m) view of the
        buffer, P = |S| (|S| + 1) / 2, (k, j) the pair indices of
        `np.tril_indices(|S|)` and first[t] the row of the pair (0, t),
        held until the next residual within the budget.  The pairs of the
        support the buffer holds keep their order, so they move within it
        in runs; the pairs of each new support index are gathered from its
        row of every slab.  Until the pairs are rebuilt the system holds
        none, so a call that fails leaves no stale pairs."""
        held, buffer = self._pairs
        pairs = buffer[:k.size * self.m].reshape(k.size, self.m)
        if np.array_equal(held, S):
            return pairs
        self._pairs = (np.empty(0, dtype=int), buffer)
        at = _positions(held, S, self.n)
        at_k, at_j = at[k], at[j]
        dst = np.flatnonzero((at_k >= 0) & (at_j >= 0))
        src = at_k[dst] * (at_k[dst] + 1) // 2 + at_j[dst]
        _move_runs(buffer, src, dst, self.m)
        for t in np.flatnonzero(at < 0).tolist():
            # A_i[S[t], S[u]] for every u, A_i[S[u], S[t]] of a symmetric slab
            row = self.A[:, S[t], S]
            pairs[first[t]:first[t + 1]] = row[:, :t + 1].T
            pairs[first[t + 1:-1] + t] = row[:, t + 1:].T
        self._pairs = (S, buffer)
        return pairs

    def _row_residuals(self, x):
        """F(x) from the rows of A: for each j in S, the part of row j of
        every A_i right of the diagonal, at cost about m*|S|*n/2, reading
        each pair A_i[j, k] = A_i[k, j] once; nothing is held."""
        S = np.flatnonzero(x)
        xS = x[S]
        u = np.empty((self.m, S.size))
        for s, j in enumerate(S.tolist()):
            u[:, s] = self.A[:, j, j + 1:] @ x[j + 1:]
        diagonal = self.A[:, S, S]          # a copy: A_i[j, j] for j in S
        diagonal *= 0.5 * xS
        u += diagonal
        return u @ xS + self.b @ x + self.c


class DCTQuadraticSystem(_Quadratic):
    """Matrix-free partial-cosine quadratics.

    Column j of A_i is cos(2*pi*j*xi_i) elementwise (j = 0..n-1), so only
    the frequency vectors xi_i need to be stored.  Entries are computed on
    demand and only where they meet the support S of x: m*|S|^2 cosines
    per residual vector, 2*n*|S| per gradient row (its support rows and
    columns) and 2*|Ud| per j in Ux for a row of J(x) d over a whole
    chunk of pairs, against n^2 per row for a materialized A_i.

    A gradient block of 2 to _HELD_SLABS n support rows keeps them,
    sym(A_i)[S, :] for its slabs i and S, until the next such block: that
    one keeps the row of every pair (i, j) both share, moved within one
    buffer, and computes only the others.  The consecutive blocks of a
    greedy-block solve share about 60% of their pairs (62% for abnbk-c
    and 63% for abnbk-a over their seed-1 solves at (200, 100));
    single-row steps share almost none, so a single row, like a block
    beyond the bound, is computed afresh and leaves the held rows as they
    are.  The rows are a function of the pair alone, the sums `to_dense()` stores, so a gradient row is that
    of `to_dense()` bit for bit whatever came before.  The held rows take
    at most _HELD_SLABS n^2 doubles, and a block adds to them at most a
    chunk of moved or computed rows, so the rows of two blocks are never
    held at once.  They assume that xi is never changed; since every
    gradient block may replace them, a system must not be shared between
    threads.
    """

    def __init__(self, xi, b, c):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 2:
            raise ValueError(f"xi must be (m, n), got {xi.shape}")
        super().__init__("xi", xi, b, c)
        self.xi = xi
        self._release()

    def _release(self):
        """Hold nothing.  One attribute, the sorted slabs, the support and
        the (|slabs| |S|, n) buffer of the held rows, so that it is never
        half replaced."""
        self._held = (np.empty(0, dtype=int), np.empty(0, dtype=int),
                      np.empty((0, self.n)))

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

    def _products(self, idx, S, xS):
        # a block of 2 to _HELD_SLABS n support rows: one product with the
        # held rows of its distinct slabs; a single row or a larger block:
        # the chunks of the base class, of fresh rows
        if not 1 < idx.size <= _HELD_SLABS * self.n // max(S.size, 1):
            return super()._products(idx, S, xS)
        slabs, at = np.unique(idx, return_inverse=True)
        return np.matmul(xS, self._held_support_rows(slabs, S))[at]

    def _held_support_rows(self, slabs, S):
        """`_support_rows(slabs, S)` for sorted distinct slabs, held until
        the next call in the buffer of the last ones.  Both layouts sort
        the pairs (i, j) by slab and then by support index, so the rows of
        the shared pairs move within the buffer in order, which grows or
        shrinks in place; the other rows are computed in chunks of at most
        _GRAD_SLABS n.  Until the buffer is rebuilt the system holds
        nothing, so a call that fails leaves no stale rows."""
        held_slabs, held_S, buffer = self._held
        self._release()
        at_slab = _positions(held_slabs, slabs, self.m)
        at_col = _positions(held_S, S, self.n)
        old, kept = np.flatnonzero(at_slab >= 0), np.flatnonzero(at_col >= 0)
        src = (at_slab[old, None] * held_S.size + at_col[kept]).ravel()
        dst = (old[:, None] * S.size + kept).ravel()
        size = slabs.size * S.size
        # no view of the buffer outlives the call that made it, so it can
        # be resized in place
        buffer.resize((max(len(buffer), size), self.n), refcheck=False)
        _move(buffer, src, dst, _GRAD_SLABS * self.n)
        buffer.resize((size, self.n), refcheck=False)
        rows = buffer.reshape(slabs.size, S.size, self.n)
        new, fresh = np.flatnonzero(at_slab < 0), np.flatnonzero(at_col < 0)
        for a in _chunks(new, S.size, _GRAD_SLABS * self.n):
            rows[a] = self._support_rows(slabs[a], S)
        for a in _chunks(old, fresh.size, _GRAD_SLABS * self.n):
            rows[np.ix_(a, fresh)] = self._support_rows(slabs[a], S[fresh])
        self._held = (slabs, S, buffer)
        return rows

    def _support_rows(self, idx, S):
        # 0.5 (A_i[S, :] + A_i[:, S]^T): 2 n |S| cosines a slab, summed as
        # `symmetrize` sums them
        xi = self.xi[idx]
        rows = self._cosines(xi[:, S], np.arange(self.n))
        xi *= 2.0 * np.pi       # a copy: the products `_cosines` forms
        cols = np.einsum("ik,j->ijk", xi, S.astype(float), order="C")
        rows += np.cos(cols, out=cols)      # A_i[:, S]^T laid out as rows
        rows *= 0.5
        return rows

    def matrix(self, i):
        """Materialize A_i, shape (n, n) (n^2 cosines)."""
        self._check_index(i)
        return self._cosines(self.xi[i], np.arange(self.n))

    def _sym_rows(self, j, cols):
        # 0.5 (A_i[j, cols] + A_i[cols, j]): 2 m |cols| cosines
        rows = self._cosines(self.xi[:, j], cols)
        rows += self._cosines(self.xi[:, cols], [j])[..., 0]
        rows *= 0.5
        return rows

    def eval_component(self, i, x):
        """F_i(x); for an index array i, the array of F_i(x) over its
        entries in one vectorized call (eval_all passes every row)."""
        values = self._values(self._rows(np.atleast_1d(i)),
                              np.asarray(x, dtype=float))
        return float(values[0]) if np.ndim(i) == 0 else values

    def eval_all(self, x):
        return self.eval_component(np.arange(self.m), x)

    def to_dense(self):
        """The same F with dense storage: the symmetric parts of the A_i."""
        A = self._cosines(self.xi, np.arange(self.n))
        return QuadraticSystem(symmetrize(A), self.b, self.c)
