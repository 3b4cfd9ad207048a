"""Nonlinear systems F(x) = 0 with component-wise access.

A system exposes m scalar equations F_i and their gradient rows.  The
quadratic measurement model F_i(x) = 0.5 <x, A_i x> + <b_i, x> + c_i is
the workhorse of the experiments.  F depends on A_i only through its
symmetric part, so the dense storage holds symmetric slabs (`symmetrize`
makes them): a gradient row reads the |S| support rows of its slab, S
the support of x.  The residuals are one product of the weights x_j x_k
with the entries sym(A_i)[j, k] of the pairs j <= k of S, which a system
holds from one residual to the next within a budget of pairs: the next
residual moves the pairs its support shares with the one held and forms
only the others, which each storage supplies, the dense one by a gather
and the matrix-free one by cosines.  Beyond the budget each storage
loops over the support rows and leaves the held pairs as they are.  A
matrix-free variant backs the partial-cosine family and computes only
the cosines that meet the support; its gradient blocks read the support
rows of their slabs from a bounded pool, so that a row computed once is
reused while it stays among the recently used.  `eval_points` (F_i at
many points) and `grad_block` (many gradient rows at one point) loop
`eval_component` and `grad_component` unless a system overrides them, as
both built-in ones do.  `remainders` takes a (T, n) stack X and a (P, 2)
int array of pairs (i1, i2) of its rows and gives the linearization
errors F(x2) - F(x1) - J(x1) (x2 - x1) of all P pairs in one call; the
base class goes pair by pair through `eval_all`, once per row a pair
uses, and `jacobian`, once per distinct i1.  Both storages share one
quadratic base, which computes `eval_points` from a storage's A_i,
`eval_all` from the held pairs, `grad_block` from products of x_S with
the support rows of the symmetric slabs, and the remainders, which for a
quadratic are the forms 0.5 <d, sym(A_i) d> at d = x2 - x1, from rows of
those slabs, working through the pairs in chunks that share their
support work; beyond its budget a matrix-free residual is the same form
at x.  Both storages replace what they hold as they are called, the
pairs on a residual and the matrix-free pool on a gradient block, so
neither may be shared between threads; the held values stay valid only
while A, from the first residual on, or xi does not change.
"""

from __future__ import annotations

import numpy as np

# the support rows or columns of the slabs one chunk of `grad_block`
# reads, counted in slabs: a block of them holds at most _GRAD_SLABS n^2
# doubles, gathered (dense) or computed (matrix-free)
_GRAD_SLABS = 4
# the support rows sym(A_i)[j, :] a matrix-free system holds in its pool,
# counted in slabs: at most _POOL_SLABS n^2 doubles, a little above the
# largest block of the greedy presets on the cosine family (15.2 n^2 at
# (200, 100)), and at most 8 m rows, eight times the m n doubles of xi
# (`_pool_size`); a larger block goes in chunks of fresh rows and leaves
# the pool as it is
_POOL_SLABS = 16
# the support pairs (j, k), j <= k, a system holds from one residual vector
# to the next: a dense one at most n^2 // _PAIR_SHARE pairs, m n^2 / 12
# doubles, a twelfth of the stored tensor (4.5 MB and |S| <= 60 at
# (300, 150)); a matrix-free one at most _PAIR_ROWS n pairs, four times the
# m n doubles of its xi (|S| <= 27 at (200, 100)); a residual at a larger
# support loops over the support rows instead
_PAIR_SHARE = 12
_PAIR_ROWS = 4


def _positions(held, keys, size):
    """The position of each key in the int array held, -1 where held lacks
    it; keys and held lie in [0, size)."""
    where = np.full(size, -1)
    where[held] = np.arange(held.size)
    return where[keys]


def _indices(idx, size):
    """idx as an int array, every entry checked against [0, size); a float
    or boolean array is refused, not truncated or read as a mask."""
    idx = np.asarray(idx)
    if idx.size:
        if idx.dtype.kind not in "iu":
            raise IndexError(f"indices must be integers, not {idx.dtype}")
        for i in (idx.min(), idx.max()):
            if not 0 <= i < size:
                raise IndexError(f"index {i} out of range [0, {size})")
    return idx.astype(int, copy=False)


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
        if type(self).grad_component is NonlinearSystem.grad_component:
            raise NotImplementedError("implement grad_component or grad_block")
        idx = _indices(idx, self.m)
        x = np.asarray(x, dtype=float)
        rows = np.array([self.grad_component(i, x) for i in idx.tolist()])
        return rows.reshape(idx.size, self.n)

    def jacobian(self, x):
        return self.grad_block(np.arange(self.m), x)

    def remainders(self, X, pairs):
        """The (P, m) linearization errors F(x2) - F(x1) - J(x1) (x2 - x1)
        at the rows x1 = X[i1], x2 = X[i2] of the (T, n) stack X for each
        row (i1, i2) of the (P, 2) int array pairs, found without evaluating
        the cancelling difference where a system knows its curvature."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n or np.shape(pairs)[1:] != (2,):
            raise ValueError(f"remainders needs a stack (T, {self.n}) and "
                             f"pairs (P, 2); got {X.shape}, {np.shape(pairs)}")
        return self._remainders(X, _indices(pairs, len(X)))

    def _remainders(self, X, pairs):
        # pair by pair, from the residuals at each row a pair uses and the
        # Jacobian at each distinct i1, held while its pairs are formed
        F = {k: self.eval_all(X[k]) for k in np.unique(pairs).tolist()}
        out, held = np.empty((len(pairs), self.m)), None
        for p in np.argsort(pairs[:, 0], kind="stable").tolist():
            i1, i2 = pairs[p].tolist()
            if i1 != held:
                held, J = i1, self.jacobian(X[i1])
            out[p] = F[i2] - F[i1] - J @ (X[i2] - X[i1])
        return out


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
    checked; `_support_rows(I, J)`, which gives the row sym(A_i)[j, :] for
    every pair (i, j) of the broadcast of the index arrays I and J, shape
    broadcast + (n,); `_sym_rows(j, cols)`, which gives row j of every
    symmetric part sym(A_i) = 0.5 (A_i + A_i^T) at the columns cols as a
    new (m, len(cols)) array; and `_pair_budget()`, the most support pairs
    it holds.  A residual within the budget is one product with the pairs
    `_held_pairs` holds, that of a fresh system bit for bit whatever came
    before; beyond it, `_row_residuals(x)` is the form of `_forms` at x
    plus the linear terms, unless a storage overrides it.  `_forms`, and
    with it `remainders`, which forms the differences X[i2] - X[i1] of a
    chunk of pairs by index, reads each entry sym(A_i)[j, k], j <= k, of
    the union support of the chunk once.
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
        # the support and pair buffer of the last residual within the budget
        self._pairs = (np.empty(0, dtype=int), None)

    def eval_points(self, i, X):
        """F_i at each row of X, by one product X A_i^T."""
        X = np.asarray(X, dtype=float)
        A = self.matrix(i)
        return 0.5 * ((X @ A.T) * X).sum(axis=1) + X @ self.b[i] + self.c[i]

    def eval_all(self, x):
        # 0.5 <x, A_i x> = sum over the pairs j <= k of S of w_jk A_i[j, k],
        # w_jk = x_j x_k halved where j = k: one product of the weights
        # with the held pairs; it subtracts no term, so one overflowing
        # square gives +-inf, not the NaN of inf - inf
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        if S.size * (S.size + 1) // 2 > self._pair_budget():
            return self._row_residuals(x)
        # the pairs by k, then by j: those of k start at row k (k + 1) / 2
        first = np.cumsum(np.arange(S.size + 1))
        k = np.repeat(np.arange(S.size), np.arange(1, S.size + 1))
        j = np.arange(first[-1]) - first[k]
        xS = x[S]
        w = xS[j] * xS[k]
        w[first[1:] - 1] *= 0.5                 # the pairs j = k
        return w @ self._held_pairs(S, k, j, first) + self.b @ x + self.c

    def _held_pairs(self, S, k, j, first):
        """sym(A_i)[S[j_p], S[k_p]] for every i in row p of a (P, m) view of
        the buffer, P = |S| (|S| + 1) / 2, (k, j) the pair indices of
        `np.tril_indices(|S|)` and first[t] the row of the pair (0, t),
        held until the next residual within the budget: by k, then by j, so
        that a new support index above all the others only appends pairs.
        The pairs of the support the buffer holds keep their order, so they
        move within it in runs; the pairs of each new support index come
        from its `_sym_rows`, those of two new ones from the row of the
        lower.  Until the pairs are rebuilt the system holds none, so a
        call that fails leaves no stale pairs."""
        held, buffer = self._pairs
        if buffer is None:
            buffer = np.empty(self._pair_budget() * self.m)
            self._pairs = (held, buffer)
        pairs = buffer[:k.size * self.m].reshape(k.size, self.m)
        if np.array_equal(held, S):
            return pairs
        self._pairs = (np.empty(0, dtype=int), buffer)
        at = _positions(held, S, self.n)
        at_k, at_j = at[k], at[j]
        dst = np.flatnonzero((at_k >= 0) & (at_j >= 0))
        src = at_k[dst] * (at_k[dst] + 1) // 2 + at_j[dst]
        _move_runs(buffer, src, dst, self.m)
        kept = np.flatnonzero(at >= 0)
        for new, t in enumerate(np.flatnonzero(at < 0).tolist()):
            # sym(A_i)[S[u], S[t]] for the t - new kept u < t and every
            # u >= t: the pairs of the new u < t came with the row of u
            low = kept[:t - new]
            row = self._sym_rows(S[t], np.concatenate((S[low], S[t:])))
            pairs[first[t] + low] = row[:, :low.size].T
            pairs[first[t:-1] + t] = row[:, low.size:].T
        self._pairs = (S, buffer)
        return pairs

    def _remainders(self, X, pairs):
        return self._forms(len(pairs),
                           lambda a: X[pairs[a, 1]] - X[pairs[a, 0]])

    def _row_residuals(self, x):
        """F(x) at a support beyond the budget, from `_forms`; nothing is
        held."""
        return self._forms(1, lambda a: x[None])[0] + self.b @ x + self.c

    def _forms(self, count, stack):
        """0.5 <d, sym(A_i) d> for every row d of a (count, n) stack D,
        shape (count, m), with stack(a) the rows of the slice a of D: for
        each j in the union support U of a chunk of rows, one product of
        D[:, U[t:]], j = U[t], with `_sym_rows(j, U[t:])`, its (j, j)
        column halved, so that each pair j <= k of U is read once.

        The rows go in chunks of max(1, m n // (m + n)), so that the
        temporaries of a chunk, its rows of D, its (P, m) products and
        D[:, U], hold at most about 2 m n doubles."""
        out = np.zeros((count, self.m))
        step = max(1, self.m * self.n // (self.m + self.n))
        for s in range(0, count, step):
            chunk, forms = stack(slice(s, s + step)), out[s:s + step]
            U = np.flatnonzero((chunk != 0.0).any(axis=0))
            DU, w = chunk[:, U], np.empty_like(forms)
            for t, j in enumerate(U.tolist()):
                rows = self._sym_rows(j, U[t:])
                rows[:, 0] *= 0.5                   # the pair (j, j)
                np.matmul(DU[:, t:], rows.T, out=w)
                w *= DU[:, t, None]
                forms += w
        return out

    def grad_block(self, idx, x):
        """Rows x_S sym(A_i)[S, :] + b_i for i in idx, S the support of x:
        one stacked product of x_S with the `_support_rows` of
        _GRAD_SLABS n // |S| slabs at a time; at x = 0 the rows are b[idx]."""
        idx = _indices(idx, self.m)
        x = np.asarray(x, dtype=float)
        S = np.flatnonzero(x)
        rows = self._products(idx, S, x[S])
        rows += self.b[idx]
        return rows

    def _products(self, idx, S, xS):
        """x_S sym(A_i)[S, :] for i in idx, shape (|idx|, n)."""
        return self._chunked(xS, idx.size,
                             lambda a: self._support_rows(idx[a, None], S))

    def _chunked(self, xS, count, support_rows):
        """x_S times support_rows(a), the (|a|, |S|, n) support rows of the
        slabs of the slice a of a block of `count` slabs, for
        _GRAD_SLABS n // |S| slabs at a time; shape (count, n)."""
        rows = np.empty((count, self.n))
        step = _GRAD_SLABS * self.n // max(xS.size, 1)
        for s in range(0, count, step):
            a = slice(s, s + step)
            np.matmul(xS, support_rows(a), out=rows[a])
        return rows


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
    of m entries for each pair new since the residual before, or beyond
    the budget of n^2 // _PAIR_SHARE pairs (m*n^2/12 doubles, |S| <= 60
    at (300, 150)) one product, for each j in S, of the part of row j of
    every A_i from the diagonal on with x, its entry j halved, at cost
    about m*|S|*n/2, which leaves the held pairs as they are; and
    `remainders` gathers A[:, j, U[t:]] for
    each j = U[t] of the union support U of a chunk of pairs,
    m*|U|*(|U| + 1)/2 entries, at a cost of as many multiply-adds per
    pair.  The consecutive residuals of the single-row presets share
    about 97% of their pairs.  A residual within the budget is that of a
    fresh system bit for bit and within rounding of the loop over rows of
    A.  The held pairs assume that A does not change after the first
    residual; since every residual may replace them, a system must not be
    shared between threads.
    """

    def __init__(self, A, b, c):
        A = np.ascontiguousarray(A, dtype=float)
        _, n, n2 = A.shape
        if n != n2:
            raise ValueError(f"A must be (m, n, n), got {A.shape}")
        super().__init__("A", A, b, c)
        self.A = A

    def matrix(self, i):
        """A_i, shape (n, n), a view of the stored slab."""
        _indices(i, self.m)
        return self.A[i]

    def _sym_rows(self, j, cols):
        return self.A[:, j, cols]

    def eval_component(self, i, x):
        return float(self.eval_points(i, [x])[0])

    def _support_rows(self, I, J):
        # A_i x = x_S A_i[S, :] for a symmetric slab: one gather
        return self.A[I, J]

    def _pair_budget(self):
        return self.n * self.n // _PAIR_SHARE

    def _row_residuals(self, x):
        """F(x) from the rows of A: for each j in S, one product of the
        part of row j of every A_i from the diagonal on with a copy of x
        whose entry j is halved just before, at cost about m*|S|*n/2,
        reading each pair A_i[j, k] = A_i[k, j] once; nothing is held."""
        S = np.flatnonzero(x)
        half = x.copy()
        u = np.empty((S.size, self.m))
        for s, j in enumerate(S.tolist()):
            half[j] *= 0.5                      # the pair (j, j)
            np.matmul(self.A[:, j, j:], half[j:], out=u[s])
        return x[S] @ u + self.b @ x + self.c


class DCTQuadraticSystem(_Quadratic):
    """Matrix-free partial-cosine quadratics.

    Column j of A_i is cos(2*pi*j*xi_i) elementwise (j = 0..n-1), so only
    the frequency vectors xi_i need to be stored.  Entries are computed on
    demand and only where they meet the support S of x, against n^2 per
    row for a materialized A_i: 2*m cosines per pair j <= k of S new to a
    residual within the budget of _PAIR_ROWS n held pairs (m*|S|*(|S| + 1)
    for a fresh support), as many for a residual beyond it, 2*n per
    support row sym(A_i)[j, :] (row and column j of A_i) of a gradient row
    and m*|U|*(|U| + 1) for the remainders of a chunk of pairs of union
    support U.  Every cosine sum is the one `symmetrize` forms, so the
    held pairs, the gradient rows, the remainders and the residuals within
    the budget are those of `to_dense()` bit for bit, whatever came
    before.

    A gradient block of 2 or more rows with at most `_pool_size()` support
    rows reads them from a pool of that many rows, allocated on the
    first such block and keyed by (slab i, support index j): the block
    computes only the rows of the keys the pool lacks, into the slots of
    the least recently used keys, and gathers each chunk of _GRAD_SLABS n
    of its rows, in the layout of `_support_rows`, for one product with
    x_S.  A single row, like a larger block, is computed afresh and leaves
    the pool as it is: through the pool, the single rows of `nbk` on the
    cosine family took 15-29% longer a call.  A key is marked held only
    once its row is written, so a call that fails leaves no stale rows.
    The pool holds min(_POOL_SLABS n, 8 m) n doubles and a table of m n
    slots.  The held values assume that xi is never changed; since every
    residual and gradient block may replace them, a system must not be
    shared between threads.
    """

    def __init__(self, xi, b, c):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 2:
            raise ValueError(f"xi must be (m, n), got {xi.shape}")
        super().__init__("xi", xi, b, c)
        self.xi = xi
        # the pool: its rows, the slot of every key i n + j (-1 if none),
        # the key of every slot and the block that last used it
        self._pool = None

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

    def _products(self, idx, S, xS):
        # a block of 2 or more rows with at most `_pool_size()` support
        # rows: its rows from the pool; a single row or a larger block: the
        # chunks of the base class, of fresh rows
        if idx.size < 2 or not 0 < idx.size * S.size <= self._pool_size():
            return super()._products(idx, S, xS)
        slabs, at = np.unique(idx, return_inverse=True)
        slots = self._pooled(slabs[:, None] * self.n + S)
        rows = self._pool[0]
        return self._chunked(xS, slabs.size, lambda a: rows[slots[a]])[at]

    def _pool_size(self):
        return min(_POOL_SLABS * self.n, 8 * self.m)

    def _pooled(self, keys):
        """The pool slot of each key i n + j of the int array keys, at most
        `_pool_size()` distinct keys, with sym(A_i)[j, :] in it: the rows of
        the keys the pool lacks are computed into the slots of the least
        recently used keys, none of this call's (a slot never used counts
        as the least recent, the lowest first), n at a time, so that their
        temporaries stay within 3 n^2 doubles."""
        if self._pool is None:
            size = self._pool_size()
            self._pool = (np.empty((size, self.n)),
                          np.full(self.m * self.n, -1, dtype=np.int32),
                          np.full(size, -1), np.arange(size) - size)
        rows, slot_of, key_of, used = self._pool
        slots = slot_of[keys]
        clock = used.max() + 1
        used[slots[slots >= 0]] = clock
        new = keys[slots < 0]
        if new.size:
            free = np.argpartition(used, new.size - 1)[:new.size]
            old = key_of[free]
            slot_of[old[old >= 0]] = -1
            key_of[free] = -1
            for s in range(0, new.size, self.n):
                rows[free[s:s + self.n]] = self._support_rows(
                    *np.divmod(new[s:s + self.n], self.n))
            slot_of[new] = free
            key_of[free] = new
            used[free] = clock
            slots = slot_of[keys]
        return slots

    def _support_rows(self, I, J):
        # 0.5 (A_i[j, :] + A_i[:, j]^T): 2 n cosines a pair, summed as
        # `symmetrize` sums them
        rows = self._cosines(self.xi[I, J], np.arange(self.n))
        xi = self.xi[I]
        xi *= 2.0 * np.pi       # a copy: the products `_cosines` forms
        cols = np.einsum("...k,...->...k", xi, np.asarray(J, dtype=float))
        rows += np.cos(cols, out=cols)      # A_i[:, j]^T laid out as rows
        rows *= 0.5
        return rows

    def matrix(self, i):
        """Materialize A_i, shape (n, n) (n^2 cosines)."""
        _indices(i, self.m)
        return self._cosines(self.xi[i], np.arange(self.n))

    def _sym_rows(self, j, cols):
        # 0.5 (A_i[j, cols] + A_i[cols, j]): 2 m |cols| cosines
        rows = self._cosines(self.xi[:, j], cols)
        rows += self._cosines(self.xi[:, cols], [j])[..., 0]
        rows *= 0.5
        return rows

    def _pair_budget(self):
        return _PAIR_ROWS * self.n

    def eval_component(self, i, x):
        """F_i(x); for an index array i, the array of F_i(x) over its
        entries (eval_all passes every row): the rows of the residual
        vector."""
        rows = _indices(np.atleast_1d(i), self.m)
        values = super().eval_all(x)[rows]
        return float(values[0]) if np.ndim(i) == 0 else values

    def eval_all(self, x):
        return self.eval_component(np.arange(self.m), x)

    def to_dense(self):
        """The same F with dense storage: the symmetric parts of the A_i."""
        A = self._cosines(self.xi, np.arange(self.n))
        return QuadraticSystem(symmetrize(A), self.b, self.c)
