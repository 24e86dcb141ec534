"""Linear algebra over Z/m (m composite allowed) and over Z.

This is the engine behind the cohomology module: solving cocycle identities,
membership in coboundary spans, and quotient-group structure all reduce to
the primitives here.

* ``echelon_rows_mod`` takes a large equation system as a 2-D array and
  reduces it to a compact row-echelon set spanning the same row module
  (gcd-combination steps keep everything exact for composite m).  It sweeps
  the system column by column, stored column-major, and returns the rows
  that reducing one row at a time, in input order, would return.
* ``diagonalize_mod`` produces U A V = D with U, V invertible mod m, which
  is enough to solve linear systems and to read off quotient structure mod
  m.  No inverse is tracked: a caller that needs columns of U^-1 solves
  U x = e_i for them.  Entries never leave [0, m), so there is no
  coefficient blowup.
* ``smith_normal_form`` is a literal integer Smith normal form with
  unimodular transforms, used as an independent oracle for the mod-m route
  on small instances.

One clearing step serves every elimination over Z/m and Z/p^k: ``_clear``
clears one column of a list of rows off a pivot row, in order (gcd-based
elimination over Z/N, as in Storjohann and Mulders, ESA 1998).  Each run of
entries the pivot divides goes in one vectorized update over the pivot row's
nonzero columns (entries lie in [0, m), where a zero column leaves the other
rows unchanged); only an entry it does not divide takes a sequential xgcd
step, so the operations, and U and V, are those of one row at a time.

One pivot rule, the nonzero entry minimizing (gcd(entry, m), index), makes
the outputs byte-stable.  ``diagonalize_mod`` applies it to the remaining
block, indexed by (row, col), and scans row k alone first: a unit there
attains the minimum.  ``_select_spanning_rows`` applies it to one column mod
p^k, where gcd(x, p^k) = p^v(x).  ``echelon_rows_mod`` takes the first
candidate in input order, which its one-row-at-a-time output fixes.  A
modulus below 1 raises ValueError.

The module is also the one place that eliminates mod a prime power and the
one place that factors integers.  Its private helpers serve the other
modules:

* F_p section: ``_rref_mod_p`` is the one Gauss-Jordan sweep over F_p.  It
  takes a stack of matrices [B, rows, cols] and sweeps them together, column
  by column, each with its own pivot rows; a single matrix is a stack of
  one.  Pivot inverses come from Fermat's little theorem on the whole
  column, and the search can stop short of the carried columns of an
  augmented system.  ``_inv_mod_p`` and ``_kernel_mod_p`` are read off it
  (Dixon eigenspaces in ``chars``, generator inverses in ``fpn``), and so
  are ``fpn``'s stacked ranks and inverses of the Bruhat blocks.
  ``_select_spanning_rows`` picks rows spanning a row module over Z/p^k (the
  cocycle systems in ``cohom``), stored column-major because each step reads
  one column.
* Number-theory section: ``_factorize`` is the one trial division, cached;
  ``_is_prime``, ``_phi`` and ``_primitive_root`` are read off it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    "xgcd",
    "echelon_rows_mod",
    "diagonalize_mod",
    "solve_mod",
    "nullspace_mod",
    "DiagonalizedSystem",
    "smith_normal_form",
    "elementary_divisor_chain",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_modulus(m: int) -> None:
    if m < 1:
        raise ValueError(f"modulus m = {m} must be at least 1")


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, k), ...) of n, p ascending; () for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    return _factorize(n) == ((n, 1),)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    out = 1
    for p, k in _factorize(n):
        out *= (p - 1) * p ** (k - 1)
    return out


def _primitive_root(p: int) -> int:
    """The smallest generator of (Z/p)^* for a prime p; 1 for p = 2."""
    qs = [q for q, _ in _factorize(p - 1)]
    return next(
        (g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs)),
        1,
    )


# ---------------------------------------------------------------------------
# elimination over F_p and Z/p^k
# ---------------------------------------------------------------------------

def _rref_mod_p(A, p: int, pivot_cols=None):
    """(R, pivots): the reduced row echelon form of A read mod the prime p,
    and its pivot columns, sought among the first ``pivot_cols`` (default
    all; the rest ride along as in an augmented system).  A stack A
    [B, rows, cols] is swept as one, column by column, and gives pivots as a
    mask [B, cols]; a 2-D A is a stack of one and gives a list."""
    R = np.array(A, dtype=np.int64, ndmin=3) % p
    B, rows, cols = R.shape
    free = np.ones((B, rows), dtype=bool)      # rows below the pivot rows
    pivots = np.zeros((B, cols), dtype=bool)
    for j in range(cols if pivot_cols is None else pivot_cols):
        cand = R[:, :, j] != 0
        cand &= free
        b = cand.any(axis=1).nonzero()[0]
        if not b.size:
            continue
        r, i = free[b].argmax(axis=1), cand[b].argmax(axis=1)
        row = R[b, i]
        R[b, i] = R[b, r]
        unit, inv, e = row[:, j], np.ones(b.size, dtype=np.int64), p - 2
        while e:                               # inv = unit ** (p - 2)
            inv = inv * unit % p if e & 1 else inv
            e >>= 1
            unit = unit * unit % p if e else unit
        row = row * inv[:, None] % p
        full = np.zeros((B, cols), dtype=np.int64)
        full[b] = row
        R -= R[:, :, j, None] * full[:, None, :]
        R %= p
        R[b, r] = row
        free[b, r] = False
        pivots[b, j] = True
        if not free.any():
            break
    if np.ndim(A) == 2:
        return R[0], pivots[0].nonzero()[0].tolist()
    return R, pivots


def _inv_mod_p(A, p: int) -> np.ndarray:
    """Inverse of a square matrix mod the prime p; ValueError when singular."""
    k = len(A)
    R, pivots = _rref_mod_p(
        np.hstack([np.asarray(A, dtype=np.int64), np.eye(k, dtype=np.int64)]),
        p, k,
    )
    if pivots != list(range(k)):
        raise ValueError("matrix is singular mod p")
    return R[:, k:]


def _kernel_mod_p(A, p: int):
    """Columns forming a basis of ker(A) mod the prime p: one per free column
    of the echelon form, with a 1 in that column.  A stack A [B, rows, cols]
    is swept once and gives the list of its B kernels."""
    R, pivots = _rref_mod_p(np.array(A, ndmin=3), p)
    out = []
    for Rk, mask in zip(R, pivots):
        piv, free = mask.nonzero()[0], (~mask).nonzero()[0]
        K = np.zeros((len(mask), len(free)), dtype=np.int64)
        K[free, range(len(free))] = 1
        K[piv] = -Rk[:len(piv), free] % p
        out.append(K)
    return out if np.ndim(A) == 3 else out[0]


def _select_spanning_rows(A: np.ndarray, p: int, k: int) -> list[int]:
    """Indices of rows spanning A's row module over Z/p^k.

    A column sweep over a column-major copy of A.  At column j the pivot is
    the candidate minimizing (gcd(entry, p^k), index), that is, of minimal
    p-adic valuation; it is scaled so that its entry becomes that gcd, which
    then divides every other candidate's entry, and ``_clear`` clears them.
    The returned rows (in their original, unreduced form) generate every row
    of A as a Z/p^k-combination.
    """
    q = p ** k
    W = np.remainder(A, q, out=np.empty_like(A, order="F"))
    active = np.ones(W.shape[0], dtype=bool)
    pivots: list[int] = []
    for j in range(W.shape[1]):
        col = W[:, j]
        cand = np.flatnonzero(active & (col != 0))
        if cand.size == 0:
            continue
        gs = np.gcd(col[cand], q)
        at = int(np.argmin(gs))
        r = int(cand[at])
        unit = int(col[r]) // int(gs[at])
        W[r, j:] = (W[r, j:] * pow(unit, -1, q)) % q      # entry at j becomes gcd
        _clear(W, None, q, r, j, np.delete(cand, at))
        active[r] = False
        pivots.append(r)
    return pivots


# ---------------------------------------------------------------------------
# echelon over Z/m
# ---------------------------------------------------------------------------

def echelon_rows_mod(equations, ncols: int, m: int) -> np.ndarray:
    """Reduce a 2-D integer array with ``ncols`` columns to echelon form
    over Z/m.

    Returns a matrix whose rows have strictly increasing leading columns and
    span the same Z/m-row module as the input.  Every update is by a
    determinant-one combination, so no solutions are gained or lost.

    The system is swept column by column.  At column j the pivot is the
    first unplaced row, in input order, with a nonzero entry there, and
    ``_clear`` clears the other unplaced rows with a nonzero at j, in input
    order; an entry the pivot does not divide takes an xgcd step that
    replaces the pivot row.  The rows returned are those that reducing one
    row at a time, in input order, against the pivot rows found so far
    would return: there too the first row to reach lead j becomes its pivot,
    and each later row meets it as the rows before it left it.  ValueError
    when m < 1 or the input is not a 2-D array of ``ncols`` columns; an
    empty input gives shape (0, ncols).
    """
    _check_modulus(m)
    try:
        W = np.array(equations, dtype=np.int64, order="F")
    except ValueError:
        widths = sorted({np.size(row) for row in equations})
        if len(widths) < 2:
            raise
        raise ValueError(
            f"rows of widths {widths}, expected {ncols} columns") from None
    if W.shape == (0,):
        W = W.reshape(0, ncols)
    if W.ndim != 2 or W.shape[1] != ncols:
        raise ValueError(
            f"expected a 2-D array of {ncols} columns, got shape {W.shape}")
    W %= m
    active = np.ones(W.shape[0], dtype=bool)
    pivots: list[int] = []
    for j in range(ncols):
        cand = np.flatnonzero(active & (W[:, j] != 0))
        if cand.size == 0:
            continue
        r = int(cand[0])
        _clear(W, None, m, r, j, cand[1:])
        active[r] = False
        pivots.append(r)
    return np.ascontiguousarray(W[pivots])


# ---------------------------------------------------------------------------
# two-sided diagonalization over Z/m with invertible transforms
# ---------------------------------------------------------------------------

class _Transforms:
    """U (rows) and V (columns), under elementary ops.

    A column operation on D is the row operation on D.T and V.T, so
    ``_swap``, ``_combine`` and ``_clear`` are written once, for rows, on
    (A, M) = (D, U) or (D.T, V.T): ``A <- E A`` and ``M <- E M``.  The
    echelon routines call ``_clear`` with M = None: they keep no transform.
    """

    def __init__(self, r: int, c: int):
        self.U = np.eye(r, dtype=np.int64)
        self.V = np.eye(c, dtype=np.int64)


def _swap(A, M, i, j):
    A[[i, j]] = A[[j, i]]
    M[[i, j]] = M[[j, i]]


def _combine(mats, m, i, j, s, t, ag, bg):
    """(row_i, row_j) <- (s*ri + t*rj, -bg*ri + ag*rj) in each X, det = 1."""
    for X in mats:
        ri, rj = X[i].copy(), X[j].copy()
        X[i] = (s * ri + t * rj) % m
        X[j] = (-bg * ri + ag * rj) % m


def _clear(A, M, m, r, j, rows) -> bool:
    """Clear column j of ``rows`` (in order) off the pivot row r of A, by
    row operations applied to M as well unless M is None.

    Each run of rows whose entry the pivot a = A[r, j] divides is cleared by
    one update (row_i -= (b_i / a) row_r for all of them at once); the first
    row that a does not divide gets an xgcd step with row r, which changes
    a, and the next run uses the new a.  Only row r and the row being
    cleared change at each step, so the result is that of one row at a
    time.  Row r and ``rows`` of A must be zero left of column j, as they
    are in every caller, so A is worked on from column j; and entries lie
    in [0, m), so a run update touches only the pivot row's nonzero
    columns: a zero there leaves the other rows unchanged.  Returns whether
    an xgcd step fired.
    """
    A = A[:, j:]
    mats = (A,) if M is None else (A, M)
    a = int(A[r, 0])
    dirty = False
    while rows.size:
        b = A[rows, 0]
        bad = np.flatnonzero(b % a)
        stop = int(bad[0]) if bad.size else rows.size
        if stop:
            q = b[:stop] // a
            for X in mats:
                nzc = np.flatnonzero(X[r])
                sub = np.ix_(rows[:stop], nzc)
                Y = X[sub]
                Y -= np.multiply.outer(q, X[r, nzc])
                Y %= m
                X[sub] = Y
        if stop == rows.size:
            break
        i, bi = int(rows[stop]), int(b[stop])
        g, s, t = xgcd(a, bi)
        _combine(mats, m, r, i, s, t, a // g, bi // g)
        a = int(A[r, 0])
        dirty = True
        rows = rows[stop + 1:]
    return dirty


def diagonalize_mod(A, m: int):
    """(D, T) with T.U @ A @ T.V == D mod m, U and V invertible mod m.

    D is diagonal (no divisor chain enforced).  Neither inverse is kept:
    column i of U^-1 is ``DiagonalizedSystem(T.U, m).solve(e_i)``.
    Deterministic pivoting: the nonzero entry minimizing (gcd(entry, m),
    row, col) in the remaining block, read off row k when it holds a unit
    (see the module docstring).  ValueError when m < 1.
    """
    _check_modulus(m)
    D = np.asarray(A, dtype=np.int64).copy() % m
    r, c = D.shape
    T = _Transforms(r, c)
    rows, cols = (D, T.U), (D.T, T.V.T)
    for k in range(min(r, c)):
        while True:
            head = D[k, k:]
            # nonzero as well: at m = 1, gcd(0, m) = 1 too
            units = np.flatnonzero((head != 0) & (np.gcd(head, m) == 1))
            if units.size:
                bi, bj = k, int(units[0]) + k
            else:
                block = D[k:, k:]
                nz = np.nonzero(block)
                if nz[0].size == 0:
                    break
                # min gcd, then min row, then min col: nz is row-major
                at = int(np.argmin(np.gcd(block[nz], m)))
                bi, bj = int(nz[0][at]) + k, int(nz[1][at]) + k
            if bi != k:
                _swap(*rows, k, bi)
            if bj != k:
                _swap(*cols, k, bj)
            dirty = False
            for X, M in (rows, cols):             # column k, then row k
                others = np.flatnonzero(X[:, k])
                dirty |= _clear(X, M, m, k, k, others[others != k])
            if not dirty and not D[k, k + 1:].any() and not D[k + 1:, k].any():
                break
    return D, T


class DiagonalizedSystem:
    """A diagonalization of one matrix mod m, reusable for many solves.

    Useful when a single coefficient matrix (for example a basis of a
    solution module) is queried with many right-hand sides.
    """

    def __init__(self, A, m: int):
        A = np.asarray(A, dtype=np.int64)
        self.m = m
        self.rows, self.cols = A.shape
        self.D, self.T = diagonalize_mod(A, m)

    def solve(self, b):
        """One solution x of A x = b over Z/m, or None."""
        m = self.m
        rhs = (self.T.U @ (np.asarray(b, dtype=np.int64) % m)) % m
        z = np.zeros(self.cols, dtype=np.int64)
        for i in range(self.rows):
            d = int(self.D[i, i]) if i < self.cols else 0
            val = int(rhs[i]) % m
            g = gcd(d, m)        # m when d = 0
            if val % g:
                return None
            if g == m:
                continue         # z_i unconstrained; take 0
            mg = m // g
            inv = pow((d // g) % mg, -1, mg)
            z[i] = (val // g) * inv % mg
        return (self.T.V @ z) % m

    def nullspace(self) -> np.ndarray:
        """Columns generating {x : A x = 0 mod m} as a Z/m-module: column i
        of V times m / gcd(d_i, m) for each d_i that is no unit mod m (the
        diagonal is padded with zeros to one d_i per column)."""
        m = self.m
        d = np.pad(np.diagonal(self.D), (0, self.cols - min(self.D.shape)))
        mult = m // np.gcd(d, m)
        keep = mult != m
        return self.T.V[:, keep] * mult[keep] % m


def solve_mod(A, b, m: int):
    """One solution x of A x = b over Z/m, or None."""
    return DiagonalizedSystem(A, m).solve(b)


def nullspace_mod(A, m: int) -> np.ndarray:
    """Columns generating {x : A x = 0 mod m} as a Z/m-module."""
    A = np.asarray(A, dtype=np.int64)
    r, c = A.shape
    if r > c:
        A = echelon_rows_mod(A, c, m)
        if A.shape[0] == 0:
            return np.eye(c, dtype=np.int64)
    return DiagonalizedSystem(A, m).nullspace()


# ---------------------------------------------------------------------------
# integer Smith normal form (oracle route)
# ---------------------------------------------------------------------------

def smith_normal_form(A):
    """(D, U, V) with U A V = D over Z, U, V unimodular, divisor chain held.

    Pure-Python exact arithmetic; intended for small matrices (tests and
    quotient-structure oracles), not the large cocycle systems.
    """
    A = [[int(x) for x in row] for row in np.asarray(A)]
    r = len(A)
    c = len(A[0]) if r else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, j, s, t, ag, bg):
        for M in (A, U):
            ri = M[i][:]
            rj = M[j][:]
            M[i] = [s * x + t * y for x, y in zip(ri, rj)]
            M[j] = [-bg * x + ag * y for x, y in zip(ri, rj)]

    def col_op(i, j, s, t, ag, bg):
        for M in (A, V):
            for row in M:
                x, y = row[i], row[j]
                row[i] = s * x + t * y
                row[j] = -bg * x + ag * y

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for M in (A, V):
            for row in M:
                row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(r, c):
        # find smallest nonzero |entry| in the remaining block
        best = None
        for i in range(k, r):
            for j in range(k, c):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        changed = True
        while changed:
            changed = False
            a = A[k][k]
            for i in range(r):
                if i != k and A[i][k]:
                    b = A[i][k]
                    if b % a == 0:
                        q = b // a
                        row_op(k, i, 1, 0, 1, q)  # r_i <- r_i - q r_k
                        # row_op with (s,t,ag,bg) = (1,0,1,q): r_k stays,
                        # r_j <- -q r_k + r_j
                    else:
                        g, s, t = xgcd(a, b)
                        row_op(k, i, s, t, a // g, b // g)
                        a = A[k][k]
                    changed = True
            a = A[k][k]
            for j in range(c):
                if j != k and A[k][j]:
                    b = A[k][j]
                    if b % a == 0:
                        q = b // a
                        col_op(k, j, 1, 0, 1, q)
                    else:
                        g, s, t = xgcd(a, b)
                        col_op(k, j, s, t, a // g, b // g)
                        a = A[k][k]
                    changed = True
        # divisor chain: if A[k][k] does not divide some later entry, fold
        # that row in and redo this pivot
        d = A[k][k]
        bad = None
        for i in range(k + 1, r):
            for j in range(k + 1, c):
                if A[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into row k and redo this pivot
            row_op(k, bad, 1, 1, 1, 0)   # r_k <- r_k + r_bad, r_bad unchanged
            continue
        if d < 0:
            for M in (A, U):
                M[k] = [-x for x in M[k]]
        k += 1
    return (
        np.array(A, dtype=object),
        np.array(U, dtype=object),
        np.array(V, dtype=object),
    )


def elementary_divisor_chain(divs) -> tuple[int, ...]:
    """Normalize a multiset of cyclic orders to the divisor-chain form.

    The group ⊕ Z/d_i is isomorphic to ⊕ Z/e_i with e_1 | e_2 | ...; the
    e_i are produced by repeated (gcd, lcm) exchanges.  Trivial factors are
    dropped; result sorted ascending.
    """
    ds = [int(d) for d in divs if int(d) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a:
                    g = gcd(a, b)
                    ds[i], ds[j] = g, a * b // g
                    changed = True
    ds = [d for d in ds if d != 1]
    ds.sort()
    return tuple(ds)
