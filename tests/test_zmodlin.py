"""Tests for the shared elimination and number-theory helpers in zmodlin,
each against a brute-force oracle or the dense reference routine."""

import itertools
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpic.errors import BudgetExceeded, NotPrime
from brpic import cohom, zmodlin
from brpic.fpn import FpMatrix
from brpic.groups import named_group
from brpic.zmodlin import (
    _factorize,
    _inv_mod_p,
    _is_prime,
    _kernel_mod_p,
    _phi,
    _primitive_root,
    _rref_mod_p,
    _select_spanning_rows,
    DiagonalizedSystem,
    diagonalize_mod,
    echelon_rows_mod,
    elementary_divisor_chain,
    nullspace_mod,
    solve_mod,
    xgcd,
)

PRIMES = [2, 3, 5, 7]


@st.composite
def matrices_mod_p(draw, square=False):
    """(p, A) with A a small integer matrix; entries may lie outside [0, p)."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    entries = draw(st.lists(st.integers(-2 * p, 2 * p),
                            min_size=rows * cols, max_size=rows * cols))
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


def _row_space(A, p):
    """Every F_p-combination of the rows of A, as a set of tuples."""
    return {
        tuple(int(x) for x in np.asarray(c, dtype=np.int64) @ A % p)
        for c in itertools.product(range(p), repeat=A.shape[0])
    }


def _brute_rank(A, p):
    size = len(_row_space(A, p))
    rank = 0
    while p ** rank < size:
        rank += 1
    assert p ** rank == size
    return rank


# ---------------------------------------------------------------------------
# elimination over F_p
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
def test_rref_is_idempotent(case):
    p, A = case
    R, pivots = _rref_mod_p(A, p)
    R2, pivots2 = _rref_mod_p(R, p)
    assert np.array_equal(R, R2)
    assert pivots == pivots2


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
def test_rref_rank_matches_row_space_count(case):
    p, A = case
    R, pivots = _rref_mod_p(A, p)
    assert len(pivots) == _brute_rank(A, p)
    assert _row_space(R, p) == _row_space(A, p)
    assert not R[len(pivots):].any()
    for i, j in enumerate(pivots):
        assert R[i, j] == 1 and not R[i, :j].any()
        assert np.count_nonzero(R[:, j]) == 1


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p(square=True))
def test_inverse_or_value_error(case):
    p, A = case
    n = A.shape[0]
    if _brute_rank(A, p) < n:
        with pytest.raises(ValueError):
            _inv_mod_p(A, p)
        return
    inv = _inv_mod_p(A, p)
    assert np.array_equal(inv @ A % p, np.eye(n, dtype=np.int64))
    assert np.array_equal(A @ inv % p, np.eye(n, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
def test_kernel_is_annihilated_and_has_full_dimension(case):
    p, A = case
    K = _kernel_mod_p(A, p)
    rank = _brute_rank(A, p)
    assert K.shape == (A.shape[1], A.shape[1] - rank)
    assert not (A @ K % p).any()
    assert len(_rref_mod_p(K.T, p)[1]) == K.shape[1]


def test_fixed_examples():
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    R, pivots = _rref_mod_p(A, 7)
    assert pivots == [0, 1]
    assert R.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert _kernel_mod_p(A, 7).tolist() == [[6], [6], [1]]
    assert _inv_mod_p([[0, 1], [1, 1]], 2).tolist() == [[1, 1], [1, 0]]
    with pytest.raises(ValueError, match="singular"):
        _inv_mod_p([[1, 2], [2, 4]], 5)


def one_matrix_rref(A, p, pivot_cols=None):
    """The sweep as it was before it took stacks: one matrix, scalar
    control flow, pivots searched in the first ``pivot_cols`` columns."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    for j in range(cols if pivot_cols is None else pivot_cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, j])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        row = R[r] * pow(int(R[r, j]), -1, p) % p
        R -= np.outer(R[:, j], row)
        R[r] = row
        R %= p
        pivots.append(j)
    return R, pivots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_stacked_sweep_matches_one_matrix_at_a_time(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        B, rows, cols = (int(x) for x in rng.integers(1, 7, size=3))
        A = rng.integers(0, p, size=(B, rows, cols))
        A[::3, :, 0] = 0                 # columns without a pivot
        A[1::4, -1] = A[1::4, 0]         # repeated rows
        pivot_cols = None if rng.random() < 0.5 else int(rng.integers(0, cols + 1))
        R, mask = _rref_mod_p(A, p, pivot_cols)
        for k in range(B):
            R1, pivots1 = one_matrix_rref(A[k], p, pivot_cols)
            assert np.array_equal(R[k], R1)
            assert np.flatnonzero(mask[k]).tolist() == pivots1
            R2, pivots2 = _rref_mod_p(A[k], p, pivot_cols)
            assert np.array_equal(R2, R1) and pivots2 == pivots1


# ---------------------------------------------------------------------------
# elimination over Z/p^k and Z/m against the dense one-step-at-a-time routines
# ---------------------------------------------------------------------------

def _dense_select_spanning_rows(A, p, k):
    """Reference: every pivot step rewrites each candidate row across all of
    its remaining columns."""
    q = p ** k
    W = A % q
    E, N = W.shape
    active = np.ones(E, dtype=bool)
    pivots = []
    for j in range(N):
        col = W[:, j]
        cand = np.nonzero(active & (col != 0))[0]
        if cand.size == 0:
            continue
        x = col[cand].copy()
        v = np.zeros(cand.size, dtype=np.int64)
        for _ in range(k):
            divisible = (x % p == 0) & (x != 0)
            v[divisible] += 1
            x[divisible] //= p
        order = np.lexsort((cand, v))
        r = int(cand[order[0]])
        pv = p ** int(v[order[0]])
        W[r, j:] = (W[r, j:] * pow(int(col[r]) // pv, -1, q)) % q
        others = cand[cand != r]
        if others.size:
            t = col[others] // pv
            W[others, j:] = (W[others, j:] - t[:, None] * W[r, j:]) % q
        active[r] = False
        pivots.append(r)
    return pivots


def _sequential_diagonalize_mod(A, m):
    """Reference: clears the pivot's column, then its row, one elementary
    operation at a time, and tracks U^-1 alongside U.  Returns
    (D, U, Uinv, V)."""
    D = np.asarray(A, dtype=np.int64).copy() % m
    r, c = D.shape
    U, Uinv = np.eye(r, dtype=np.int64), np.eye(r, dtype=np.int64)
    V = np.eye(c, dtype=np.int64)

    def row_add(i, j, q):
        D[i] = (D[i] + q * D[j]) % m
        U[i] = (U[i] + q * U[j]) % m
        Uinv[:, j] = (Uinv[:, j] - q * Uinv[:, i]) % m

    def row_combine(i, j, s, t, ag, bg):
        for M in (D, U):
            ri, rj = M[i].copy(), M[j].copy()
            M[i] = (s * ri + t * rj) % m
            M[j] = (-bg * ri + ag * rj) % m
        ci, cj = Uinv[:, i].copy(), Uinv[:, j].copy()
        Uinv[:, i] = (ag * ci + bg * cj) % m
        Uinv[:, j] = (-t * ci + s * cj) % m

    def col_add(i, j, q):
        D[:, i] = (D[:, i] + q * D[:, j]) % m
        V[:, i] = (V[:, i] + q * V[:, j]) % m

    def col_combine(i, j, s, t, ag, bg):
        for M in (D, V):
            ci, cj = M[:, i].copy(), M[:, j].copy()
            M[:, i] = (s * ci + t * cj) % m
            M[:, j] = (-bg * ci + ag * cj) % m

    for k in range(min(r, c)):
        while True:
            block = D[k:, k:]
            nz = np.nonzero(block)
            if nz[0].size == 0:
                break
            gs = np.gcd(block[nz], m)
            order = np.lexsort((nz[1], nz[0], gs))
            bi, bj = int(nz[0][order[0]]) + k, int(nz[1][order[0]]) + k
            if bi != k:
                D[[k, bi]] = D[[bi, k]]
                U[[k, bi]] = U[[bi, k]]
                Uinv[:, [k, bi]] = Uinv[:, [bi, k]]
            if bj != k:
                D[:, [k, bj]] = D[:, [bj, k]]
                V[:, [k, bj]] = V[:, [bj, k]]
            dirty = False
            a = int(D[k, k])
            for i in range(r):
                if i == k or D[i, k] == 0:
                    continue
                b = int(D[i, k])
                if b % a == 0:
                    row_add(i, k, -(b // a))
                else:
                    g, s, t = xgcd(a, b)
                    row_combine(k, i, s, t, a // g, b // g)
                    a = int(D[k, k])
                    dirty = True
            for j in range(c):
                if j == k or D[k, j] == 0:
                    continue
                b = int(D[k, j])
                if b % a == 0:
                    col_add(j, k, -(b // a))
                else:
                    g, s, t = xgcd(a, b)
                    col_combine(k, j, s, t, a // g, b // g)
                    a = int(D[k, k])
                    dirty = True
            if not dirty and not D[k, k + 1:].any() and not D[k + 1:, k].any():
                break
    return D, U, Uinv, V


@pytest.mark.parametrize("seed", range(40))
def test_select_spanning_rows_matches_dense_sweep(seed):
    rng = np.random.default_rng(seed)
    p = [2, 3, 5][seed % 3]
    k = 1 + seed % 4 % 3
    q = p ** k
    E, N = int(rng.integers(1, 60)), int(rng.integers(1, 25))
    density = rng.uniform(0.05, 0.4)
    A = rng.integers(-q, 2 * q, size=(E, N)) * (rng.random((E, N)) < density)
    before = A.copy()
    assert _select_spanning_rows(A, p, k) == _dense_select_spanning_rows(A, p, k)
    assert np.array_equal(A, before)                 # the input is not modified


@pytest.mark.parametrize("A,want", [
    ([[4], [2]], [1]),                  # the first candidate has valuation 2
    ([[6, 1], [4, 0], [2, 3]], [0, 1]),
    ([[4, 1], [6, 0], [2, 5]], [1, 0]),
    ([[0, 4], [4, 2], [1, 6]], [2, 1]),
])
def test_select_spanning_rows_takes_the_minimal_valuation(A, want):
    A = np.array(A, dtype=np.int64)
    assert _select_spanning_rows(A, 2, 3) == want
    assert _dense_select_spanning_rows(A, 2, 3) == want


@pytest.mark.parametrize("routine,args", [
    (echelon_rows_mod, ([[2, 1], [4, 3], [3, 0]], 2, 8)),
    (_select_spanning_rows, (np.array([[4, 1], [2, 3], [6, 0]]), 2, 3)),
    (diagonalize_mod, ([[2, 1], [4, 3], [3, 0]], 8)),
])
def test_eliminations_share_one_clearing_step(monkeypatch, routine, args):
    calls = []
    clear = zmodlin._clear
    monkeypatch.setattr(zmodlin, "_clear",
                        lambda *a: calls.append(a) or clear(*a))
    routine(*args)
    assert calls


DIAG_MODULI = [2, 4, 6, 8, 12, 16, 24, 30, 36]


def _diag_case(seed):
    """A random (A, m) with A at most 8 x 8 and about 60 % nonzero."""
    rng = np.random.default_rng(1000 + seed)
    m = DIAG_MODULI[seed % len(DIAG_MODULI)]
    r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    return rng.integers(0, m, size=(r, c)) * (rng.random((r, c)) < 0.6), m


@pytest.mark.parametrize("seed", range(45))
def test_diagonalize_mod_matches_sequential_routine(seed):
    A, m = _diag_case(seed)
    r, c = A.shape
    D, T = diagonalize_mod(A, m)
    assert not (D * (1 - np.eye(r, c, dtype=np.int64))).any()   # diagonal
    assert np.array_equal(T.U @ A @ T.V % m, D)
    D_ref, U_ref, _, V_ref = _sequential_diagonalize_mod(A, m)
    for got, want in zip((D, T.U, T.V), (D_ref, U_ref, V_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(45))
def test_solving_against_u_gives_the_reference_inverse(seed):
    # diagonalize_mod keeps no inverse; a caller reads column i of U^-1 as
    # the unique solution of U x = e_i
    A, m = _diag_case(seed)
    r = A.shape[0]
    _, T = diagonalize_mod(A, m)
    _, _, Uinv_ref, _ = _sequential_diagonalize_mod(A, m)
    usolver = DiagonalizedSystem(T.U, m)
    got = np.stack([usolver.solve(e) for e in np.eye(r, dtype=np.int64)], axis=1)
    assert np.array_equal(got, Uinv_ref)
    assert np.array_equal(T.U @ got % m, np.eye(r, dtype=np.int64))


@pytest.mark.parametrize("A,m", [
    ([[2, 0], [0, 1]], 4),              # row k has no unit; a later row does
    ([[2, 3], [1, 0]], 4),              # row k's first nonzero is no unit
    ([[0, 0, 0], [0, 0, 0]], 1),        # at m = 1, gcd(0, m) = 1: no pivot
])
def test_diagonalize_mod_pivot_choice_matches(monkeypatch, A, m):
    calls = []
    clear = zmodlin._clear
    monkeypatch.setattr(zmodlin, "_clear",
                        lambda *a: calls.append(a) or clear(*a))
    D, T = diagonalize_mod(A, m)
    assert bool(calls) == (m > 1)        # a zero block is never cleared
    D_ref, U_ref, _, V_ref = _sequential_diagonalize_mod(A, m)
    for got, want in zip((D, T.U, T.V), (D_ref, U_ref, V_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("A,m", [
    ([[4, 6]], 12),                     # row k: 4 does not divide 6
    ([[4], [6]], 12),                   # column k
    ([[6, 4, 9], [10, 15, 3], [8, 2, 21]], 30),
    ([[4, 8, 6], [6, 12, 10], [9, 4, 2]], 36),
])
def test_diagonalize_mod_xgcd_steps_match(monkeypatch, A, m):
    calls = []
    combine = zmodlin._combine
    monkeypatch.setattr(zmodlin, "_combine",
                        lambda *a: calls.append(a) or combine(*a))
    D, T = diagonalize_mod(A, m)
    assert calls                                     # the xgcd branch fired
    A = np.asarray(A, dtype=np.int64)
    assert np.array_equal(T.U @ A @ T.V % m, D)
    D_ref, U_ref, _, V_ref = _sequential_diagonalize_mod(A, m)
    for got, want in zip((D, T.U, T.V), (D_ref, U_ref, V_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("A", [
    [[1, 0], [0, 1], [1, 1]],           # more rows than columns: echelon first
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0], [0, 0]],           # echelon leaves no rows
])
def test_nullspace_mod_at_one_does_not_depend_on_the_shape(A):
    # over Z/1 every module is zero: no generators, whatever the row count
    assert nullspace_mod(A, 1).shape == (2, 0)


def test_nullspace_mod_of_a_zero_system_is_the_identity():
    for m in (2, 6):
        for rows in (1, 3):
            got = nullspace_mod(np.zeros((rows, 2), dtype=np.int64), m)
            assert np.array_equal(got, np.eye(2, dtype=np.int64))


def _streaming_echelon_rows_mod(equations, ncols, m):
    """Reference: reduces one row at a time, in input order, against the
    pivot rows found so far (one pivot row per leading column)."""
    rows = {}
    for eq in equations:
        v = np.asarray(eq, dtype=np.int64) % m
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                break
            lead = int(nz[0])
            if lead not in rows:
                rows[lead] = v
                break
            r = rows[lead]
            a, b = int(r[lead]), int(v[lead])
            if b % a == 0:
                v = (v - (b // a) * r) % m
            else:
                g, s, t = xgcd(a, b)
                rows[lead] = (s * r + t * v) % m
                v = ((a // g) * v - (b // g) * r) % m
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack([rows[k] for k in sorted(rows)])


def _assert_same_echelon(A, m):
    got = echelon_rows_mod(A, A.shape[1], m)
    want = _streaming_echelon_rows_mod(A, A.shape[1], m)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous


ECHELON_MODULI = [4, 6, 8, 9, 12, 16, 24, 27, 36, 60, 64]


def test_echelon_rows_mod_matches_streaming_routine(monkeypatch):
    calls = []
    monkeypatch.setattr(zmodlin, "xgcd",
                        lambda *a: calls.append(a) or xgcd(*a))
    fired = 0
    for seed in range(220):
        rng = np.random.default_rng(2000 + seed)
        m = ECHELON_MODULI[seed % len(ECHELON_MODULI)]
        E, N = int(rng.integers(1, 30)), int(rng.integers(1, 16))
        A = rng.integers(0, m, size=(E, N)) * (rng.random((E, N)) < 0.5)
        # scale some columns by non-units, so that a pivot may not divide
        # the entries below it
        nonunits = [x for x in range(2, m) if gcd(x, m) > 1]
        scale = rng.choice(nonunits, size=N) * (rng.random(N) < 0.5)
        A = A * np.where(scale, scale, 1)
        before, ncalls = A.copy(), len(calls)
        _assert_same_echelon(A, m)
        assert np.array_equal(A, before)             # the input is not modified
        fired += len(calls) > ncalls
    assert 0 < fired < 220                           # the xgcd branch fired


# the (group, modulus) pairs of the ``cohomology`` benchmark workload; None
# is the default modulus |G|
COHOMOLOGY_PAIRS = [("S4", 2), ("A4xZ/2", 2), ("Z/5:Z/4", 4), ("S3xZ/3", 6),
                    ("D4xZ/2", None), ("Q8xZ/2", None), ("A4", None),
                    ("D4", None)]


@pytest.mark.parametrize("name,m", COHOMOLOGY_PAIRS)
def test_echelon_rows_mod_matches_streaming_on_cocycle_systems(name, m):
    # the two systems h2_classes echelonizes: the chosen cocycle rows, and
    # the coboundary rows mod exp(G) behind _hom_generators
    G = named_group(name)
    m = m or G.n
    A = cohom._cocycle_equations(G, m)
    chosen = set()
    for p, k in _factorize(m):
        chosen.update(_select_spanning_rows(A, p, k))
    _assert_same_echelon(A[sorted(chosen)], m)
    e = G.exponent()
    _assert_same_echelon(cohom._coboundary_rows(G) % e, e)


@pytest.mark.parametrize("equations", [[], np.zeros((0, 3), dtype=np.int64)])
def test_echelon_rows_mod_of_no_rows_is_empty(equations):
    out = echelon_rows_mod(equations, 3, 5)
    assert out.shape == (0, 3) and out.dtype == np.int64


def test_echelon_rows_mod_at_modulus_one_is_empty():
    out = echelon_rows_mod([[1, 2, 3], [4, 5, 6]], 3, 1)
    assert out.shape == (0, 3) and out.dtype == np.int64


@pytest.mark.parametrize("equations,ncols,named", [
    ([[1, 2, 3]], 2, ("2 columns", "(1, 3)")),          # wider than ncols
    ([[1, 2]], 3, ("3 columns", "(1, 2)")),             # narrower
    ([[1, 2, 3], [1, 2]], 3, ("widths [2, 3]", "3 columns")),   # mixed
    ([1, 2, 3], 3, ("3 columns", "(3,)")),              # not 2-D
])
def test_echelon_rows_mod_refuses_rows_of_the_wrong_width(equations, ncols,
                                                          named):
    with pytest.raises(ValueError) as info:
        echelon_rows_mod(equations, ncols, 5)
    assert all(w in str(info.value) for w in named)


@pytest.mark.parametrize("m", [0, -3, -6])
@pytest.mark.parametrize("call", [
    lambda m: echelon_rows_mod([[1, 2], [3, 4], [5, 6]], 2, m),
    lambda m: diagonalize_mod([[1, 2], [3, 4]], m),
    lambda m: solve_mod([[1, 2], [3, 4]], [1, 1], m),
    lambda m: nullspace_mod([[2, 4], [4, 2]], m),
], ids=["echelon_rows_mod", "diagonalize_mod", "solve_mod", "nullspace_mod"])
def test_modulus_below_one_is_refused(call, m):
    with pytest.raises(ValueError, match=f"modulus m = {m} must be at least 1"):
        call(m)


# ---------------------------------------------------------------------------
# the clearing step and the solve against frozen copies of their loop forms
# ---------------------------------------------------------------------------

def _frozen_clear(A, M, m, r, j, rows):
    """Reference: ``_clear`` as one ``np.ix_`` gather, outer-product update
    and scatter per run and matrix.  The gathered entries are read as int64,
    so a matrix stored in a narrow unsigned dtype does not wrap."""
    A = A[:, j:]
    mats = (A,) if M is None else (A, M)
    a = int(A[r, 0])
    dirty = False
    while rows.size:
        b = A[rows, 0].astype(np.int64)
        bad = np.flatnonzero(b % a)
        stop = int(bad[0]) if bad.size else rows.size
        if stop:
            q = b[:stop] // a
            for X in mats:
                nzc = np.flatnonzero(X[r])
                sub = np.ix_(rows[:stop], nzc)
                Y = X[sub].astype(np.int64)
                Y -= np.multiply.outer(q, X[r, nzc].astype(np.int64))
                Y %= m
                X[sub] = Y
        if stop == rows.size:
            break
        i, bi = int(rows[stop]), int(b[stop])
        g, s, t = xgcd(a, bi)
        zmodlin._combine(mats, m, r, i, s, t, a // g, bi // g)
        a = int(A[r, 0])
        dirty = True
        rows = rows[stop + 1:]
    return dirty


def _frozen_solve(system, b):
    """Reference: ``DiagonalizedSystem.solve`` as one loop over every row."""
    m = system.m
    rhs = (system.T.U @ (np.asarray(b, dtype=np.int64) % m)) % m
    z = np.zeros(system.cols, dtype=np.int64)
    for i in range(system.rows):
        d = int(system.D[i, i]) if i < system.cols else 0
        val = int(rhs[i]) % m
        g = gcd(d, m)        # m when d = 0
        if val % g:
            return None
        if g == m:
            continue         # z_i unconstrained; take 0
        mg = m // g
        inv = pow((d // g) % mg, -1, mg)
        z[i] = (val // g) * inv % mg
    return (system.T.V @ z) % m


def _frozen(monkeypatch, routine, *args):
    """``routine(*args)`` with ``_clear`` swapped for the frozen copy."""
    with monkeypatch.context() as patch:
        patch.setattr(zmodlin, "_clear", _frozen_clear)
        return routine(*args)


def _assert_same_solves(monkeypatch, A, m, rhss):
    """Diagonalization, D, U, V and every solve (values and None) of the
    current routines equal those of the frozen copies.  Returns how many
    right-hand sides had no solution."""
    system = DiagonalizedSystem(A, m)
    ref = _frozen(monkeypatch, DiagonalizedSystem, A, m)
    for got, want in zip((system.D, system.T.U, system.T.V),
                         (ref.D, ref.T.U, ref.T.V)):
        assert np.array_equal(got, want)
    assert np.array_equal(system.nullspace(), ref.nullspace())
    unsolvable = 0
    for b in rhss:
        got, want = system.solve(b), _frozen_solve(system, b)
        assert (got is None) == (want is None)
        if want is None:
            unsolvable += 1
        else:
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(np.asarray(A) @ got % m, np.asarray(b) % m)
    return unsolvable


FROZEN_MODULI = [1, 2, 4, 6, 8, 9, 12, 16, 24, 27, 36, 60, 64]


def test_eliminations_match_the_frozen_copies(monkeypatch):
    calls = []
    monkeypatch.setattr(zmodlin, "xgcd",
                        lambda *a: calls.append(a) or xgcd(*a))
    fired = unsolvable = 0
    cases = 0
    for seed in range(130):
        rng = np.random.default_rng(3000 + seed)
        m = FROZEN_MODULI[seed % len(FROZEN_MODULI)]
        # rows > cols and rows < cols in turn
        short, long = int(rng.integers(1, 8)), int(rng.integers(8, 16))
        E, N = (long, short) if seed % 2 else (short, long)
        A = rng.integers(0, m, size=(E, N)) * (rng.random((E, N)) < 0.5)
        # scale half the columns by non-units, so that a pivot may not
        # divide the entries below it
        nonunits = [x for x in range(2, m) if gcd(x, m) > 1] or [1]
        scale = rng.choice(nonunits, size=N) * (rng.random(N) < 0.5)
        A = A * np.where(scale, scale, 1)
        ncalls = len(calls)
        got = echelon_rows_mod(A, N, m)
        assert np.array_equal(got, _frozen(monkeypatch, echelon_rows_mod,
                                           A, N, m))
        for p, k in _factorize(m):
            assert _select_spanning_rows(A, p, k) == _frozen(
                monkeypatch, _select_spanning_rows, A, p, k)
        x = rng.integers(0, m, size=(4, N))
        rhss = list(x @ A.T % m) + list(rng.integers(0, m, size=(4, E)))
        unsolvable += _assert_same_solves(monkeypatch, A, m, rhss)
        fired += len(calls) > ncalls
        cases += 1
    assert 0 < fired < cases                         # the xgcd step fired
    assert 0 < unsolvable                            # and solves said None


@pytest.mark.parametrize("name,m", COHOMOLOGY_PAIRS)
def test_cocycle_systems_match_the_frozen_copies(monkeypatch, name, m):
    # the systems h2_classes eliminates: spanning rows mod p^k, their
    # echelon, the nullspace basis and the solves against it
    G = named_group(name)
    m = m or G.n
    A = cohom._cocycle_equations(G, m)
    chosen = set()
    for p, k in _factorize(m):
        rows = _select_spanning_rows(A, p, k)
        assert rows == _frozen(monkeypatch, _select_spanning_rows, A, p, k)
        chosen.update(rows)
    small = echelon_rows_mod(A[sorted(chosen)], A.shape[1], m)
    assert np.array_equal(small, _frozen(
        monkeypatch, echelon_rows_mod, A[sorted(chosen)], A.shape[1], m))
    zbasis = nullspace_mod(small, m)
    assert np.array_equal(zbasis, _frozen(monkeypatch, nullspace_mod,
                                          small, m))
    rng = np.random.default_rng(len(name) * m)
    rhss = list((cohom._coboundary_rows(G) % m).T)
    rhss += list(rng.integers(0, m, size=(3, zbasis.shape[1])) @ zbasis.T % m)
    rhss += list(rng.integers(0, m, size=(3, zbasis.shape[0])))
    assert _assert_same_solves(monkeypatch, zbasis, m, rhss) >= 1


# ---------------------------------------------------------------------------
# narrow storage at the boundaries of the unsigned dtypes
# ---------------------------------------------------------------------------

# both sides of each unsigned boundary, and 768 = 2^8 * 3, whose 2-part 256
# fills uint8 exactly
BOUNDARY_MODULI = [255, 256, 257, 65535, 65536, 65537, 768]


@pytest.mark.parametrize("m,dtype", [
    (1, np.uint8), (2, np.uint8), (255, np.uint8), (256, np.uint8),
    (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
])
def test_mod_dtype_is_the_smallest_unsigned_dtype_of_the_residues(m, dtype):
    assert zmodlin._mod_dtype(m) == dtype


@pytest.mark.parametrize("m", BOUNDARY_MODULI)
def test_reduced_copy_is_narrow_and_exact(m):
    # m need not fit the input's dtype (uint8 % 256 overflows a uint8
    # scalar), and negative entries reduce to [0, m)
    rng = np.random.default_rng(m)
    for A in (rng.integers(-3 * m, 3 * m, size=(5, 7)),
              rng.integers(0, 2**16, size=(5, 7)).astype(np.uint16),
              rng.integers(0, 2**8, size=(5, 7)).astype(np.uint8),
              rng.integers(-128, 128, size=(5, 7)).astype(np.int8)):
        before = A.copy()
        got = zmodlin._reduced(A, m, order="F")
        assert got.dtype == zmodlin._mod_dtype(m) and got.flags.f_contiguous
        assert np.array_equal(got, A.astype(np.int64) % m)
        assert np.array_equal(A, before)


def _boundary_case(m, seed):
    """An int64 matrix with entries in [-3m, 3m), so negative and past m,
    about half of them zero; when m is composite, half its columns are
    scaled by a power of m's smallest prime, so that a pivot may not divide
    the entries below it."""
    rng = np.random.default_rng(4000 + seed)
    short, long = int(rng.integers(2, 7)), int(rng.integers(7, 12))
    E, N = (long, short) if seed % 2 else (short, long)
    A = rng.integers(-3 * m, 3 * m, size=(E, N)) * (rng.random((E, N)) < 0.5)
    p = _factorize(m)[0][0]
    if p < m:
        A = A * p ** (rng.integers(1, 4, size=N) * (rng.random(N) < 0.5))
    return A


@pytest.mark.parametrize("m", BOUNDARY_MODULI)
def test_eliminations_at_storage_boundaries_match_the_references(
        monkeypatch, m):
    calls = []
    monkeypatch.setattr(zmodlin, "xgcd",
                        lambda *a: calls.append(a) or xgcd(*a))
    for seed in range(6):
        A = _boundary_case(m, seed)
        E, N = A.shape
        before = A.copy()
        got = echelon_rows_mod(A, N, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, _streaming_echelon_rows_mod(A, N, m))
        assert np.array_equal(got, _frozen(monkeypatch, echelon_rows_mod,
                                           A, N, m))
        assert zmodlin._echelon_rows(A, m).dtype == zmodlin._mod_dtype(m)
        for p, k in _factorize(m):
            rows = _select_spanning_rows(A, p, k)
            assert rows == _dense_select_spanning_rows(A, p, k)
            assert rows == _frozen(monkeypatch, _select_spanning_rows,
                                   A, p, k)
        D, T = diagonalize_mod(A, m)
        D_ref, U_ref, _, V_ref = _sequential_diagonalize_mod(A, m)
        for got, want in zip((D, T.U, T.V), (D_ref, U_ref, V_ref)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        kernel = nullspace_mod(A, m)
        assert kernel.dtype == np.int64
        assert np.array_equal(kernel, _frozen(monkeypatch, nullspace_mod,
                                              A, m))
        assert not (A @ kernel % m).any()
        rng = np.random.default_rng(m + seed)
        rhss = list(rng.integers(-m, 2 * m, size=(3, N)) @ A.T)
        rhss += list(rng.integers(-m, 2 * m, size=(3, E)))
        _assert_same_solves(monkeypatch, A, m, rhss)
        assert np.array_equal(A, before)             # the input is not modified
    assert calls                                     # the xgcd step fired


@pytest.mark.parametrize("A,b", [
    ([[1], [0]], [0, 1]),               # rows > cols: the tail row is 0 = 1
    ([[2, 0], [0, 0], [0, 0]], [2, 0, 3]),
    ([[0, 0], [0, 0]], [0, 5]),         # a zero diagonal entry
])
def test_solve_refuses_a_nonzero_right_side_past_the_diagonal(A, b):
    assert solve_mod(A, b, 6) is None
    system = DiagonalizedSystem(A, 6)
    assert _frozen_solve(system, b) is None


@pytest.mark.parametrize("A", [[[1, 2], [3, 4]], [[1], [2], [3]],
                               [[1, 2, 3]], [[0, 0]]])
def test_solve_at_modulus_one_is_zero(A):
    cols = len(A[0])
    b = [5] * len(A)
    x = solve_mod(A, b, 1)
    assert x.dtype == np.int64 and x.tolist() == [0] * cols


def test_solve_needs_the_gcd_of_a_diagonal_entry_to_divide():
    # 4 x = b over Z/6: gcd(4, 6) = 2 divides 0, 2 and 4 only
    system = DiagonalizedSystem([[4]], 6)
    assert system.D.tolist() == [[4]]
    for b in range(6):
        x = system.solve([b])
        assert (x is None) == (b % 2 == 1)
        assert (x is None) == (_frozen_solve(system, [b]) is None)
        if x is not None:
            assert 4 * int(x[0]) % 6 == b


# ---------------------------------------------------------------------------
# the int64 limit on the modulus
# ---------------------------------------------------------------------------

BIG_M = 2**40 + 15      # one product (m - 1)^2 already passes 2**63


def test_solve_mod_refuses_an_overflowing_modulus():
    rng = np.random.default_rng(40)
    for _ in range(20):
        A = rng.integers(0, BIG_M, size=(3, 3))
        b = rng.integers(0, BIG_M, size=3)
        with pytest.raises(BudgetExceeded, match="FPN_INT64_LIMIT"):
            solve_mod(A, b, BIG_M)


@pytest.fixture
def no_elimination(monkeypatch):
    """Fail the test if an elimination or a cocycle system gets built."""
    def refuse(*args):
        pytest.fail("elimination started")

    monkeypatch.setattr(zmodlin, "_clear", refuse)
    monkeypatch.setattr(cohom, "_cocycle_equations", refuse)


@pytest.mark.parametrize("call", [
    lambda m: echelon_rows_mod([[1, 2], [3, 4], [5, 6]], 2, m),
    lambda m: diagonalize_mod([[1, 2], [3, 4]], m),
    lambda m: DiagonalizedSystem([[1, 2], [3, 4]], m),
    lambda m: solve_mod([[1, 2], [3, 4]], [1, 1], m),
    lambda m: nullspace_mod([[2, 4], [4, 2], [1, 1]], m),
    lambda m: cohom.h2_classes(named_group("S3"), m),
], ids=["echelon_rows_mod", "diagonalize_mod", "DiagonalizedSystem",
        "solve_mod", "nullspace_mod", "h2_classes"])
def test_overflowing_modulus_is_refused_before_any_work(no_elimination,
                                                        call):
    with pytest.raises(BudgetExceeded, match="FPN_INT64_LIMIT"):
        call(BIG_M)


# sums of two products (an xgcd step) fit below 2**63, sums of three do not
TWO_TERM_M = 2**31 - 1


@pytest.mark.parametrize("call", [
    lambda m: diagonalize_mod([[1, 2], [3, 4], [5, 6]], m),
    lambda m: diagonalize_mod([[1, 2, 3], [4, 5, 6]], m),
    lambda m: nullspace_mod([[1, 2, 3]] * 4, m),
    lambda m: cohom.h2_classes(named_group("S3"), m),
], ids=["three rows", "three columns", "nullspace_mod", "h2_classes"])
def test_limit_counts_the_longest_sum(no_elimination, call):
    # a solve sums one product per row (U @ b) or column (V @ z); the
    # echelon in front of nullspace_mod and h2_classes' cocycle system
    # are not started either
    with pytest.raises(BudgetExceeded, match="sums of (3|36) products"):
        call(TWO_TERM_M)


def test_two_term_sums_pass_below_their_limit():
    m = TWO_TERM_M
    assert echelon_rows_mod([[1, 2, 3]] * 4, 3, m).tolist() == [[1, 2, 3]]
    x = solve_mod([[1, 2], [3, 4]], [1, 1], m).tolist()
    assert [(x[0] + 2 * x[1]) % m, (3 * x[0] + 4 * x[1]) % m] == [1, 1]


def test_largest_admitted_modulus_solves_exactly():
    # the largest m with 3 (m - 1)^2 < 2**63: every 3 x 3 solve is exact
    m = isqrt((2**63 - 1) // 3) + 1
    zmodlin._check_modulus(m, 3)
    with pytest.raises(BudgetExceeded):
        zmodlin._check_modulus(m + 1, 3)
    rng = np.random.default_rng(63)
    for _ in range(20):
        A = rng.integers(0, m, size=(3, 3)).tolist()
        x0 = rng.integers(0, m, size=3).tolist()
        b = [sum(a * x for a, x in zip(row, x0)) % m for row in A]
        x = solve_mod(A, b, m).tolist()
        assert [sum(a * v for a, v in zip(row, x)) % m for row in A] == b


def test_int64_check_runs_once_per_elimination(monkeypatch):
    sizes = []
    check = zmodlin._check_int64
    monkeypatch.setattr(zmodlin, "_check_int64",
                        lambda size, m: sizes.append(size) or check(size, m))
    system = DiagonalizedSystem([[2, 4, 1], [4, 2, 3]], 12)
    for b in itertools.product(range(12), repeat=2):
        system.solve(b)
    system.nullspace()
    assert sizes == [3]


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def _brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_factorize_against_brute_force():
    assert _factorize(1) == ()
    for n in range(2, 501):
        fac = _factorize(n)
        ps = [p for p, _ in fac]
        assert ps == sorted(set(ps))
        assert all(_brute_is_prime(p) and k >= 1 for p, k in fac)
        assert prod(p ** k for p, k in fac) == n


def test_is_prime_against_brute_force():
    for n in range(-3, 501):
        assert _is_prime(n) == _brute_is_prime(n), n


def test_phi_against_brute_force():
    for n in range(1, 501):
        assert _phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n


def _multiplicative_order(g, p):
    k, x = 1, g % p
    while x != 1:
        x, k = x * g % p, k + 1
    return k


def test_primitive_root_is_smallest_generator():
    for p in range(2, 501):
        if not _brute_is_prime(p):
            continue
        smallest = next(g for g in range(1, p)
                        if _multiplicative_order(g, p) == p - 1)
        assert _primitive_root(p) == smallest, p
    assert _primitive_root(2) == 1


@pytest.mark.parametrize("n", [4, 1, 0, 9])
def test_fpmatrix_rejects_a_non_prime(n):
    with pytest.raises(NotPrime):
        FpMatrix(n, np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("divs, chain", [
    ([2, 3], (6,)),             # coprime orders merge into one cycle
    ([4, 6], (2, 12)),
    ([6, 4, 1], (2, 12)),       # trivial factors are dropped
    ([2, 4], (2, 4)),           # already a chain: nothing to exchange
    ([3, 2, 2], (2, 6)),
    ([1, 1], ()),
])
def test_elementary_divisor_chain_exchanges_gcd_and_lcm(divs, chain):
    assert elementary_divisor_chain(divs) == chain
