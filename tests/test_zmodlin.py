"""Tests for the shared elimination and number-theory helpers in zmodlin,
each against a brute-force oracle or the dense reference routine."""

import itertools
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpic.errors import NotPrime
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
