"""Tests for the shared F_p elimination and number-theory helpers in zmodlin,
each against a brute-force oracle."""

import itertools
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpic.errors import NotPrime
from brpic.fpn import FpMatrix
from brpic.zmodlin import (
    _factorize,
    _inv_mod_p,
    _is_prime,
    _kernel_mod_p,
    _phi,
    _primitive_root,
    _rref_mod_p,
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
