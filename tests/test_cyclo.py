"""Exactness tests for the cyclotomic number type.

Frozen expected values were derived by hand from standard identities
(2cos(pi/3) = 1, minimal polynomials of Gaussian periods, etc.); property
tests check the field axioms on randomly sampled values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brpic.cyclo import (
    Cyclotomic,
    cyclo_sum,
    from_rational,
    one,
    root_of_unity,
    zero,
)
from brpic.cyclo import _cyclo_poly  # internal, pinned against textbook values
from brpic.cyclo import _lift_matrix, _poly_divmod_exact
from brpic.errors import CertificationError, DivisionByZero


# ---------------------------------------------------------------------------
# frozen scalar facts
# ---------------------------------------------------------------------------

def test_minus_one_is_rational():
    x = root_of_unity(2, 1)
    assert x.is_rational()
    assert x.as_rational() == -1
    assert x == -1


def test_unit_roots_trivial_cases():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(5, 0) == 1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(4, 1) * root_of_unity(4, 3) == 1


def test_cos_pi_over_three():
    # zeta_6 + zeta_6^-1 = 2cos(pi/3) = 1
    assert root_of_unity(6, 1) + root_of_unity(6, 5) == 1


def test_conductor_six_collapses_to_three():
    # zeta_6 = 1 + zeta_3, so its canonical conductor is 3.
    z6 = root_of_unity(6, 1)
    assert z6.n == 3
    assert z6 == 1 + root_of_unity(3, 1)


def test_as_root_of_unity_frozen():
    assert one().as_root_of_unity() == (1, 0)
    assert from_rational(-1).as_root_of_unity() == (2, 1)
    assert (1 + root_of_unity(3, 1)).as_root_of_unity() == (6, 1)
    assert root_of_unity(4, 3).as_root_of_unity() == (4, 3)
    assert root_of_unity(9, 3).as_root_of_unity() == (3, 1)
    assert from_rational(2).as_root_of_unity() is None
    assert zero().as_root_of_unity() is None
    assert (root_of_unity(3, 1) + 5).as_root_of_unity() is None


@pytest.mark.parametrize("n", range(2, 13))
def test_root_sums_vanish(n):
    assert cyclo_sum(root_of_unity(n, k) for k in range(n)) == 0


@pytest.mark.parametrize("n", range(1, 16))
def test_as_root_of_unity_round_trip(n):
    from math import gcd
    for k in range(n):
        got = root_of_unity(n, k).as_root_of_unity()
        g = gcd(n, k) if k else n
        assert got == (n // g, k // g)


def test_gaussian_two():
    # (zeta_8 + zeta_8^-1)^2 = 2
    c = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert c * c == 2


def test_golden_period():
    # x = zeta_5 + zeta_5^-1 satisfies x^2 + x - 1 = 0
    x = root_of_unity(5, 1) + root_of_unity(5, 4)
    assert x * x + x - 1 == 0


def test_difference_of_squares():
    i = root_of_unity(4, 1)
    assert (1 + i) * (1 - i) == 2


def test_cyclotomic_polynomials_pinned():
    assert _cyclo_poly(1) == (-1, 1)
    assert _cyclo_poly(2) == (1, 1)
    assert _cyclo_poly(3) == (1, 1, 1)
    assert _cyclo_poly(4) == (1, 0, 1)
    assert _cyclo_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert _cyclo_poly(12) == (1, 0, -1, 0, 1)


def test_conjugation_frozen():
    assert root_of_unity(7, 3).conj() == root_of_unity(7, 4)
    assert from_rational(Fraction(2, 3)).conj() == Fraction(2, 3)


def test_inverse_frozen():
    assert root_of_unity(5, 1).inverse() == root_of_unity(5, 4)
    assert from_rational(Fraction(3, 2)).inverse() == Fraction(2, 3)
    with pytest.raises(DivisionByZero):
        zero().inverse()
    with pytest.raises(DivisionByZero):
        one() / 0


def test_order_key_sorts_plus_one_first():
    vals = [from_rational(-1), one(), zero()]
    assert sorted(vals, key=lambda v: v.order_key()) == [one(), zero(), from_rational(-1)]
    z3 = root_of_unity(3, 1)
    vals = [z3 * z3, z3, one()]
    assert sorted(vals, key=lambda v: v.order_key()) == [one(), z3, z3 * z3]
    # rationals sort before irrationals
    assert one().order_key() < root_of_unity(4, 1).order_key()


def test_serialization_round_trip():
    samples = [
        zero(),
        one(),
        from_rational(Fraction(-7, 3)),
        root_of_unity(12, 5),
        root_of_unity(5, 2) + Fraction(1, 2),
        (root_of_unity(8, 1) + 1) * (root_of_unity(3, 2) - 2),
    ]
    for x in samples:
        assert Cyclotomic.from_json(x.to_json()) == x


def test_hash_consistency():
    a = root_of_unity(6, 1)
    b = 1 + root_of_unity(3, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_rational_hashes_like_its_fraction():
    # equal values hash equally across Cyclotomic, int and Fraction
    assert one() == 1 and hash(one()) == hash(1)
    assert 1 in {one()} and one() in {1}
    assert hash(from_rational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert from_rational(Fraction(-3)) in {-3: "x"}


# ---------------------------------------------------------------------------
# property tests: field axioms
# ---------------------------------------------------------------------------

_CONDUCTORS = [1, 3, 4, 5, 8, 9, 12]


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from(_CONDUCTORS))
    width = {1: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 6, 12: 4}[n]
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=width,
            max_size=width,
        )
    )
    return Cyclotomic(n, coeffs)


@settings(max_examples=120, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero() == a
    assert a * one() == a
    assert a - a == 0


@settings(max_examples=80, deadline=None)
@given(cyclotomics())
def test_inverse_axiom(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == 1
        assert (one() / a) * a == 1


@settings(max_examples=80, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_an_automorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_lift_then_descend_is_identity(a):
    z = root_of_unity(8, 1)
    assert (a * z) * z.inverse() == a
    assert Cyclotomic.from_json(a.to_json()) == a


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_norm_is_nonnegative_rational(a):
    # a * conj(a) is fixed by conjugation; for our sampled conductors its
    # trace down to Q is a nonnegative rational (sum over the Galois orbit).
    m = a * a.conj()
    assert m.conj() == m
    if a.is_zero():
        assert m == 0


def test_internal_checks_raise_certification_error():
    assert _poly_divmod_exact([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(CertificationError, match="nonzero remainder"):
        _poly_divmod_exact([1, 0, 1], [-1, 1])
    with pytest.raises(CertificationError, match="lift matrix"):
        _lift_matrix(3, 8)
