"""Exactness tests for the cyclotomic number type and its arrays.

Frozen expected values were derived by hand from standard identities
(2cos(pi/3) = 1, minimal polynomials of Gaussian periods, etc.); property
tests check the field axioms on randomly sampled values.
"""

import hashlib
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brpic.center import _s_matrix, modular_data, simple_objects
from brpic.chars import centralizer_table, character_table
from brpic.cohom import antisymmetrize, h2_classes, is_nondegenerate, sigma_from_eta
from brpic.cyclo import (
    CycloArray,
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
from brpic.groups import abelian_normal_subgroups, conjugacy_classes, named_group
from brpic.zmodlin import _phi


def _assert_canonical(x):
    """The one format: phi(n) int coordinates over a positive int
    denominator with content 1, at a conductor not 2 mod 4."""
    assert type(x.den) is int and all(type(v) is int for v in x.c)
    assert len(x.c) == _phi(x.n) and x.n % 4 != 2
    assert x.den > 0 and gcd(x.den, *x.c) == 1


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


@pytest.mark.parametrize("n, coeffs", [
    (3, [1]),                   # a rational stored at conductor 3
    (5, [1, 2]),                # fewer coordinates than the basis
    (5, [1, 2, 3, 4, 5, 6]),    # terms past the basis
    (10 ** 40, [1]),            # refused without factoring n
])
def test_constructor_refuses_a_wrong_number_of_coefficients(n, coeffs):
    message = rf"conductor {n} takes phi\({n}\) coefficients, got {len(coeffs)}"
    with pytest.raises(ValueError, match=message):
        Cyclotomic(n, coeffs)
    data = {"conductor": n, "coeffs": [[str(c), "1"] for c in coeffs]}
    with pytest.raises(ValueError, match=message):
        Cyclotomic.from_json(data)


@pytest.mark.parametrize("n", [-3, 0, 2.0, "5", True])
def test_constructor_refuses_a_conductor_that_is_not_an_int_at_least_one(n):
    with pytest.raises(ValueError, match=f"got {n!r}"):
        Cyclotomic(n, [1, 2])
    with pytest.raises(ValueError, match=f"got {n!r}"):
        Cyclotomic.from_json({"conductor": n, "coeffs": [["1", "1"]]})


# repr, and the sha256 of (to_json, order_key, hash), of values with a
# denominator above 1, recorded from the tuple-of-Fraction representation
# that preceded integer coordinates over one denominator
VALUE_PINS = [
    (lambda: root_of_unity(5) * Fraction(1, 2) - Fraction(3, 4),
     "-3/4 + 1/2*z5", "323cf90c755427f8"),
    (lambda: from_rational(Fraction(-7, 3)), "-7/3", "8438b5be158ccdae"),
    (lambda: root_of_unity(8) + root_of_unity(8, 3) * Fraction(1, 3),
     "z8 + 1/3*z8^3", "67045905efd528fb"),
    (lambda: Cyclotomic(6, [Fraction(1, 2), Fraction(-2, 3)]),
     "-1/6 - 2/3*z3", "ed24d82fd69a0c2e"),
    (lambda: from_rational(Fraction(5, 6)), "5/6", "2bf1283d670b11ec"),
    (lambda: Cyclotomic(12, [Fraction(1, 2), 0, Fraction(-1, 5), Fraction(3, 7)]),
     "1/2 - 1/5*z12^2 + 3/7*z12^3", "f473f79cd3bdb802"),
    (lambda: (root_of_unity(3) * 2 + 1) / 9, "1/9 + 2/9*z3", "e2ba82ca1f82316b"),
    (lambda: root_of_unity(9, 2) / 6 + Fraction(1, 4),
     "1/4 + 1/6*z9^2", "c3b88751176d3515"),
    (lambda: (root_of_unity(4) - 1) * Fraction(3, 8),
     "-3/8 + 3/8*z4", "6d4f38c520cc7381"),
    (lambda: Cyclotomic(15, [Fraction(k - 3, k + 2) for k in range(8)]),
     "-3/2 - 2/3*z15 - 1/4*z15^2 + 1/6*z15^4 + 2/7*z15^5 + 3/8*z15^6"
     " + 4/9*z15^7", "47edee1d98e4b465"),
    (lambda: Cyclotomic(7, [1, 2, 3, 4, 5, 6]) / -10,
     "-1/10 - 1/5*z7 - 3/10*z7^2 - 2/5*z7^3 - 1/2*z7^4 - 3/5*z7^5",
     "ad24a5aed50268b1"),
    (lambda: (root_of_unity(5, 2) + Fraction(1, 2)).inverse(),
     "-2/11 - 8/11*z5 - 4/11*z5^2 + 8/11*z5^3", "6ed323c7ff9fb8f1"),
]


@pytest.mark.parametrize("build, text, digest", VALUE_PINS,
                         ids=[text for _, text, _ in VALUE_PINS])
def test_rendering_pinned(build, text, digest):
    x = build()
    assert x.den > 1
    _assert_canonical(x)
    assert repr(x) == text
    record = (x.to_json(), x.order_key(), hash(x))
    assert hashlib.sha256(repr(record).encode()).hexdigest()[:16] == digest


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


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_every_operation_keeps_the_canonical_form(a, b):
    results = [a, b, a + b, a - b, 3 - a, -a, a * b, a * Fraction(-2, 3),
               a / -4, a.conj(), Cyclotomic.from_json(a.to_json())]
    results += [a.galois(j) for j in range(1, a.n) if gcd(j, a.n) == 1]
    if b:
        results += [b.inverse(), a / b, 1 / b]
    for x in results:
        _assert_canonical(x)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4", "A5", "S3xZ/2",
                                  "Z/2^2", "Z/3", "Z/5", "Z/6", "Z/2^3"])
def test_modular_data_entries_are_canonical(name):
    md = modular_data(named_group(name))
    for x in list(md.S.flat) + list(md.T):
        _assert_canonical(x)


def test_internal_checks_raise_certification_error():
    assert _poly_divmod_exact([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(CertificationError, match="nonzero remainder"):
        _poly_divmod_exact([1, 0, 1], [-1, 1])
    with pytest.raises(CertificationError, match="lift matrix"):
        _lift_matrix(3, 8)


# ---------------------------------------------------------------------------
# builds run on integer arrays, not on Cyclotomic arithmetic
# ---------------------------------------------------------------------------

def _forbid_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Cyclotomic arithmetic during a build")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(Cyclotomic, name, refuse)


@pytest.mark.parametrize("name", ["A5", "S5", "Q8xZ/3", "Z/3^2"])
def test_character_table_does_no_cyclotomic_arithmetic(monkeypatch, name):
    G = named_group(name)
    _forbid_arithmetic(monkeypatch)
    values = [v for ch in character_table(G) for v in ch.values]
    # one object per distinct value
    assert len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("name", ["S3", "Q8", "A4"])
def test_s_matrix_does_no_cyclotomic_arithmetic(monkeypatch, name):
    G = named_group(name)
    simples, classes = simple_objects(G), conjugacy_classes(G)
    tables = [centralizer_table(G, cl.rep) for cl in classes]
    want = modular_data(G).S
    _forbid_arithmetic(monkeypatch)
    S = _s_matrix(G, simples, classes, tables)
    assert all(x == y for x, y in zip(S.flat, want.flat))


@pytest.mark.parametrize("name", ["Z/2^2", "D4"])
def test_sigma_from_eta_does_no_cyclotomic_arithmetic(monkeypatch, name):
    G = named_group(name)
    cases = []
    for S in abelian_normal_subgroups(G):
        Sgrp, _ = S.as_group()
        cases += [(S, eta) for eta in h2_classes(Sgrp).representatives
                  if is_nondegenerate(antisymmetrize(eta, S))]
    assert len(cases) > 1
    _forbid_arithmetic(monkeypatch)
    for S, eta in cases:
        sigma = sigma_from_eta(S, eta)
        assert sigma.shape == (G.n, G.n)


# ---------------------------------------------------------------------------
# CycloArray against entry-by-entry Cyclotomic arithmetic
# ---------------------------------------------------------------------------

def _random_matrix(rng, n, shape):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = sum((root_of_unity(n, k) * Fraction(int(rng.integers(-3, 4)),
                                                        int(rng.integers(1, 3)))
                        for k in range(n)), zero())
    return out


def _same(got, want):
    return got.shape == want.shape and all(
        x == y for x, y in zip(got.flat, want.flat))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 12])
def test_cyclo_array_matches_entrywise_arithmetic(n):
    rng = np.random.default_rng(n)
    X, Y = _random_matrix(rng, n, (3, 3)), _random_matrix(rng, n, (3, 3))
    M = rng.integers(-5, 6, size=(3, 3))
    a, b = CycloArray.lift(X, 12 * n), CycloArray.lift(Y, 12 * n)
    conj = np.vectorize(lambda v: v.conj(), otypes=[object])
    assert _same(a.decode(), X)
    assert _same((a @ b).decode(), X @ Y)
    assert _same((a * b).decode(), X * Y)
    assert _same((a @ M).decode(), X @ M)
    assert _same((a * M[0]).decode(), X * M[0])
    assert _same((a / -4).decode(), X / -4)
    for x in (a / -4).decode().flat:
        _assert_canonical(x)
    assert _same(a.conj().transpose().decode(), conj(X).T)
    assert _same(a[1].decode(), X[1])
    assert np.array_equal(a == b, X == Y)
    assert (a == a.conj()).tolist() == (X == conj(X)).tolist()
    assert np.array_equal((a @ b) / 2 == (a / 2) @ b, np.ones((3, 3), bool))
    assert np.array_equal(a * 0 == 0, np.ones((3, 3), bool))


def test_cyclo_array_decodes_equal_values_to_one_object():
    z = root_of_unity(6, 1)
    X = np.array([[z, z * z], [z * z, -one()]], dtype=object)
    a = CycloArray.lift(X)
    assert a.L == 3                      # zeta_6 = -zeta_3^2
    Y = (a * a).decode()
    assert _same(Y, X * X)
    assert Y[0, 1] is Y[1, 0] and Y[1, 1] is not Y[0, 0]


def test_cyclo_array_from_roots():
    counts = np.array([[[2, 0, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]],
                       [[0, 0, 0, 3, 0, 0], [0, 1, 0, 0, 0, 1]]])
    got = CycloArray.from_roots(counts, 6).decode()
    want = [[sum((int(c) * root_of_unity(6, t) for t, c in enumerate(row)),
                 zero()) for row in rows] for rows in counts]
    assert got.tolist() == want
    assert got[1, 0] == -3 and got[0, 1] == 0


def test_cyclo_array_refuses_mixed_fields_and_division_by_zero():
    a = CycloArray.lift(np.array([root_of_unity(3, 1)], dtype=object))
    b = CycloArray.lift(np.array([root_of_unity(4, 1)], dtype=object))
    for op in (lambda: a @ b, lambda: a * b, lambda: a == b):
        with pytest.raises(ValueError, match="mixed"):
            op()
    with pytest.raises(DivisionByZero):
        a / 0
