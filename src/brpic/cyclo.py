"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Numbers are stored on the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n)
(z a fixed primitive n-th root of unity) with ``fractions.Fraction``
coefficients, and every value is kept in *canonical* form: the conductor is
the smallest n such that the value lies in Q(zeta_n) (so n is never
congruent to 2 mod 4, and rationals live at n = 1).  Equality, hashing and
serialization therefore agree with mathematical equality, with no floats
anywhere.

Design notes
------------
* Canonicalization descends n -> n/p whenever the value is fixed by the
  kernel of Gal(Q(zeta_n)) -> Gal(Q(zeta_{n/p})); membership is decided by
  exact Galois invariance and the rebasing is an exact linear solve.
* Multiplication works on integer vectors with a common denominator, so the
  common case (algebraic integers such as character values) never touches
  Fraction arithmetic in the inner loop.
* ``as_root_of_unity`` returns the minimal (m, k) with value = zeta_m^k;
  e.g. -1 -> (2, 1) and 1 + zeta_3 -> (6, 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import CertificationError, DivisionByZero
from .zmodlin import _factorize, _phi

# Re-exported rational type: reduced numerator/denominator, arbitrary precision.
Rational = Fraction

__all__ = [
    "Cyclotomic",
    "Rational",
    "root_of_unity",
    "zero",
    "one",
    "from_rational",
    "cyclo_sum",
]


# ---------------------------------------------------------------------------
# memoized integer tables (per conductor)
# ---------------------------------------------------------------------------

def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic); a nonzero remainder
    raises CertificationError."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num):
        raise CertificationError(
            "cyclotomic polynomial division: nonzero remainder"
        )
    return out


@lru_cache(maxsize=None)
def _cyclo_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, list(_cyclo_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k (0 <= k < n): integer coordinates of zeta_n^k on the power basis."""
    d = _phi(n)
    poly = _cyclo_poly(n)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        nxt = [0] + cur[: d - 1]
        top = cur[d - 1]
        if top:
            for j in range(d):
                nxt[j] -= top * poly[j]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _galois_matrix(n: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Rows i: coordinates of (zeta_n^i)^j; applying sigma_j is a left matvec."""
    table = _power_table(n)
    return tuple(table[(i * j) % n] for i in range(_phi(n)))


@lru_cache(maxsize=None)
def _lift_matrix(n: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Rows i: coordinates of zeta_n^i = zeta_big^(i*big/n) on the big basis."""
    if big % n:
        raise CertificationError(
            f"lift matrix: conductor {n} does not divide {big}"
        )
    table = _power_table(big)
    step = big // n
    return tuple(table[(i * step) % big] for i in range(_phi(n)))


@lru_cache(maxsize=None)
def _descent_kernel(n: int, d: int) -> tuple[int, ...]:
    """Elements of ker((Z/n)* -> (Z/d)*), excluding 1."""
    return tuple(
        j for j in range(1 + d, n, d) if gcd(j, n) == 1
    )


@lru_cache(maxsize=None)
def _descent_solver(n: int, d: int):
    """Return (den, rows) with rows/den a left inverse of the lift matrix d->n.

    Rebasing x in Q(zeta_n) to the smaller field is then the exact matvec
    y = rows @ coords / den (validity is guaranteed by Galois invariance).
    """
    lift = _lift_matrix(d, n)          # phi(d) rows of length phi(n)
    hn, hd = _phi(n), _phi(d)
    # Solve T . B = I for the phi(n) x phi(d) matrix B = lift^T by Gaussian
    # elimination on [B | I]; keep the rows that express the basis of the
    # small field, i.e. a left inverse of B.
    aug = [
        [Fraction(lift[c][r]) for c in range(hd)]
        + [Fraction(1 if k == r else 0) for k in range(hn)]
        for r in range(hn)
    ]
    pivot_rows: list[int] = []
    row = 0
    for col in range(hd):
        piv = next(r for r in range(row, hn) if aug[r][col] != 0)
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(hn):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivot_rows.append(row)
        row += 1
    sol = [aug[r][hd:] for r in pivot_rows]
    den = 1
    for r in sol:
        for v in r:
            den = lcm(den, v.denominator)
    rows = tuple(tuple(int(v * den) for v in r) for r in sol)
    return den, rows


def _int_matvec(coords: list[int], rows) -> list[int]:
    """sum_i coords[i] * rows[i] for integer rows (skipping zeros)."""
    width = len(rows[0])
    out = [0] * width
    for c, row in zip(coords, rows):
        if c:
            for j in range(width):
                out[j] += c * row[j]
    return out


# ---------------------------------------------------------------------------
# the number type
# ---------------------------------------------------------------------------

def _to_int_vec(coeffs) -> tuple[int, list[int]]:
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return den, [int(c * den) for c in coeffs]


class Cyclotomic:
    """An exact element of some Q(zeta_n), always in canonical form."""

    __slots__ = ("n", "c", "_hash")

    def __init__(self, n: int, coeffs, _canonical: bool = False):
        if _canonical:
            self.n = n
            self.c = coeffs
        else:
            val = _canonicalize(n, [Fraction(x) for x in coeffs])
            self.n = val.n
            self.c = val.c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),), _canonical=True)

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == 1 and self.c[0] == 0

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self!r} is irrational")
        return self.c[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return _canonicalize(self.n, [a + b for a, b in zip(self.c, other.c)])
        big = lcm(self.n, other.n)
        a = self._lift_coeffs(big)
        b = other._lift_coeffs(big)
        return _canonicalize(big, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-x for x in self.c), _canonical=True)

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.n == 1:
            q = other.c[0]
            if q == 0:
                return _ZERO
            return _canonicalize(self.n, [x * q for x in self.c])
        if self.n == 1:
            return other * self.c[0]
        big = lcm(self.n, other.n)
        da, va = _to_int_vec(self._lift_coeffs(big))
        db, vb = _to_int_vec(other._lift_coeffs(big))
        table = _power_table(big)
        h = _phi(big)
        conv = [0] * (len(va) + len(vb) - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    if y:
                        conv[i + j] += x * y
        out = conv[:h] + [0] * (h - min(h, len(conv)))
        for k in range(h, len(conv)):
            ck = conv[k]
            if ck:
                row = table[k % big]
                for j in range(h):
                    out[j] += ck * row[j]
        den = da * db
        return _canonicalize(big, [Fraction(v, den) for v in out])

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise DivisionByZero("inverse of 0 in a cyclotomic field")
        if self.n == 1:
            return Cyclotomic.rational(Fraction(1) / self.c[0])
        # Solve (mult-by-self) y = 1 exactly on the power basis.
        h = _phi(self.n)
        cols = []
        for i in range(h):
            unit = [Fraction(0)] * h
            unit[i] = Fraction(1)
            prod = self * Cyclotomic(self.n, tuple(unit), _canonical=True)
            cols.append(prod._lift_coeffs(self.n))
        aug = [[cols[j][i] for j in range(h)] + [Fraction(1 if i == 0 else 0)]
               for i in range(h)]
        for col in range(h):
            piv = next(r for r in range(col, h) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = Fraction(1) / aug[col][col]
            aug[col] = [v * inv for v in aug[col]]
            for r in range(h):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return _canonicalize(self.n, [aug[i][h] for i in range(h)])

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.n == 1:
            if other.c[0] == 0:
                raise DivisionByZero("division by 0")
            return self * Cyclotomic.rational(Fraction(1) / other.c[0])
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def conj(self) -> "Cyclotomic":
        """Complex conjugation (the Galois map zeta -> zeta^-1)."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def galois(self, j: int) -> "Cyclotomic":
        """Apply sigma_j: zeta_n -> zeta_n^j (requires gcd(j, n) = 1)."""
        if self.n == 1:
            return self
        if gcd(j, self.n) != 1:
            raise ValueError(f"galois exponent {j} not invertible mod {self.n}")
        den, vec = _to_int_vec(self.c)
        out = _int_matvec(vec, _galois_matrix(self.n, j % self.n))
        return _canonicalize(self.n, [Fraction(v, den) for v in out])

    # -- structure ---------------------------------------------------------

    def as_root_of_unity(self):
        """Minimal (m, k) with self = zeta_m^k, or None.

        Examples: 1 -> (1, 0); -1 -> (2, 1); 1 + zeta_3 = zeta_6 -> (6, 1).
        """
        if self.n == 1:
            if self.c[0] == 1:
                return (1, 0)
            if self.c[0] == -1:
                return (2, 1)
            return None
        if any(x.denominator != 1 for x in self.c):
            return None
        table = _power_table(self.n)
        ints = tuple(int(x) for x in self.c)
        for k in range(self.n):
            if table[k] == ints:
                r = self.n // gcd(self.n, k)
                return (r, k // (self.n // r))
        if self.n % 2 == 1:
            negs = tuple(-v for v in ints)
            for k in range(self.n):
                if table[k] == negs:
                    r = self.n // gcd(self.n, k) if k else 1
                    t = k // (self.n // r) if k else 0
                    return (2 * r, (r + 2 * t) % (2 * r))
        return None

    def order_key(self):
        """Deterministic sort key ordering +1 before -1, zeta before zeta^2.

        Rationals (conductor 1) come before irrationals; within a conductor
        the coefficient tuple is compared *descending*, so larger (more
        positive) values sort first.
        """
        return (self.n, tuple(-x for x in self.c))

    # -- plumbing ----------------------------------------------------------

    def _lift_coeffs(self, big: int) -> list[Fraction]:
        if big == self.n:
            return list(self.c)
        if self.n == 1:
            out = [Fraction(0)] * _phi(big)
            out[0] = self.c[0]
            return out
        den, vec = _to_int_vec(self.c)
        out = _int_matvec(vec, _lift_matrix(self.n, big))
        return [Fraction(v, den) for v in out]

    def key(self):
        return (self.n, self.c)

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        if self._hash is None:
            # a rational hashes like its Fraction, so like an equal int
            self._hash = hash(self.c[0]) if self.n == 1 else hash((self.n, self.c))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.n == 1:
            return str(self.c[0])
        terms = []
        for i, x in enumerate(self.c):
            if x == 0:
                continue
            if i == 0:
                terms.append(str(x))
                continue
            z = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
            if x == 1:
                terms.append(z)
            elif x == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{x}*{z}")
        out = " + ".join(terms).replace("+ -", "- ")
        return out if terms else "0"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "conductor": self.n,
            "coeffs": [[str(x.numerator), str(x.denominator)] for x in self.c],
        }

    @staticmethod
    def from_json(data) -> "Cyclotomic":
        return Cyclotomic(
            data["conductor"],
            [Fraction(int(num), int(den)) for num, den in data["coeffs"]],
        )


# ---------------------------------------------------------------------------
# coefficient tensors: arrays of numbers in one field Q(zeta_L)
# ---------------------------------------------------------------------------
#
# A tensor A of shape (phi(L), *shape) holds an array of elements of
# Q(zeta_L) on the power basis: entry idx is sum_k A[k][idx] * zeta_L^k.
# Entries are int64 while an explicit bound on every coefficient (and every
# partial sum formed on the way) fits; past that they are Python ints in an
# object array, and the same numpy calls run exactly on them.

_INT64_MAX = int(np.iinfo(np.int64).max)


def _fit(bound: int, *tensors):
    """The tensors, moved to exact Python ints when ``bound`` exceeds int64."""
    if bound <= _INT64_MAX:
        return tensors
    return tuple(t.astype(object) for t in tensors)


def _max_abs(t) -> int:
    return int(np.abs(t).max())


def _lift_tensor(values, L: int):
    """(den, A) with A / den the coefficient tensor of the object array of
    Cyclotomic ``values``, every conductor dividing L.

    Each distinct value is lifted once; ``den`` is the common denominator.
    """
    flat = values.ravel()
    index: dict[Cyclotomic, int] = {}
    ids = np.array([index.setdefault(v, len(index)) for v in flat], dtype=np.intp)
    lifted = [v._lift_coeffs(L) for v in index]
    den = 1
    for coeffs in lifted:
        for c in coeffs:
            den = lcm(den, c.denominator)
    rows = [[int(c * den) for c in coeffs] for coeffs in lifted]
    bound = max(abs(c) for row in rows for c in row)
    table = np.array(rows, dtype=np.int64 if bound <= _INT64_MAX else object)
    return den, table[ids].T.reshape((_phi(L),) + values.shape)


def _conj_map(L: int) -> np.ndarray:
    """Row i: coordinates of conj(zeta_L^i) = zeta_L^-i on the power basis."""
    return np.array(_galois_matrix(L, L - 1), dtype=np.int64)


def _reduction_map(L: int) -> np.ndarray:
    """Row t < 2 phi(L) - 1: coordinates of zeta_L^t on the power basis."""
    table = _power_table(L)
    return np.array([table[t % L] for t in range(2 * _phi(L) - 1)],
                    dtype=np.int64)


def _apply_plane_map(M: np.ndarray, A):
    """out[k] = sum_i M[i, k] * A[i]: a linear map on the coefficient planes."""
    bound = int(np.abs(M).sum(axis=0).max()) * _max_abs(A)
    M, A = _fit(bound, M, A)
    return np.tensordot(M.T, A, axes=1)


def _tensor_conj(A, L: int):
    """Coefficient tensor of the entrywise complex conjugate."""
    return _apply_plane_map(_conj_map(L), A)


def _tensor_product(A, B, L: int, op=np.matmul):
    """Coefficient tensor of op(a, b) over Q(zeta_L), op np.matmul or
    np.multiply (entrywise, with broadcasting).

    Plane t of the unreduced result is sum over i + j = t of op(A[i], B[j]):
    phi(L)^2 integer products into 2 phi(L) - 1 planes, then one reduction
    through zeta_L^t.  Each unreduced entry is a sum of at most
    phi(L) * inner products, so the bound below covers every partial sum.
    """
    h = _phi(L)
    inner = A.shape[-1] if op is np.matmul else 1
    A, B = _fit(h * inner * _max_abs(A) * _max_abs(B), A, B)
    planes = [None] * (2 * h - 1)
    for i in range(h):
        for j in range(h):
            term = op(A[i], B[j])
            planes[i + j] = term if planes[i + j] is None else planes[i + j] + term
    return _apply_plane_map(_reduction_map(L), np.stack(planes))


def _canonicalize(n: int, coeffs: list[Fraction]) -> Cyclotomic:
    """Reduce (n, coeffs) to the canonical minimal-conductor representation."""
    while n > 1:
        for p, _ in _factorize(n):
            d = n // p
            kernel = _descent_kernel(n, d)
            if kernel:
                _, vec = _to_int_vec(coeffs)
                fixed = True
                for j in kernel:
                    if _int_matvec(vec, _galois_matrix(n, j)) != vec:
                        fixed = False
                        break
                if not fixed:
                    continue
            sden, rows = _descent_solver(n, d)
            coeffs = [
                sum((r * c for r, c in zip(row, coeffs) if r), Fraction(0)) / sden
                for row in rows
            ]
            n = d
            break
        else:
            break
    return Cyclotomic(n, tuple(coeffs), _canonical=True)


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------

_ZERO = Cyclotomic(1, (Fraction(0),), _canonical=True)
_ONE = Cyclotomic(1, (Fraction(1),), _canonical=True)


def zero() -> Cyclotomic:
    return _ZERO


def one() -> Cyclotomic:
    return _ONE


def from_rational(q) -> Cyclotomic:
    return Cyclotomic.rational(q)


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k as an exact cyclotomic number (canonicalized)."""
    if n < 1:
        raise ValueError("order of a root of unity must be >= 1")
    k %= n
    if n == 1 or k == 0:
        return _ONE
    row = _power_table(n)[k]
    return _canonicalize(n, [Fraction(v) for v in row])


def cyclo_sum(values) -> Cyclotomic:
    total = _ZERO
    for v in values:
        total = total + v
    return total
