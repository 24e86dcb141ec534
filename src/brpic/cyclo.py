"""Exact arithmetic in cyclotomic fields Q(zeta_n).

One format holds every number: integer coordinates over one denominator,

    x = (c_0 + c_1 z + ... + c_(phi(n)-1) z^(phi(n)-1)) / den,

on the power basis of Q(zeta_n), z a fixed primitive n-th root of unity.  A
``Cyclotomic`` is one such column and a ``CycloArray`` is many of them over
one field and one denominator.  A ``Cyclotomic`` is always *canonical*: the
conductor n is the smallest with x in Q(zeta_n) (so n is never congruent to
2 mod 4, and rationals live at n = 1), den > 0 and gcd(den, c_0, ...) = 1.
Equality, hashing and serialization therefore agree with mathematical
equality, with no floats anywhere.

Design notes
------------
* All field arithmetic runs on Python ints: +, -, *, division, ``inverse``,
  ``galois``/``conj``, the lift to a larger field and the descent to a
  smaller one.  ``fractions.Fraction`` appears only at the boundary: the
  constructor's input, ``rational``/``as_rational``, ``order_key``,
  ``repr``, JSON and the hash (a rational hashes like its Fraction), plus
  the memoized descent solve.
* Canonicalization descends n -> n/p whenever the value is fixed by the
  kernel of Gal(Q(zeta_n)) -> Gal(Q(zeta_{n/p})); membership is decided by
  exact Galois invariance and the rebasing is an exact linear map.
* ``as_root_of_unity`` returns the minimal (m, k) with value = zeta_m^k;
  e.g. -1 -> (2, 1) and 1 + zeta_3 -> (6, 1).
* Character tables, S and the dual cocycle are built as CycloArrays and
  decoded once into shared ``Cyclotomic`` objects; the certificates lift
  the released objects into one CycloArray.
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
    "CycloArray",
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
    for col in range(hd):
        piv = next(r for r in range(col, hn) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(hn):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    sol = [r[hd:] for r in aug[:hd]]
    den = lcm(*(v.denominator for r in sol for v in r))
    rows = tuple(tuple(v.numerator * (den // v.denominator) for v in r)
                 for r in sol)
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

class Cyclotomic:
    """An exact element (c_0 + c_1 z + ...) / den of Q(zeta_n), canonical.

    ``n`` is the minimal conductor, ``c`` the tuple of phi(n) integer
    coordinates on the power basis and ``den`` > 0 their denominator, with
    gcd(den, *c) = 1: one column of a ``CycloArray``.
    ``Cyclotomic(n, coeffs)`` reads phi(n) rational coordinates (anything
    ``Fraction`` accepts) in Q(zeta_n) for an int n >= 1, and keeps the
    canonical form of their value.
    """

    __slots__ = ("n", "den", "c", "_hash")

    def __init__(self, n: int, coeffs):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"conductor must be an int >= 1, got {n!r}")
        coeffs = [Fraction(x) for x in coeffs]
        k = len(coeffs)
        # phi(n) >= sqrt(n/2), so a huge n is refused before it is factored
        if 2 * k * k < n or k != _phi(n):
            raise ValueError(
                f"conductor {n} takes phi({n}) coefficients, got {k}")
        den = lcm(*(x.denominator for x in coeffs))
        val = _canonicalize(
            n, den, [x.numerator * (den // x.denominator) for x in coeffs])
        self.n, self.den, self.c, self._hash = val.n, val.den, val.c, None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic._coerce(Fraction(q))

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(1, x.denominator, (x.numerator,))
        return NotImplemented  # type: ignore[return-value]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == 1 and self.c[0] == 0

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.c[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big = lcm(self.n, other.n)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        return _canonicalize(big, self.den * fa, [
            x * fa + y * fb for x, y in zip(self._lift(big), other._lift(big))])

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, self.den, [-x for x in self.c])

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
        a, b = (other, self) if self.n == 1 else (self, other)
        den = a.den * b.den
        if b.n == 1:
            # a rational factor keeps the conductor (or gives 0)
            q = b.c[0]
            return _make(a.n, den, [x * q for x in a.c]) if q else _ZERO
        big = lcm(a.n, b.n)
        va, vb = a._lift(big), b._lift(big)
        h = len(va)
        conv = [0] * (2 * h - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    if y:
                        conv[i + j] += x * y
        out = conv[:h]
        table = _power_table(big)
        for k in range(h, 2 * h - 1):
            ck = conv[k]
            if ck:
                row = table[k % big]
                for j in range(h):
                    out[j] += ck * row[j]
        return _canonicalize(big, den, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """x^-1 = prod_{s != 1} s(x) / N(x): the norm N(x), x times its
        conjugates over Gal(Q(zeta_n)/Q), is a nonzero rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of 0 in a cyclotomic field")
        if self.n == 1:
            return _make(1, self.c[0], (self.den,))
        rest = _ONE
        for j in range(2, self.n):
            if gcd(j, self.n) == 1:
                rest = rest * self.galois(j)
        return rest * (self * rest).inverse()

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        """Apply sigma_j: zeta_n -> zeta_n^j (requires gcd(j, n) = 1).  The
        conductor and the content are Galois invariant."""
        if self.n == 1:
            return self
        if gcd(j, self.n) != 1:
            raise ValueError(f"galois exponent {j} not invertible mod {self.n}")
        return _make(self.n, self.den,
                     _int_matvec(self.c, _galois_matrix(self.n, j % self.n)))

    # -- structure ---------------------------------------------------------

    def as_root_of_unity(self):
        """Minimal (m, k) with self = zeta_m^k, or None.

        Examples: 1 -> (1, 0); -1 -> (2, 1); 1 + zeta_3 = zeta_6 -> (6, 1).
        """
        if self.den != 1:
            return None
        n, table = self.n, _power_table(self.n)
        for k in range(n):
            if table[k] == self.c:
                r = n // gcd(n, k)
                return (r, k // (n // r))
        if n % 2 == 1:
            negs = tuple(-v for v in self.c)
            for k in range(n):
                if table[k] == negs:
                    r = n // gcd(n, k)
                    return (2 * r, (r + 2 * (k // (n // r))) % (2 * r))
        return None

    def order_key(self):
        """Deterministic sort key ordering +1 before -1, zeta before zeta^2.

        Rationals (conductor 1) come before irrationals; within a conductor
        the coefficient tuple is compared *descending*, so larger (more
        positive) values sort first.
        """
        return (self.n, tuple(-x for x in self._fractions()))

    # -- plumbing ----------------------------------------------------------

    def _lift(self, big: int):
        """The integer coordinates over ``den`` in Q(zeta_big), n | big."""
        if big == self.n:
            return self.c
        return _int_matvec(self.c, _lift_matrix(self.n, big))

    def _fractions(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, for the boundary methods only."""
        return tuple(Fraction(x, self.den) for x in self.c)

    def key(self):
        return (self.n, self.den, self.c)

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c and self.n == other.n and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            # the hash of the Fraction coordinates (an int hashes like its
            # Fraction), so a rational hashes like its Fraction and int
            q = self._fractions() if self.den > 1 else self.c
            self._hash = hash(q[0]) if self.n == 1 else hash((self.n, q))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.n == 1:
            return str(self.as_rational())
        terms = []
        for i, x in enumerate(self._fractions()):
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
            "coeffs": [[str(x.numerator), str(x.denominator)]
                       for x in self._fractions()],
        }

    @staticmethod
    def from_json(data) -> "Cyclotomic":
        return Cyclotomic(
            data["conductor"],
            [Fraction(int(num), int(den)) for num, den in data["coeffs"]],
        )


def _make(n: int, den: int, c) -> Cyclotomic:
    """The one maker of Cyclotomic objects: c / den, for integer
    coordinates c at their minimal conductor n, with the content divided
    out and the sign moved off den."""
    g = gcd(den, *c)
    if den < 0:
        g = -g
    x = object.__new__(Cyclotomic)
    x.n, x.den, x._hash = n, den // g, None
    x.c = tuple(c) if g == 1 else tuple(v // g for v in c)
    return x


def _canonicalize(n: int, den: int, c) -> Cyclotomic:
    """The canonical value of c / den (integer coordinates c) in Q(zeta_n)."""
    c = list(c)
    while n > 1:
        for p, _ in _factorize(n):
            d = n // p
            if all(_int_matvec(c, _galois_matrix(n, j)) == c
                   for j in _descent_kernel(n, d)):
                sden, rows = _descent_solver(n, d)
                c = [sum(r * x for r, x in zip(row, c) if r) for row in rows]
                den *= sden
                n = d
                break
        else:
            break
    return _make(n, den, c)


# ---------------------------------------------------------------------------
# exact arrays: many numbers in one field Q(zeta_L)
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _fit(bound: int, *tensors):
    """The tensors, moved to exact Python ints when ``bound`` exceeds int64."""
    if bound <= _INT64_MAX:
        return tensors
    return tuple(t.astype(object) for t in tensors)


def _max_abs(t) -> int:
    """The largest |entry| of ``t``, at least 1 (so a bound that scales a
    zero array still covers the scale)."""
    return max(int(np.abs(t).max()), 1)


def _plane_map(M, A):
    """out[k] = sum_i M[i, k] * A[i]: an integer linear map on the planes."""
    M = np.array(M, dtype=np.int64)
    M, A = _fit(int(np.abs(M).sum(axis=0).max()) * _max_abs(A), M, A)
    return np.tensordot(M.T, A, axes=1)


class CycloArray:
    """An exact array of numbers in one field Q(zeta_L).

    Entry idx is sum_k A[k][idx] * zeta_L^k / den: phi(L) integer planes on
    the power basis over one common denominator.  Each operation bounds every
    coefficient and partial sum it forms and runs on int64 when the bound
    fits, on Python ints (object arrays, the same numpy calls) otherwise.
    Products and comparisons take a CycloArray over the same L or an
    integer array.
    """

    __slots__ = ("L", "den", "A")

    def __init__(self, L: int, den: int, A):
        self.L, self.den, self.A = L, den, A

    @classmethod
    def lift(cls, values, L: int | None = None) -> "CycloArray":
        """The object array of Cyclotomic ``values`` in Q(zeta_L), by
        default L = the lcm of their conductors; each distinct value is
        lifted once, and their integer columns are stacked over one
        denominator."""
        index: dict[Cyclotomic, int] = {}
        ids = [index.setdefault(v, len(index)) for v in values.flat]
        if L is None:
            L = lcm(*(v.n for v in index))
        den = lcm(*(v.den for v in index))
        rows = [[x * (den // v.den) for x in v._lift(L)] for v in index]
        bound = max(abs(c) for row in rows for c in row)
        table = np.array(rows, dtype=np.int64 if bound <= _INT64_MAX else object)
        return cls(L, den, table[ids].T.reshape((_phi(L),) + values.shape))

    @classmethod
    def from_roots(cls, counts, m: int) -> "CycloArray":
        """Entry idx is sum_t counts[idx][t] * zeta_m^t, for an integer
        array ``counts`` of shape (*shape, m)."""
        return cls(m, 1, _plane_map(_power_table(m), np.moveaxis(counts, -1, 0)))

    def __getitem__(self, key) -> "CycloArray":
        """Entries indexed along the first axis: ``x[0]`` is the first row."""
        return CycloArray(self.L, self.den, self.A[:, key])

    def conj(self) -> "CycloArray":
        """The entrywise complex conjugate (zeta_L -> zeta_L^-1)."""
        return CycloArray(self.L, self.den,
                          _plane_map(_galois_matrix(self.L, self.L - 1), self.A))

    def transpose(self) -> "CycloArray":
        """The last two axes swapped (the matrix transpose)."""
        return CycloArray(self.L, self.den, np.swapaxes(self.A, -1, -2))

    def __matmul__(self, other) -> "CycloArray":
        return self._product(other, np.matmul)

    def __mul__(self, other) -> "CycloArray":
        """The entrywise product, broadcast as numpy does."""
        return self._product(other, np.multiply)

    def _product(self, other, op) -> "CycloArray":
        """op(self, other), op np.matmul or np.multiply.  By a CycloArray,
        plane t of the unreduced result is the sum over i + j = t of
        op(A[i], B[j]), reduced through zeta_L^t; each unreduced entry sums
        at most phi(L) * inner products, which the bound covers."""
        inner = self.A.shape[-1] if op is np.matmul else 1
        if not isinstance(other, CycloArray):
            A, M = _fit(inner * _max_abs(self.A) * _max_abs(other),
                        self.A, np.asarray(other))
            return CycloArray(self.L, self.den, op(A, M))
        self._same_field(other)
        h = _phi(self.L)
        A, B = _fit(h * inner * _max_abs(self.A) * _max_abs(other.A),
                    self.A, other.A)
        planes = [0] * (2 * h - 1)
        for i in range(h):
            for j in range(h):
                planes[i + j] = planes[i + j] + op(A[i], B[j])
        table = _power_table(self.L)
        fold = [table[t % self.L] for t in range(2 * h - 1)]
        return CycloArray(self.L, self.den * other.den,
                          _plane_map(fold, np.stack(planes)))

    def __truediv__(self, d: int) -> "CycloArray":
        """Every entry divided by the nonzero integer ``d``."""
        if d == 0:
            raise DivisionByZero("division by 0")
        return CycloArray(self.L, self.den * d, self.A)

    def __eq__(self, other) -> np.ndarray:
        """Entrywise equality with a CycloArray over the same L or with an
        integer array, as a boolean mask of the broadcast shape."""
        if not isinstance(other, CycloArray):
            (M,) = _fit(_max_abs(other) * abs(self.den), np.asarray(other))
            return (self.A[0] == M * self.den) & ~np.any(self.A[1:] != 0, axis=0)
        self._same_field(other)
        A, B = _fit(max(_max_abs(self.A) * abs(other.den),
                        _max_abs(other.A) * abs(self.den)), self.A, other.A)
        return np.all(A * other.den == B * self.den, axis=0)

    def _same_field(self, other: "CycloArray"):
        if other.L != self.L:
            raise ValueError(f"Q(zeta_{self.L}) and Q(zeta_{other.L}) mixed")

    def decode(self) -> np.ndarray:
        """The entries as an object array of canonical Cyclotomic numbers:
        one integer column canonicalized per distinct value, and equal
        entries share one object."""
        keys = list(map(tuple, self.A.reshape(len(self.A), -1).T.tolist()))
        decoded = {key: _canonicalize(self.L, self.den, key) for key in set(keys)}
        out = np.empty(len(keys), dtype=object)
        out[:] = [decoded[key] for key in keys]
        return out.reshape(self.A.shape[1:])


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------

_ZERO = _make(1, 1, (0,))
_ONE = _make(1, 1, (1,))


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
    return _canonicalize(n, 1, _power_table(n)[k])


def cyclo_sum(values) -> Cyclotomic:
    total = _ZERO
    for v in values:
        total = total + v
    return total
