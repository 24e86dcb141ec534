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
* ``CycloArray``, the one exact-array type, holds numbers of one field
  Q(zeta_L) as integer planes.  Character tables, S and the dual cocycle
  are built as CycloArrays and decoded once into shared ``Cyclotomic``
  objects; the certificates lift the released objects into it.
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
        """x^-1 = prod_{s != 1} s(x) / N(x): the norm N(x), x times its
        conjugates over Gal(Q(zeta_n)/Q), is a nonzero rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of 0 in a cyclotomic field")
        rest = Cyclotomic.rational(1)
        for j in range(2, self.n):
            if gcd(j, self.n) == 1:
                rest = rest * self.galois(j)
        return rest / (self * rest)

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
        lifted once."""
        index: dict[Cyclotomic, int] = {}
        ids = [index.setdefault(v, len(index)) for v in values.flat]
        if L is None:
            L = lcm(*(v.n for v in index))
        lifted = [v._lift_coeffs(L) for v in index]
        den = lcm(*(c.denominator for coeffs in lifted for c in coeffs))
        rows = [[int(c * den) for c in coeffs] for coeffs in lifted]
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
        """The entries as an object array of canonical Cyclotomic numbers;
        equal entries share one object."""
        keys = list(map(tuple, self.A.reshape(len(self.A), -1).T.tolist()))
        decoded = {key: _canonicalize(self.L, [Fraction(c, self.den) for c in key])
                   for key in set(keys)}
        out = np.empty(len(keys), dtype=object)
        out[:] = [decoded[key] for key in keys]
        return out.reshape(self.A.shape[1:])


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
