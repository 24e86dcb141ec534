"""Exact irreducible character tables and Clifford decomposition.

The table is computed by the modular class-algebra method: the class-sum
structure constants are simultaneously diagonalized over F_p for a prime
p = 1 (mod exp G), p > 2*sqrt(|G|), and each character is lifted exactly to
cyclotomic values via root-of-unity multiplicities on cyclic subgroups: one
mod-p DFT per class gives the multiplicity of every root of unity for every
character, and ``cyclo.CycloArray.from_roots`` turns the counts into the
table, decoded once, so equal values share one object.  The result is
certified before being returned, so downstream consumers can rely on it
unconditionally: the released table is lifted once into Q(zeta_L), L the lcm
of the conductors of its values, as a ``cyclo.CycloArray``, and row
orthogonality is checked as an exact array equality.  A failure raises
CharacterTableError naming the relation and a witness (i, j), also under
``python -O``.

``centralizer_table`` builds one table per distinct centralizer: elements
with equal centralizers share it.

The characters of an abelian group are also kept as integer exponent rows
(``_exponent_rows``).  ``clifford_decomposition`` reads the conjugation
action of G on the characters of an abelian normal S off one integer table,
``act[g, k]`` = the index of g . lambda_k, so the single-orbit certificate
is one column of it and each inertia subgroup the rows fixing k.

Row order is deterministic: by (degree, per-class value keys), where the
value key orders rationals before irrationals and +1 before -1 (so the
trivial character is always row 0, and for a cyclic group the zeta-character
precedes the zeta^2-character).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .cyclo import Cyclotomic, CycloArray, cyclo_sum
from .errors import (
    CharacterTableError,
    NoSuchCharacter,
    NotAbelianNormal,
    NotASubgroup,
    NotIrreducible,
)
from .groups import (FiniteGroup, Subgroup, centralizer, class_of,
                     conjugacy_classes, _class_indices)
from .zmodlin import _is_prime, _kernel_mod_p, _primitive_root

__all__ = [
    "ClassFunction",
    "Character",
    "CliffordComponent",
    "character_table",
    "centralizer_table",
    "restrict",
    "inner_product",
    "tensor",
    "is_irreducible",
    "decompose",
    "find_character",
    "linear_characters",
    "clifford_decomposition",
]


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassFunction:
    """A function on conjugacy classes, one Cyclotomic per class."""
    group: FiniteGroup
    values: tuple[Cyclotomic, ...]

    def value_at_element(self, g: int) -> Cyclotomic:
        return self.values[class_of(self.group, g)]

    def key(self):
        return tuple(v.order_key() for v in self.values)


class Character(ClassFunction):
    """An irreducible character (certified at table construction)."""

    @property
    def degree(self) -> int:
        return int(self.values[0].as_rational())

    def is_linear(self) -> bool:
        return self.degree == 1


@dataclass(frozen=True)
class CliffordComponent:
    """One isotypic piece of a restriction to an abelian normal subgroup:
    a linear character of S, its multiplicity dimension (dim E_i), and its
    inertia subgroup in G."""
    linear_char: Character
    multiplicity_dim: int
    inertia: Subgroup


# ---------------------------------------------------------------------------
# the table algorithm
# ---------------------------------------------------------------------------

def _dixon_prime(e: int, order: int) -> int:
    bound = 2 * isqrt(order - 1) + 2 if order > 1 else 2
    p = e + 1
    while True:
        if p > bound and _is_prime(p):
            return p
        p += e


def _class_matrices(G: FiniteGroup):
    classes = conjugacy_classes(G)
    r = len(classes)
    cls_of = _class_indices(G)
    mats = np.zeros((r, r, r), dtype=np.int64)
    # a[i, j, k] = #{(x, y) in C_i x C_j : x y in fixed rep position of C_k},
    # accumulated over all of C_k and divided by |C_k| at the end.
    for i, ci in enumerate(classes):
        for x in ci.members:
            prods = cls_of[G.table[x, :]]
            np.add.at(mats[i], (cls_of, prods), 1)
    for k, ck in enumerate(classes):
        mats[:, :, k] //= ck.size
    return mats


def character_table(G: FiniteGroup) -> list[Character]:
    """All irreducible characters, exact, certified, deterministically ordered."""
    if "chartable" in G._memo:
        return G._memo["chartable"]
    classes = conjugacy_classes(G)
    r = len(classes)
    n = G.n
    e = G.exponent()
    p = _dixon_prime(e, n)
    mats = _class_matrices(G)          # mats[i]: matrix (M_i)_{jk} = a_{ijk}
    # --- simultaneous eigenvectors over F_p --------------------------------
    # each space is a basis B (columns) with B[R] = I on its pivot rows R,
    # so M B = B A gives the restriction A = (M B)[R] with no inverse, and
    # a kernel basis K of A - lambda with K[free] = I gives the next basis
    # B K, whose pivot rows are R[free]
    spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
    for i in range(1, r):
        M = mats[i] % p
        nxt = []
        for B, R in spaces:
            d = B.shape[1]
            A = (M[R] @ B) % p
            if np.array_equal(A, A[0, 0] * np.eye(d, dtype=np.int64)):
                nxt.append((B, R))         # one eigenvalue: nothing splits
                continue
            # the eigenspaces of A: the kernels of A - lambda for all lambda
            # in F_p, swept as stacks of at most about 2**16 entries
            found, step = [], max(1, 2**16 // (d * d))
            for lo in range(0, p, step):
                lams = np.arange(lo, min(lo + step, p))[:, None, None]
                Ks = _kernel_mod_p((A - lams * np.eye(d, dtype=np.int64)) % p, p)
                # the 1 of each column of K is its last nonzero entry: the
                # pivot rows after its free column are zero there
                found += [((B @ K) % p,
                           R[d - 1 - np.argmax(K[::-1] != 0, axis=0)])
                          for K in Ks if K.shape[1]]
            if sum(Rk.size for _, Rk in found) != d:
                raise CharacterTableError("eigen-splitting lost dimensions")
            nxt.extend(found)
        spaces = nxt
        if all(R.size == 1 for _, R in spaces):
            break
    if not all(R.size == 1 for _, R in spaces):
        raise CharacterTableError("class algebra did not fully split")
    # --- per-character data mod p ------------------------------------------
    inv_class = [class_of(G, G.inv_of(c.rep)) for c in classes]
    sizes = [c.size for c in classes]
    w_root = pow(_primitive_root(p), (p - 1) // e, p)
    raw_rows = []
    for B, _ in spaces:
        w = B[:, 0] % p
        if w[0] % p == 0:
            raise CharacterTableError("eigenvector vanishes on the unit class")
        w = (w * pow(int(w[0]), -1, p)) % p
        t = 0
        for j in range(r):
            t = (t + w[j] * w[inv_class[j]] * pow(sizes[j], -1, p)) % p
        d2 = n * pow(int(t), -1, p) % p
        deg = None
        for d in range(1, isqrt(n) + 1):
            if d * d % p == d2:
                deg = d
                break
        if deg is None:
            raise CharacterTableError("no integer degree matches d^2 mod p")
        chi_p = [(w[j] * deg * pow(sizes[j], -1, p)) % p for j in range(r)]
        raw_rows.append((deg, chi_p))
    # --- exact lift via root-of-unity multiplicities -----------------------
    # counts[c, j, t e / nj]: the multiplicity of zeta_nj^t as an eigenvalue
    # of class j's representative g (of order nj) under character c, the
    # mod-p DFT of c over the powers of g, one matrix product per class
    chi = np.array([chi_p for _, chi_p in raw_rows], dtype=np.int64)
    degs = np.array([deg for deg, _ in raw_rows])
    cls_of = _class_indices(G)
    counts = np.zeros((r, r, e), dtype=np.int64)
    for j, cl in enumerate(classes):
        nj = G.order_of(cl.rep)
        powers = [G.identity]
        for _ in range(nj - 1):
            powers.append(G.mul(powers[-1], cl.rep))
        zj = pow(w_root, e // nj, p)
        k = np.arange(nj)
        dft = np.array([pow(zj, s, p) for s in range(nj)])[-np.outer(k, k) % nj]
        # entries below p: each sum < nj p^2, exact in int64 as in the sweep
        mults = chi[:, cls_of[powers]] @ dft % p * pow(nj, -1, p) % p
        counts[:, j, k * (e // nj)] = mults
    over = np.argwhere(counts > degs[:, None, None])
    if len(over):
        i, j, t = over[0]
        raise CharacterTableError(
            f"multiplicity lift {counts[i, j, t]} exceeds degree {degs[i]}")
    totals = counts.sum(axis=2)
    off = np.argwhere(totals != degs[:, None])
    if len(off):
        i, j = off[0]
        raise CharacterTableError(f"eigenvalue multiplicities sum to"
                                  f" {totals[i, j]}, expected {degs[i]}")
    values = CycloArray.from_roots(counts, e).decode()
    chars = [Character(G, tuple(row)) for row in values]
    # --- deterministic order and exact certification -----------------------
    chars.sort(key=lambda ch: (ch.degree, ch.key()))
    _certify(G, chars)
    G._memo["chartable"] = chars
    return chars


def _certify(G: FiniteGroup, chars: list[Character]):
    """One character per class, then row orthogonality as an exact array
    equality.

    The table X (characters x classes) is lifted once into Q(zeta_L), L the
    lcm of the conductors of its values, and X diag(sizes) conj(X)^T = |G| I
    is checked as a ``CycloArray`` equality.  That makes the square table X
    invertible, so column orthogonality, conj(X)^T X = diag(|G| / |class|),
    follows and needs no check of its own.
    """
    classes = conjugacy_classes(G)
    r = len(classes)
    if len(chars) != r:
        raise CharacterTableError(f"{len(chars)} characters for {r} classes")
    if sum(ch.degree ** 2 for ch in chars) != G.n:
        raise CharacterTableError("sum of squared degrees != |G|")
    X = CycloArray.lift(np.array([ch.values for ch in chars], dtype=object))
    sizes = np.array([c.size for c in classes])
    rows = (X * sizes) @ X.conj().transpose()
    hits = np.argwhere(~(rows == G.n * np.eye(r, dtype=np.int64)))
    if len(hits):
        i, j = (int(x) for x in hits[0])
        raise CharacterTableError(f"row orthogonality fails at ({i},{j})")


def centralizer_table(G: FiniteGroup, g: int):
    """(centralizer-as-group, parent element list, its character table).

    Memoized by the centralizer's elements: elements with equal centralizers
    (all of an abelian group, say) share one triple, built from the first
    such element's centralizer.  The minimal class representative should be
    used for stable labels.
    """
    C = centralizer(G, g)
    key = ("centtable", C.elements)
    if key not in G._memo:
        H, elems = C.as_group()
        G._memo[key] = (H, elems, character_table(H))
    return G._memo[key]


# ---------------------------------------------------------------------------
# operations on class functions
# ---------------------------------------------------------------------------

def restrict(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Restriction to a subgroup, as a class function on H's own group."""
    if not isinstance(H, Subgroup) or H.parent != chi.group:
        raise NotASubgroup("restriction target is not a subgroup of the domain")
    Hgrp, elems = H.as_group()
    vals = tuple(
        chi.value_at_element(elems[c.rep]) for c in conjugacy_classes(Hgrp)
    )
    return ClassFunction(Hgrp, vals)


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum_g a(g) conj(b(g)), computed classwise."""
    if a.group != b.group:
        raise ValueError("inner product across different groups")
    G = a.group
    total = cyclo_sum(
        a.values[c.index] * b.values[c.index].conj() * c.size
        for c in conjugacy_classes(G)
    )
    return total / G.n


def tensor(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    if a.group != b.group:
        raise ValueError("tensor across different groups")
    return ClassFunction(
        a.group, tuple(x * y for x, y in zip(a.values, b.values))
    )


def is_irreducible(a: ClassFunction) -> bool:
    return inner_product(a, a) == 1


def decompose(a: ClassFunction) -> list[tuple[int, Character]]:
    """Multiplicities of each irreducible in a class function (exact)."""
    out = []
    for ch in character_table(a.group):
        m = inner_product(a, ch)
        if not m.is_rational() or m.as_rational().denominator != 1:
            raise CharacterTableError(f"non-integral multiplicity {m!r}")
        mi = int(m.as_rational())
        if mi:
            out.append((mi, ch))
    return out


def find_character(G: FiniteGroup, values) -> int:
    """Index of the table row with the given per-class values.

    The rows of a character table are distinct, so one dict per group,
    keyed by the rows, finds the index a scan of the table would find.
    Values may be ints, Fractions or Cyclotomics: a rational Cyclotomic
    hashes and compares equal to its Fraction and int."""
    if "char_index" not in G._memo:
        G._memo["char_index"] = {
            ch.values: i for i, ch in enumerate(character_table(G))
        }
    vals = tuple(values)
    i = G._memo["char_index"].get(vals)
    if i is None:
        raise NoSuchCharacter(f"no character of {G.name} with values {vals}")
    return i


def linear_characters(G: FiniteGroup) -> list[tuple[int, Character]]:
    return [(i, ch) for i, ch in enumerate(character_table(G)) if ch.is_linear()]


# ---------------------------------------------------------------------------
# Clifford decomposition over an abelian normal subgroup
# ---------------------------------------------------------------------------

def _exponent_rows(H: FiniteGroup):
    """(m, expo) for an abelian H, m = exp(H): row k of the int array expo
    holds the k-th character as exponents, chi_k(x) = zeta_m^expo[k, x].
    Memoized on H."""
    if "exponent_rows" not in H._memo:
        m = H.exponent()
        expo = np.zeros((H.n, H.n), dtype=np.int64)
        for k, ch in enumerate(character_table(H)):
            for x in range(H.n):
                order, e = ch.value_at_element(x).as_root_of_unity()
                expo[k, x] = e * (m // order) % m
        expo.setflags(write=False)
        H._memo["exponent_rows"] = (m, expo)
    return H._memo["exponent_rows"]


def clifford_decomposition(chi: Character, S: Subgroup) -> list[CliffordComponent]:
    """Isotypic components of chi restricted to an abelian normal subgroup.

    The returned linear characters form a single orbit under conjugation,
    all with equal multiplicity dimension; inertia subgroups are the
    stabilizers.  Both are read off the action table ``act[g, k]``, the
    index of g . lambda_k with (g . lambda)(s) = lambda(g^-1 s g).  Raises
    NotAbelianNormal / NotIrreducible on bad input.
    """
    G = chi.group
    if not isinstance(S, Subgroup) or S.parent != G:
        raise NotASubgroup("S is not a subgroup of the character's group")
    if not (S.is_abelian() and S.is_normal()):
        raise NotAbelianNormal(f"{S!r} is not abelian normal")
    if not is_irreducible(chi):
        raise NotIrreducible("Clifford decomposition needs an irreducible character")
    Sgrp, _ = S.as_group()
    _, expo = _exponent_rows(Sgrp)
    moved = S.conjugation()[G.inv]          # [g, i]: g^-1 s_i g
    row = {r.tobytes(): k for k, r in enumerate(expo)}
    act = np.array([[row[r.tobytes()] for r in expo[:, p]] for p in moved])
    res = restrict(chi, S)
    comps = []
    for idx, lam in enumerate(character_table(Sgrp)):
        m = inner_product(res, lam)
        mi = int(m.as_rational())
        if mi == 0:
            continue
        inertia = Subgroup(G, np.nonzero(act[:, idx] == idx)[0], check=False)
        comps.append((idx, CliffordComponent(lam, mi, inertia)))
    dims = {c.multiplicity_dim for _, c in comps}
    if len(dims) != 1:
        raise CharacterTableError("Clifford multiplicities are not all equal")
    # single-orbit check: the conjugates of the first listed character must
    # be every listed one and nothing else
    if set(act[:, comps[0][0]].tolist()) != {i for i, _ in comps}:
        raise CharacterTableError("Clifford components are not one orbit")
    return [c for _, c in comps]
