"""Drinfeld-center simple objects and exact modular data.

Simple objects of the center of the category of G-graded vector spaces are
pairs (conjugacy class of g, irreducible character of the centralizer of g).
The S and T matrices are computed exactly over cyclotomic numbers.

Simples are class-major: ``_simple_layout`` puts the one with character k
of class c at start[c] + k.  Class 0 is {identity} and character 0 is
trivial, so simple 0 is the unit object, as the unit-row check certifies.

Normalization convention (fixed once, here): S is the *unnormalized* integer-
friendly matrix, i.e. ``|G|`` times the unitary S-matrix,

    S[(a, chi), (b, psi)] = |G| / (|Cent(a)| * |Cent(b)|) *
        sum over x in G with x b x^-1 in Cent(a) of
            conj(chi(x b x^-1)) * conj(psi(x^-1 a x)).

With this convention the unit row consists of the quantum dimensions,
S * conj(S)^T = |G|^2 * Id, S^2 = |G|^2 * C (C the charge conjugation) and
(S T)^3 = |G| * S^2.  All preservation checks downstream compare
unnormalized matrices, which is equivalent to comparing the unitary ones.

S is built without per-entry cyclotomic arithmetic, from the group-theoretic
formula of Coste, Gannon and Ruelle ("Finite group modular data", Nucl.
Phys. B 581, 2000).  For the class pair (a, b) let P[u, v] count the x in G
with x b x^-1 in class u of Cent(a) and x^-1 a x in class v of Cent(b); the
counts for all pairs come from one pass over all x at once.  With X_a the
character table of Cent(a) lifted into Q(zeta_L), L the lcm of the
conductors of all centralizer character values, block (a, b) of S is
|G| / (|Cent(a)| |Cent(b)|) * conj(X_a) P conj(X_b)^T, and all blocks come
out of one ``cyclo.CycloArray`` product.  Each distinct value is then
decoded once into a canonical Cyclotomic.

``ModularData.S`` is an N x N object array of canonical Cyclotomic entries,
and equal entries share one object; ``S_ids`` and ``T_ids`` number the
distinct entries, so ids are equal exactly where entries are equal and
comparing them is an exact check: searches prune on them and every
braided autoequivalence is certified on them.
Certification neither trusts the build nor uses the entries one by one: it
lifts the released S and T once into the single field Q(zeta_L), L the lcm
of their conductors, as ``CycloArray`` values, and checks symmetry, the unit
row, the twists, the Gram matrix, S^2, C-invariance of T and the modular
relation as exact array equalities.  A failed check raises
CertificationError; none of them is an ``assert``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .chars import centralizer_table
from .cyclo import Cyclotomic, CycloArray, cyclo_sum, zero
from .errors import CapExceeded, CertificationError, NonIntegralFusion
from .groups import FiniteGroup, conjugacy_classes, _class_indices

__all__ = [
    "SimpleObject",
    "ModularData",
    "simple_objects",
    "modular_data",
    "verlinde_fusion",
]

# hard ceiling on the number of simple objects (and thus on N x N matrices)
SIMPLES_CAP = 4096


@dataclass(frozen=True)
class SimpleObject:
    """One simple object: a conjugacy class paired with a centralizer irrep.

    ``qdim`` caches the quantum dimension |class| * chi(1) (a positive
    integer).
    """

    class_index: int
    char_index: int
    qdim: int


@dataclass(eq=False)
class ModularData:
    """Exact S and T matrices over the simple objects of the center.

    ``S`` is an N x N object array of Cyclotomic entries in the unnormalized
    convention documented in the module docstring; ``T`` is the length-N
    diagonal of twists theta = chi(g)/chi(1).

    ``S_ids`` (N x N) and ``T_ids`` (N) are read-only arrays of the
    smallest signed int dtype, derived from the entries on first use: two
    ids are equal exactly when the Cyclotomic entries are equal.  So they
    are a certificate, not only a filter: the completion search prunes on
    them and ``BraidedAutoeq`` certifies S/T preservation on them.
    """

    group: FiniteGroup
    S: np.ndarray
    T: tuple[Cyclotomic, ...]

    @property
    def size(self) -> int:
        return len(self.T)

    @cached_property
    def S_ids(self) -> np.ndarray:
        return _entry_ids(self.S)

    @cached_property
    def T_ids(self) -> np.ndarray:
        return _entry_ids(np.array(self.T, dtype=object))


def _entry_ids(entries: np.ndarray) -> np.ndarray:
    """Read-only array, of the smallest signed int dtype holding the ids,
    with equal ids exactly at equal entries."""
    seen: dict = {}
    flat = [seen.setdefault(x, len(seen)) for x in entries.flat]
    ids = np.array(flat, dtype=np.min_scalar_type(-len(seen))
                   ).reshape(entries.shape)
    ids.setflags(write=False)
    return ids


def simple_objects(G: FiniteGroup) -> list[SimpleObject]:
    """All simples (class, centralizer character), deterministically ordered.

    Classes come in conjugacy_classes order (sorted by minimal member) and
    characters in the centralizer's character-table order.
    """
    key = ("simples",)
    if key not in G._memo:
        out = []
        for cl in conjugacy_classes(G):
            _, _, table = centralizer_table(G, cl.rep)
            for ci, ch in enumerate(table):
                out.append(SimpleObject(cl.index, ci, cl.size * ch.degree))
            if len(out) > SIMPLES_CAP:
                raise CapExceeded(
                    f"more than {SIMPLES_CAP} simple objects for {G!r}"
                )
        total = sum(s.qdim * s.qdim for s in out)
        if total != G.n * G.n:
            raise CertificationError(
                f"sum rule: the squared quantum dimensions add up to {total},"
                f" not |G|^2 = {G.n * G.n}"
            )
        G._memo[key] = tuple(out)
    return list(G._memo[key])


def _simple_layout(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(start, qdims), read-only int arrays: the simples over class c are
    start[c] .. start[c+1] - 1, start[-1] = N, and qdims[i] is the quantum
    dimension of simple i.  Memoized on G."""
    key = ("layout",)
    if key not in G._memo:
        simples = simple_objects(G)
        cls = [s.class_index for s in simples]
        start = np.searchsorted(cls, np.arange(len(conjugacy_classes(G)) + 1))
        qdims = np.array([s.qdim for s in simples])
        start.setflags(write=False)
        qdims.setflags(write=False)
        G._memo[key] = (start, qdims)
    return G._memo[key]


def modular_data(G: FiniteGroup) -> ModularData:
    """The exact (S, T) pair; every structural relation is certified."""
    key = ("modular",)
    if key in G._memo:
        return G._memo[key]

    simples = simple_objects(G)
    classes = conjugacy_classes(G)
    tables = [centralizer_table(G, cl.rep) for cl in classes]

    # T: twists theta = chi(g)/chi(1), class-major as the simples
    T = [ch.value_at_element(elems.index(cl.rep)) / ch.degree
         for cl, (_, elems, table) in zip(classes, tables) for ch in table]

    S = _s_matrix(G, simples, classes, tables)
    _certify_modular(G, simples, S, T)
    S.setflags(write=False)
    md = ModularData(G, S, tuple(T))
    G._memo[key] = md
    return md


def _s_matrix(G, simples, classes, tables):
    """S as the block product conj(X) (P * W / wden) conj(X)^T over
    Q(zeta_L).

    Row and column i of the (N, N) tensors stand both for simple i = (a,
    chi) and for class i of Cent(a): a centralizer has as many classes as
    irreducible characters.  X is block diagonal with the character table
    of Cent(a) in block a; P[u, v] counts the x in G with x b x^-1 in class
    u of Cent(a) and x^-1 a x in class v of Cent(b); W scales block (a, b)
    by |G| / (|Cent(a)| |Cent(b)|) over the common denominator wden.  Each
    distinct value is decoded once, so equal entries share one object.
    """
    n, ns = G.n, len(simples)
    act = G.conjugation()
    reps = np.array([cl.rep for cl in classes])
    start, _ = _simple_layout(G)
    cls = np.repeat(np.arange(len(classes)), np.diff(start))

    # col[a, g]: row of (a, class of g in Cent(a)), or -1 off Cent(a)
    col = np.full((len(classes), n), -1, dtype=np.int64)
    values = np.full((ns, ns), zero(), dtype=object)
    for a, (H, elems, table) in enumerate(tables):
        col[a, list(elems)] = start[a] + _class_indices(H)
        block = slice(start[a], start[a] + len(table))
        values[block, block] = [ch.values for ch in table]
    Xbar = CycloArray.lift(values).conj()

    # over all x at once: U[b, x] = x b x^-1 and V[a, x] = x^-1 a x
    U = act[:, reps].T
    V = act[G.inv][:, reps].T
    ids = np.arange(len(classes))
    rows = col[ids[:, None, None], U[None, :, :]]     # [a, b, x]
    cols = col[ids[None, :, None], V[:, None, :]]
    hit = rows >= 0
    P = np.bincount(rows[hit] * ns + cols[hit], minlength=ns * ns)

    sizes = [len(elems) for _, elems, _ in tables]
    scale = [[Fraction(n, ca * cb) for cb in sizes] for ca in sizes]
    wden = lcm(*(q.denominator for row in scale for q in row))
    W = np.array([[int(q * wden) for q in row] for row in scale])
    PW = P.reshape(ns, ns) * W[np.ix_(cls, cls)]
    return ((Xbar @ PW) / wden @ Xbar.transpose()).decode()


def _certify_modular(G, simples, S, T):
    """Check every structural relation of (S, T) before releasing them.

    The checks run in one field Q(zeta_L), L the lcm of the conductors of
    all S and T entries: S and T are each lifted once to a ``CycloArray``,
    and every check compares a product of them with an integer array,
    entry by entry.

    Certified, in this order (the unnormalized convention of the module
    docstring, n = |G|):

    * twist: every T[i] is a root of unity of order dividing ord(g), g
      the class representative of simple i: chi(g) = chi(1) theta for the
      central element g of Cent(g) (checked first: it makes the lift of T
      integral);
    * symmetry: S = S^T;
    * unit row: S[0, j] is the quantum dimension of simple j;
    * gram: S conj(S)^T = n^2 I;
    * square: S^2 = n^2 C for a permutation C (charge conjugation), read off
      the nonzero pattern of S^2; C is then an involution, as S^2 is
      symmetric;
    * twist conjugation: T[C(i)] = T[i];
    * modular relation: (S T)^3 = n S^2 = n^3 C.

    A failure raises CertificationError naming the check and a witness.
    """
    n, ns = G.n, len(simples)
    classes = conjugacy_classes(G)
    for i, th in enumerate(T):
        rt = th.as_root_of_unity()
        order = G.order_of(classes[simples[i].class_index].rep)
        if rt is None or order % rt[0]:
            raise CertificationError(
                f"twist: T[{i}] = {th!r} is not a root of unity of order "
                f"dividing ord(g) = {order} at {(i, i)}"
            )
    L = lcm(*{v.n for v in S.flat}, *{t.n for t in T})
    S, T = CycloArray.lift(S, L), CycloArray.lift(np.array(T, dtype=object), L)

    ident = np.arange(ns)
    _raise_at("symmetry: S is not symmetric", ~(S == S.transpose()))
    _, qdims = _simple_layout(G)
    _raise_at("unit row: S[0, j] is not the quantum dimension of j",
              _mark(ns, 0, ident, ~(S[0] == qdims)))

    eye = np.eye(ns, dtype=np.int64)
    _raise_at("gram: S conj(S)^T is not |G|^2 I",
              ~(S @ S.conj().transpose() == n * n * eye))

    square = S @ S
    perm = (~(square == 0)).argmax(axis=1)
    C = eye[perm]
    _raise_at("square: S^2 is not |G|^2 times a permutation",
              ~(square == n * n * C))

    _raise_at("twist conjugation: T[C(i)] is not T[i]",
              _mark(ns, ident, perm, ~(T[perm] == T)))
    st = S * T
    _raise_at("modular relation: (S T)^3 is not |G| S^2",
              ~(st @ st @ st == n ** 3 * C))


def _mark(ns, rows, cols, flags):
    """(ns, ns) boolean map with ``flags`` at (rows, cols), False elsewhere."""
    bad = np.zeros((ns, ns), dtype=bool)
    bad[rows, cols] = flags
    return bad


def _raise_at(check, bad):
    """Raise CertificationError for ``check`` at the first True of ``bad``."""
    hits = np.argwhere(bad)
    if len(hits):
        i, j = (int(x) for x in hits[0])
        raise CertificationError(f"{check} at {(i, j)}")


def verlinde_fusion(md: ModularData, i: int, j: int, k: int) -> int:
    """Fusion multiplicity N_ij^k from the S-matrix.

    N_ij^k = (1/|G|^2) * sum over r of S[i,r] S[j,r] conj(S[k,r]) / S[0,r]
    in the unnormalized convention.  An index outside range(N) raises
    ValueError; a result that is not a non-negative rational integer raises
    NonIntegralFusion.
    """
    S = md.S
    ns = md.size
    for x in (i, j, k):
        if not 0 <= x < ns:
            raise ValueError(
                f"index {x} is not a simple of Z({md.group.name}) (N = {ns})"
            )
    n2 = md.group.n * md.group.n
    total = cyclo_sum(
        S[i, r] * S[j, r] * S[k, r].conj() / S[0, r] for r in range(ns)
    )
    val = total / n2
    if not val.is_rational():
        raise NonIntegralFusion(f"N[{i},{j}]^{k} = {val!r} is irrational")
    q = val.as_rational()
    if q.denominator != 1 or q.numerator < 0:
        raise NonIntegralFusion(f"N[{i},{j}]^{k} = {q} is not in Z>=0")
    return int(q)
