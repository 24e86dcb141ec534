"""Finite groups as validated Cayley tables, plus the constructions the rest
of the toolkit needs: conjugacy classes, centralizers, subgroups, quotients,
morphisms, automorphism groups, normal-subgroup and semidirect-product
enumeration, and a small naming mini-language ("S4", "Z/3:Z/2@inv", ...).

Elements are integer indices into a fixed ordering; ``names`` gives stable
human-readable labels (cycle notation for permutation groups).  All
enumerations are deterministic: elements, classes, subgroups and search
results are produced in ascending index order, so repeated runs are
byte-identical.  Derived data (classes, centralizers, ...) is memoized on the
group object; groups are immutable after construction, so the memos are safe
to share.

Conjugation is one read-only int table per group, ``G.conjugation()``, with
``act[x, g]`` = x g x^-1; ``Subgroup.conjugation()`` is its columns at the
subgroup, as positions in ``elements`` (-1 where x s x^-1 leaves it).
Classes, centralizers, conjugators, the center, normality and semidirect
actions here, and the conjugation actions of the other modules, all read
these tables.

Subgroups are enumerated by one breadth-first join search, ``_joins``: one
generator per distinct cyclic subgroup as a piece gives ``all_subgroups``,
one conjugacy class per piece ``normal_subgroups``.  One complement test,
``_is_complement``, serves ``semidirect_decompositions`` and the R'
constructions in ``autoeq``.
Product and quotient tables are built as array expressions.

Every closure and orbit is one breadth-first search, ``_orbit``.  A group
given by index rows is listed by one closure on it, ``_closure``: the orbit
of the identity row under left composition, each element as its images of
a base.  It lists ``FiniteGroup.closure`` on ids, ``_perm_closure``, the
pairs of the isomorphism search, the matrix groups of ``fpn`` and the
generated groups of ``autoeq``, whose shortest words ``generate_group``
decodes from the finders it returns.  The basis orbit of ``fpn`` and the
orbits of the stabilizer chain run on ``_orbit`` directly.

The order of a group given by index rows, and each of its elements once,
come from a stabilizer chain without listing the group: ``_stabilizer_chain``
is an incremental Schreier-Sims (C. C. Sims, "Computational methods in the
study of permutation groups", 1970; A. Seress, "Permutation Group
Algorithms", 2003, ch. 4) on a given base.  Level i keeps the orbit of base
point i under the stabilizer of the earlier ones, its transversal as a
Schreier vector and the transversal's base images, so full rows are kept
for strong generators only; the order is the product of the orbit lengths,
and the chain stops as soon as that passes its cap.  Each Schreier
generator is sifted once, on its base images only.

Searches for tuples of distinct points under pairwise constraints share one
level-by-level frame extension, ``_extend_frames``: the completion search of
``autoeq`` (simple objects, S-matrix ids) and the order oracle of ``fpn``
(isotropic vectors, Gram entries).  It counts nodes against a budget,
``EXTENSION_NODE_BUDGET`` by default for the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod

import numpy as np

from .errors import (
    BadSemidirectAction,
    BudgetExceeded,
    CapExceeded,
    NoIdentity,
    NoInverse,
    NotAnAutomorphism,
    NotAssociative,
    NotNormal,
    UnknownName,
)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "GroupMorphism",
    "ConjClass",
    "SemidirectDecomposition",
    "group_from_table",
    "named_group",
    "cyclic_group",
    "symmetric_group",
    "alternating_group",
    "dihedral_group_8",
    "quaternion_group",
    "direct_product",
    "opposite_group",
    "semidirect_product",
    "conjugacy_classes",
    "centralizer",
    "identity_morphism",
    "automorphisms",
    "isomorphisms",
    "inner_automorphisms",
    "outer_representatives",
    "all_subgroups",
    "normal_subgroups",
    "abelian_normal_subgroups",
    "semidirect_decompositions",
    "quotient",
    "first_conjugator",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 10000
ORDER_CAP = 200
# largest point a "perm:" name may move: its generators are built over all
# points up to the largest one, before the order cap can be checked
PERM_DEGREE_LIMIT = 1000
CLOSURE_CAP = 1_000_000
EXTENSION_NODE_BUDGET = 1_000_000
# frontier rows stepped at once by _orbit (bounds its scratch memory)
_CLOSURE_SLICE = 4096


# ---------------------------------------------------------------------------
# core group object
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[a, b]`` is the index of the product a*b.  Construction validates
    the table is a group (associativity, two-sided identity, inverses) and
    raises with a witness if not; pass ``validate=False`` only for tables
    produced by the constructors in this module.  The identity must be
    element 0 (ValueError otherwise): class 0, the trivial character and
    the unit object are read there.
    """

    def __init__(self, table, names=None, name="G", validate=True):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.table = table
        self.table.setflags(write=False)
        self.n = table.shape[0]
        self.name = name
        self.names = tuple(names) if names is not None else tuple(
            f"g{i}" for i in range(self.n)
        )
        if len(self.names) != self.n:
            raise ValueError("need one name per element")
        if validate:
            self._validate()
        else:
            self.identity = self._find_identity()
        if self.identity != 0:
            raise ValueError(
                f"the identity must be element 0, found it at element"
                f" {self.identity} ({self.names[self.identity]})"
            )
        self.inv = self._inverses()
        self._memo: dict = {}

    # -- validation --------------------------------------------------------

    def _find_identity(self):
        idx = np.arange(self.n)
        for e in range(self.n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise NoIdentity("no two-sided identity in multiplication table")

    def _validate(self):
        t = self.table
        if t.size and (t.min() < 0 or t.max() >= self.n):
            raise ValueError("table entries out of range")
        self.identity = self._find_identity()
        left = t[t, :]    # [a, b, c] = t[t[a, b], c] = (a*b)*c
        right = t[:, t]   # [a, b, c] = t[a, t[b, c]] = a*(b*c)
        if not np.array_equal(left, right):
            a, b, c = np.argwhere(left != right)[0]
            na, nb, nc = self.names[a], self.names[b], self.names[c]
            raise NotAssociative(
                f"({na}*{nb})*{nc} != {na}*({nb}*{nc}) in table"
            )

    def _inverses(self):
        inv = np.full(self.n, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.table == self.identity)
        for a, b in zip(rows, cols):
            if self.table[b, a] == self.identity:
                inv[a] = b
        if (inv < 0).any():
            g = int(np.nonzero(inv < 0)[0][0])
            raise NoInverse(f"element {self.names[g]} has no two-sided inverse")
        inv.setflags(write=False)
        return inv

    # -- basic operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv_of(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """x g x^-1."""
        return int(self.table[self.table[x, g], self.inv[x]])

    def conjugation(self) -> np.ndarray:
        """The read-only table act[x, g] = x g x^-1.  Memoized."""
        if "conjugation" not in self._memo:
            act = self.table[self.table, self.inv[:, None]]
            act.setflags(write=False)
            self._memo["conjugation"] = act
        return self._memo["conjugation"]

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def exponent(self) -> int:
        if "exponent" not in self._memo:
            e = 1
            for g in range(self.n):
                o = self.order_of(g)
                e = e * o // np.gcd(e, o)
            self._memo["exponent"] = int(e)
        return self._memo["exponent"]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def center_elements(self) -> tuple[int, ...]:
        fixed = (self.conjugation() == np.arange(self.n)).all(axis=0)
        return tuple(np.flatnonzero(fixed).tolist())

    def closure(self, gens) -> tuple[int, ...]:
        """Subgroup generated by ``gens`` (always contains the identity),
        sorted; ValueError for the first id that is no element."""
        gens = np.array(list(gens), dtype=np.int64)
        _check_ids(gens, self)
        elements, _ = _closure(self.table[gens], [self.identity], self.n)
        return tuple(sorted(elements.ravel().tolist()))

    def minimal_generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        have = {self.identity}
        while len(have) < self.n:
            g = min(x for x in range(self.n) if x not in have)
            gens.append(g)
            have = set(self.closure(gens))
        return tuple(gens)

    def subgroup(self, elements, check: bool = True) -> "Subgroup":
        return Subgroup(self, elements, check=check)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), check=False)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.n)), check=False)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.n})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteGroup)
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))


def group_from_table(table, names=None, name="G") -> FiniteGroup:
    """Validating constructor; raises NoIdentity/NoInverse/NotAssociative,
    and ValueError when the identity is not element 0."""
    return FiniteGroup(table, names=names, name=name, validate=True)


# ---------------------------------------------------------------------------
# conjugacy classes and centralizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjClass:
    index: int
    rep: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    """Classes sorted by minimal member; reps are the minimal members, so
    class 0 is {identity}."""
    if "classes" in G._memo:
        return G._memo["classes"]
    act = G.conjugation()
    class_of = np.full(G.n, -1, dtype=np.int64)
    out: list[ConjClass] = []
    for g in range(G.n):
        if class_of[g] < 0:
            orbit = np.unique(act[:, g])
            class_of[orbit] = len(out)
            out.append(ConjClass(len(out), g, tuple(orbit.tolist())))
    class_of.setflags(write=False)
    G._memo["classes"] = out
    G._memo["class_of"] = class_of
    return out


def _class_indices(G: FiniteGroup) -> np.ndarray:
    """Read-only int array: entry g is the index of g's conjugacy class."""
    conjugacy_classes(G)
    return G._memo["class_of"]


def class_of(G: FiniteGroup, g: int) -> int:
    return int(_class_indices(G)[g])


def centralizer(G: FiniteGroup, g: int) -> "Subgroup":
    key = ("cent", g)
    if key not in G._memo:
        members = np.flatnonzero(G.conjugation()[:, g] == g)
        G._memo[key] = Subgroup(G, members.tolist(), check=False)
    return G._memo[key]


def first_conjugator(G: FiniteGroup, a: int, b: int):
    """Minimal x with x a x^-1 = b, or None."""
    hits = np.flatnonzero(G.conjugation()[:, a] == b)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

class Subgroup:
    """A subgroup of a fixed parent, stored as a sorted element tuple."""

    def __init__(self, parent: FiniteGroup, elements, check: bool = True):
        self.parent = parent
        self.elements = tuple(sorted(int(x) for x in set(elements)))
        if check:
            got = parent.closure(self.elements)    # checks the ids first
            if got != self.elements:
                raise ValueError(
                    f"elements {self.elements} are not closed in {parent.name}"
                )
        self._memo: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        if "set" not in self._memo:
            self._memo["set"] = frozenset(self.elements)
        return int(g) in self._memo["set"]

    def conjugation(self) -> np.ndarray:
        """The parent's conjugation table at the subgroup's columns:
        act[x, i] is the position in ``elements`` of x s_i x^-1, or -1
        where that leaves the subgroup.  Read-only, memoized."""
        if "conjugation" not in self._memo:
            pos = np.full(self.parent.n, -1, dtype=np.int64)
            pos[list(self.elements)] = np.arange(self.order)
            act = pos[self.parent.conjugation()[:, list(self.elements)]]
            act.setflags(write=False)
            self._memo["conjugation"] = act
        return self._memo["conjugation"]

    def is_normal(self) -> bool:
        if "normal" not in self._memo:
            self._memo["normal"] = bool((self.conjugation() >= 0).all())
        return self._memo["normal"]

    def is_abelian(self) -> bool:
        S = np.asarray(self.elements)
        sub = self.parent.table[np.ix_(S, S)]
        return bool(np.array_equal(sub, sub.T))

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """(subgroup as its own FiniteGroup, index-to-parent map).

        Element i of the returned group is ``self.elements[i]``; names are
        inherited from the parent.
        """
        if "group" not in self._memo:
            S = self.elements
            pos = np.empty(self.parent.n, dtype=np.int64)
            pos[list(S)] = np.arange(len(S))
            H = FiniteGroup(
                pos[self.parent.table[np.ix_(S, S)]],
                names=tuple(self.parent.names[g] for g in S),
                name=f"{self.parent.name}-sub{len(S)}",
                validate=False,
            )
            self._memo["group"] = (H, S)
        return self._memo["group"]

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.name})"


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class GroupMorphism:
    """A verified homomorphism, stored as the full image tuple."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images,
                 check: bool = True):
        self.source = source
        self.target = target
        self.images = tuple(int(x) for x in images)
        if len(self.images) != source.n:
            raise ValueError("need one image per source element")
        if check:
            _check_ids(self.images, target)
            img = np.asarray(self.images)
            lhs = target.table[np.ix_(img, img)]
            rhs = img[source.table]
            if not np.array_equal(lhs, rhs):
                a, b = np.argwhere(lhs != rhs)[0]
                raise NotAnAutomorphism(
                    f"map is not a homomorphism at ({source.names[a]}, {source.names[b]})"
                )

    def __call__(self, g: int) -> int:
        return self.images[g]

    def is_bijective(self) -> bool:
        return (
            self.source.n == self.target.n
            and len(set(self.images)) == self.source.n
        )

    def is_automorphism(self) -> bool:
        return self.source is self.target and self.is_bijective()

    def compose(self, other: "GroupMorphism") -> "GroupMorphism":
        """self after other (self o other)."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return GroupMorphism(
            other.source, self.target,
            tuple(self.images[x] for x in other.images), check=False,
        )

    def inverse(self) -> "GroupMorphism":
        if not self.is_bijective():
            raise NotAnAutomorphism("cannot invert a non-bijective morphism")
        inv = [0] * self.source.n
        for x, y in enumerate(self.images):
            inv[y] = x
        return GroupMorphism(self.target, self.source, inv, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, GroupMorphism)
            and self.source is other.source
            and self.target is other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.images))

    def __repr__(self):
        return f"GroupMorphism({self.source.name} -> {self.target.name})"


def _check_ids(ids, G: FiniteGroup) -> None:
    """ValueError naming the first id that is no element of G."""
    bad = next((x for x in ids if not 0 <= x < G.n), None)
    if bad is not None:
        raise ValueError(f"element {bad} is not in {G.name} (order {G.n})")


def identity_morphism(G: FiniteGroup) -> GroupMorphism:
    return GroupMorphism(G, G, tuple(range(G.n)), check=False)


def _iso_backtrack(G: FiniteGroup, H: FiniteGroup):
    """Isomorphisms G -> H as image tuples, lazily, in ascending order.

    The images of ``G.minimal_generators()`` are chosen in turn, each among
    the elements of H with its generator's element order and class size.  A
    choice is kept when the chosen pairs (g, h) generate, inside G x H, the
    graph of an injective map: ``_closure`` of the pairs, acting by left
    products on G's elements and then H's (shifted by G.n), on the base of
    the two identities, stopped as soon as it has more elements than the
    subgroup of G the chosen g generate.  Every element of G below the next
    generator lies in that subgroup already, so its image is fixed before
    the generator's is chosen, and trying the candidates in ascending order
    yields the image tuples in ascending order.
    """
    if G.n != H.n:
        return
    gens = G.minimal_generators()
    sizes = [len(G.closure(gens[:i + 1])) for i in range(len(gens))]

    def profile(K):
        classes = conjugacy_classes(K)
        return [(K.order_of(x), classes[class_of(K, x)].size) for x in range(K.n)]

    prof_G, prof_H = profile(G), profile(H)
    candidates = [[h for h in range(H.n) if prof_H[h] == prof_G[g]] for g in gens]
    dtype = np.min_scalar_type(G.n + H.n - 1)
    base = (G.identity, G.n + H.identity)

    def extend(pairs, graph):
        i = len(pairs)
        if i == len(gens):
            images = np.empty(G.n, dtype=np.int64)
            images[graph[:, 0]] = graph[:, 1] - G.n
            yield tuple(images.tolist())
            return
        for h in candidates[i]:
            chosen = pairs + [(gens[i], h)]
            A = np.array(chosen)
            rows = np.hstack((G.table[A[:, 0]], H.table[A[:, 1]] + G.n))
            try:
                grown, _ = _closure(rows.astype(dtype), base, sizes[i])
            except CapExceeded:
                continue            # more pairs than elements: not a map
            if len(np.unique(grown[:, 1])) == len(grown):
                yield from extend(chosen, grown)

    yield from extend([], np.array([base]))


def isomorphisms(G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_CAP):
    """All isomorphisms G -> H, ordered by image tuple; CapExceeded past ``cap``."""
    out = []
    for images in _iso_backtrack(G, H):
        if len(out) == cap:
            raise CapExceeded(f"more than {cap} isomorphisms {G.name} -> {H.name}")
        out.append(GroupMorphism(G, H, images))
    return out


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return next(_iso_backtrack(G, H), None) is not None


def automorphisms(G: FiniteGroup, cap: int = DEFAULT_CAP):
    """Aut(G) as verified morphisms, sorted by image tuple; CapExceeded past ``cap``."""
    key = ("aut", cap)
    if key not in G._memo:
        G._memo[key] = isomorphisms(G, G, cap)
    return G._memo[key]


def inner_automorphisms(G: FiniteGroup):
    """Conjugation maps, deduplicated, sorted by image tuple."""
    seen = set(map(tuple, G.conjugation().tolist()))
    return [GroupMorphism(G, G, imgs, check=False) for imgs in sorted(seen)]


def outer_representatives(G: FiniteGroup, cap: int = DEFAULT_CAP):
    """One automorphism per coset of Inn(G) in Aut(G), deterministic."""
    inner = {a.images for a in inner_automorphisms(G)}
    reps = []
    covered: set = set()
    for a in automorphisms(G, cap=cap):
        if a.images in covered:
            continue
        reps.append(a)
        for i in inner:
            covered.add(tuple(a.images[x] for x in i))
    return reps


# ---------------------------------------------------------------------------
# subgroup enumeration / normal structure
# ---------------------------------------------------------------------------

def _joins(G: FiniteGroup, pieces, cap) -> list[Subgroup]:
    """Every subgroup generated by a union of ``pieces`` (element tuples),
    sorted by (order, element tuple).

    Breadth-first from the trivial subgroup: each subgroup found is joined
    with every piece it misses, one piece per step, by ``G.closure``.  A
    piece counts as contained when its first element is, so each piece is
    a single element or a whole conjugacy class.  Raises CapExceeded once
    more than ``cap`` subgroups are found.
    """
    queue = [(G.identity,)]
    found = set(queue)
    for base in queue:                  # grows while it is read
        for piece in pieces:
            if piece[0] in base:
                continue
            ext = G.closure(base + piece)
            if ext not in found:
                found.add(ext)
                if len(found) > cap:
                    raise CapExceeded(f"more than {cap} subgroups in {G.name}")
                queue.append(ext)
    return [Subgroup(G, elems, check=False)
            for elems in sorted(found, key=lambda e: (len(e), e))]


def all_subgroups(G: FiniteGroup, cap: int = DEFAULT_CAP) -> list[Subgroup]:
    """Every subgroup: the joins of cyclic subgroups, one piece per distinct
    cyclic subgroup (its smallest generator).  Sorted by (order, element
    tuple); CapExceeded past ``cap``."""
    key = ("subgroups", cap)
    if key not in G._memo:
        cyclic: dict = {}
        for g in range(G.n):
            cyclic.setdefault(G.closure((g,)), (g,))
        G._memo[key] = _joins(G, list(cyclic.values()), cap)
    return G._memo[key]


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups: the joins of conjugacy classes, one class per
    piece.  Every normal subgroup is a union of classes, so this finds
    them all without enumerating all subgroups.  Sorted by (order,
    element tuple).
    """
    if "normals" not in G._memo:
        out = _joins(G, [c.members for c in conjugacy_classes(G)],
                     float("inf"))
        for s in out:
            s._memo["normal"] = True
        G._memo["normals"] = out
    return G._memo["normals"]


def abelian_normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Normal subgroups with abelian underlying group, same ordering."""
    return [s for s in normal_subgroups(G) if s.is_abelian()]


@dataclass(frozen=True)
class SemidirectDecomposition:
    """G = N : Q with N abelian normal, Q a complement, and the action of Q
    on N by conjugation (image tuples per Q-element, in N-subgroup indices)."""
    n: Subgroup
    q: Subgroup
    action: tuple[tuple[int, ...], ...]


def _is_complement(N: Subgroup, Q: Subgroup) -> bool:
    """Q is a complement of N in N's parent G: Q lies in G, |N| |Q| = |G|
    and N and Q meet only in the identity."""
    G = N.parent
    return (Q.parent == G and N.order * Q.order == G.n
            and set(N.elements) & set(Q.elements) == {G.identity})


def semidirect_decompositions(G: FiniteGroup):
    """All decompositions G = N : Q with N abelian normal: each N of
    ``abelian_normal_subgroups`` with each member of ``all_subgroups`` that
    is a complement of it (``_is_complement``).

    Includes the trivial ones (N = 1, Q = G; and N = G, Q = 1 when G is
    abelian).  Both lists are sorted by (order, elements) and every
    complement of N has the same order, so the decompositions come by
    (|N|, N elements, Q elements).
    """
    return [
        SemidirectDecomposition(N, Q, tuple(map(
            tuple, N.conjugation()[list(Q.elements)].tolist())))
        for N in abelian_normal_subgroups(G)
        for Q in all_subgroups(G) if _is_complement(N, Q)
    ]


def quotient(G: FiniteGroup, N: Subgroup):
    """(G/N, projection morphism); raises NotNormal.

    Cosets are indexed in order of their minimal member; the coset of the
    identity is index 0.
    """
    if N.parent is not G:
        raise ValueError("subgroup of a different parent")
    if not N.is_normal():
        raise NotNormal(f"subgroup {N.elements} is not normal in {G.name}")
    reps, coset_of = np.unique(G.table[:, list(N.elements)].min(axis=1),
                               return_inverse=True)
    Q = FiniteGroup(
        coset_of[G.table[np.ix_(reps, reps)]],
        names=tuple(f"{G.names[r]}N" for r in reps),
        name=f"{G.name}/N{N.order}",
        validate=False,
    )
    proj = GroupMorphism(G, Q, coset_of.tolist(), check=False)
    return Q, proj


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def direct_product(A: FiniteGroup, B: FiniteGroup, name=None) -> FiniteGroup:
    """A x B with pairs ordered lexicographically (A-coordinate major)."""
    n, m = A.n, B.n
    # [a1, b1, a2, b2] -> (a1 a2, b1 b2)
    table = (A.table[:, None, :, None] * m + B.table[None, :, None, :]
             ).reshape(n * m, n * m)
    names = tuple(
        f"({A.names[a]},{B.names[b]})" for a in range(n) for b in range(m)
    )
    return FiniteGroup(
        table, names=names, name=name or f"{A.name}x{B.name}", validate=False
    )


def opposite_group(G: FiniteGroup) -> FiniteGroup:
    """Same elements, reversed multiplication."""
    return FiniteGroup(
        G.table.T.copy(), names=G.names, name=f"{G.name}^op", validate=False
    )


def semidirect_product(N: FiniteGroup, Q: FiniteGroup, action) -> FiniteGroup:
    """N : Q for a homomorphism Q -> Aut(N).

    ``action`` is a sequence of |Q| image tuples (the automorphism of N given
    by each q).  Raises BadSemidirectAction if some tuple is not an
    automorphism or q -> alpha_q is not a homomorphism.
    """
    action = [tuple(int(x) for x in a) for a in action]
    if len(action) != Q.n:
        raise BadSemidirectAction("need one automorphism per element of Q")
    for q, imgs in enumerate(action):
        if sorted(imgs) != list(range(N.n)):
            raise BadSemidirectAction(
                f"action of {Q.names[q]} is not a bijection of N"
            )
        try:
            GroupMorphism(N, N, imgs, check=True)
        except NotAnAutomorphism as exc:
            raise BadSemidirectAction(
                f"action of {Q.names[q]} is not an automorphism: {exc}"
            ) from exc
    A = np.array(action, dtype=np.int64)
    # [q1, q2] -> is alpha_q1 after alpha_q2 != alpha_(q1 q2)?
    bad = np.argwhere((A[:, A] != A[Q.table]).any(axis=2))
    if len(bad):
        q1, q2 = bad[0]
        raise BadSemidirectAction(
            f"q -> alpha_q is not a homomorphism at "
            f"({Q.names[q1]}, {Q.names[q2]})"
        )
    m = Q.n
    # [n1, q1, n2, q2] -> (n1 alpha_q1(n2), q1 q2)
    table = (N.table[:, A][..., None] * m + Q.table[None, :, None, :]
             ).reshape(N.n * m, N.n * m)
    names = tuple(
        f"({N.names[i]},{Q.names[j]})" for i in range(N.n) for j in range(m)
    )
    return FiniteGroup(
        table, names=names, name=f"{N.name}:{Q.name}", validate=False
    )


# ---------------------------------------------------------------------------
# breadth-first search and closure
# ---------------------------------------------------------------------------

def _orbit(starts, step, cap: int):
    """(points, found): the orbit of the distinct rows of the int array
    ``starts`` [S, ...] under the batch step ``step(X) -> [f, k, ...]``.

    Breadth-first: each frontier is stepped in slices of ``_CLOSURE_SLICE``
    rows, in the starts' dtype, and the products are read in flattened
    (f, i) order, keyed by their bytes (a small dtype keeps the keys small).
    Points [N, ...] come in discovery order, the starts first; ``found[j]``
    is the flat index f * k + i of the product (step i of point f) that
    found point j, -1 for a start.  CapExceeded past S * ``cap`` points."""
    key = np.dtype((np.void, starts[0].nbytes))

    def keys(X):
        return X.reshape(len(X), starts[0].size).view(key).ravel().tolist()

    seen, frontier, limit = set(keys(starts)), starts, len(starts) * cap
    blocks, found = [starts], [-1] * len(starts)
    while len(frontier):
        base, level = len(found) - len(frontier), len(blocks)
        for s in range(0, len(frontier), _CLOSURE_SLICE):
            prods = np.ascontiguousarray(step(frontier[s:s + _CLOSURE_SLICE]))
            offset = (base + s) * prods.shape[1]
            prods = prods.reshape((-1,) + starts.shape[1:])
            new = []
            for j, row in enumerate(keys(prods)):
                if row not in seen:
                    if len(seen) >= limit:
                        raise CapExceeded(
                            f"generated group exceeds the cap of {cap}")
                    seen.add(row)
                    new.append(j)
            found += [offset + j for j in new]
            blocks.append(prods[new])
        frontier = np.concatenate(blocks[level:])
    return np.concatenate(blocks), found


def _closure(rows, base, cap: int):
    """(elements, found): the group generated by the index rows ``rows``
    [k, P], maps of range(P) to itself, each element as its row of images
    of the points ``base``.  It is the ``_orbit`` of the identity row
    ``base`` under left composition, rows[i] after X[f] at step i of X[f],
    in the rows' dtype: element j is rows[found[j] % k] after element
    found[j] // k, so the words of the breadth-first order decode from
    ``found``.  Only the identity may fix every base point: all of
    range(P) for permutations, the basis vectors in the matrix model, the
    identity element for left products in a group table."""
    return _orbit(np.array([base], dtype=rows.dtype),
                  lambda X: rows[:, X].swapaxes(0, 1), cap)


class _Level:
    """One level of ``_stabilizer_chain``: strong generators ``S`` fixing
    the earlier base points and their inverse rows ``R``; the orbit of base
    point ``orbit[0]`` under them, ``pos`` its inverse (-1 off the orbit);
    the Schreier vector ``by``, ``gen`` (the transversal element of
    ``orbit[t]`` is ``S[gen[t]]`` after that of ``orbit[by[t]]``) and ``B``,
    the base images of the transversal elements; and per generator the
    orbit positions whose Schreier generator has been sifted.  Only the
    generators are kept as full rows, so no array is [orbit, P]."""

    def __init__(self, b, base, ident):
        self.ident, self.S, self.R = ident, ident[None][:0], ident[None][:0]
        self.done = []
        self.orbit, self.B = ident[[b]], base[None]
        self.by = self.gen = np.zeros(1, dtype=np.intp)
        self.pos = np.full(len(ident), -1)
        self.pos[b] = 0

    def add(self, gens):
        """Append strong generators and extend the orbit by ``_orbit`` from
        its points; a new point's Schreier vector entry is the product
        that found it."""
        if not len(gens):
            return
        R = np.empty_like(gens)
        R[np.arange(len(gens))[:, None], gens] = self.ident
        self.S, self.R = np.concatenate([self.S, gens]), np.concatenate(
            [self.R, R])
        self.done += [0] * len(gens)
        old = len(self.orbit)
        self.orbit, found = _orbit(self.orbit, lambda X: self.S[:, X].T,
                                   len(self.ident))
        by, gen = np.divmod(np.array(found[old:], dtype=np.intp), len(self.S))
        self.by, self.gen = np.append(self.by, by), np.append(self.gen, gen)
        self.B = self.images(self.B[0], self.B)
        self.pos[self.orbit[old:]] = np.arange(old, len(self.orbit))

    def images(self, X, done=None):
        """[len(orbit), *X.shape]: every transversal element applied to the
        points X, one breadth-first round (the rows whose finders are
        built) at a time after the rows ``done`` already holds."""
        Y = np.empty((len(self.orbit),) + X.shape, X.dtype)
        t = 1 if done is None else len(done)
        Y[:t] = X if done is None else done
        by, shape = np.append(self.by, len(Y)), (-1,) + (1,) * X.ndim
        while t < len(Y):
            stop = t + np.argmax(by[t:] >= t)
            Y[t:stop] = self.S[self.gen[t:stop].reshape(shape), Y[by[t:stop]]]
            t = stop
        return Y

    def element(self, t):
        """The full row of the transversal element of ``orbit[t]``."""
        row, path = self.ident, []
        while t:
            path.append(self.gen[t])
            t = self.by[t]
        for g in reversed(path):
            row = self.S[g][row]
        return row

    def take(self):
        """(s, j): up to ``_CLOSURE_SLICE`` unsifted pairs (generator s,
        orbit position j), in generator order, now counted as sifted."""
        s, j = [], []
        for g, d in enumerate(self.done):
            stop = min(len(self.orbit), d + _CLOSURE_SLICE - len(j))
            s += [g] * (stop - d)
            j += range(d, stop)
            self.done[g] = stop
        return np.array(s, dtype=np.intp), np.array(j, dtype=np.intp)


def _sift(levels, X, cols, start):
    """(X, drop): the rows X, images of some points with level i's base
    point in column ``cols[i]``, divided level by level from ``start`` by
    the transversal element that matches their base image (its inverse
    generators along the Schreier vector, last first), until the image
    leaves the level's orbit (``drop``) or the levels end (len(levels))."""
    drop, live = np.full(len(X), len(levels)), np.arange(len(X))
    for i in range(start, len(levels)):
        lv = levels[i]
        t = lv.pos[X[live, cols[i]]]
        drop[live[t < 0]] = i
        live, t = live[t >= 0], t[t >= 0]
        rows = live
        while True:
            rows, t = rows[t > 0], t[t > 0]
            if not len(t):
                break
            X[rows] = lv.R[lv.gen[t][:, None], X[rows]]
            t = lv.by[t]
    return X, drop


def _stabilizer_chain(act, base, cap: int):
    """The levels (``_Level``) of the group that the index rows ``act``
    [k, P] generate, on a ``base`` whose pointwise stabilizer is trivial:
    level i holds the orbit ``orbit`` of ``base[i]`` under the pointwise
    stabilizer of ``base[:i]``, in the smallest unsigned dtype, and its
    transversal as a Schreier vector.  Every element is one product of
    transversal elements, level 0's after level 1's after ..., so the order
    is the product of the orbit lengths.  That product only grows, so the
    chain raises CapExceeded as soon as it passes ``cap``.

    Incremental Schreier-Sims, deterministic: the deepest level with
    unsifted Schreier generators sifts up to ``_CLOSURE_SLICE`` of them,
    each (orbit point, strong generator) pair once, on base images alone
    (they determine the element).  The first that leaves an orbit becomes
    a strong generator of the levels down to where it left, and the others
    that left are sifted on against the grown chain; transversals only
    grow, so a sift that reached the identity stays valid.
    """
    ident = np.arange(act.shape[1], dtype=np.min_scalar_type(act.shape[1] - 1))
    S, base = np.asarray(act, dtype=ident.dtype), list(base)
    levels = [_Level(b, ident[base], ident) for b in base]

    def grow(lv, gens):
        lv.add(gens)
        if prod(len(x.orbit) for x in levels) > cap:
            raise CapExceeded(f"generated group exceeds the cap of {cap}")

    for i, lv in enumerate(levels):
        grow(lv, S[(S[:, base[:i]] == base[:i]).all(1) & (S != ident).any(1)])
    while True:
        todo = [i for i, lv in enumerate(levels)
                if sum(lv.done) < len(lv.orbit) * len(lv.done)]
        if not todo:
            return levels
        i = todo[-1]
        lv = levels[i]
        s, j = lv.take()
        X, start = lv.S[s[:, None], lv.B[j]], i
        while len(X):
            X, drop = _sift(levels, X, range(len(levels)), start)
            out = drop < len(levels)
            X, drop, s, j, start = X[out], drop[out], s[out], j[out], i + 1
            if len(X):
                h = lv.S[s[0]][lv.element(j[0])][None]
                h = _sift(levels, h, base, i)[0]
                for below in levels[i + 1:drop[0] + 1]:
                    grow(below, h)
                X, s, j = X[1:], s[1:], j[1:]


def _extend_frames(frames, pools, table, want, cap):
    """The rows of ``frames`` [F, k0], each extended by one point per pool,
    in (frame, pool position) order and in the frames' dtype.

    Level k keeps (frame f, point t) when t is in the level's pool and not
    in frame f, and ``table[frames[f, i], t] == want[k, i]`` for all i < k.
    A node is a pool point offered to a frame that lacks it.  BudgetExceeded
    once the node total passes ``cap``; the count precedes each level's
    work, so ``cap`` also bounds memory.  Pools must not repeat a point.
    """
    nodes = 0
    for pool in pools:
        pool = np.asarray(pool, dtype=frames.dtype)
        k = frames.shape[1]
        in_pool = np.zeros(table.shape[1], dtype=bool)
        in_pool[pool] = True
        nodes += len(frames) * len(pool) - np.count_nonzero(in_pool[frames])
        if nodes > cap:
            raise BudgetExceeded(
                f"completion search exceeded cap = {cap} nodes"
                f" (EXTENSION_NODE_BUDGET = {EXTENSION_NODE_BUDGET})"
            )
        # take gives C-contiguous columns, so the row gathers below are fast
        cols = table.take(pool, axis=1)     # cols[x, j] = table[x, pool[j]]
        ok = np.ones((len(frames), len(pool)), dtype=bool)
        for i in range(k):
            # compare the [N, |pool|] columns once, then gather [F, |pool|]
            ok &= (cols == want[k, i])[frames[:, i]]
        f, j = np.divmod(np.flatnonzero(ok), len(pool))
        # distinctness is checked on the consistent pairs only
        fresh = (frames[f] != pool[j, None]).all(axis=1)
        frames = np.column_stack([frames[f[fresh]], pool[j[fresh]]])
    return frames


def _index_rows(maps, n: int) -> np.ndarray:
    """Maps of range(n) to itself as rows of the smallest unsigned dtype."""
    return np.array(maps, dtype=np.min_scalar_type(n - 1)).reshape(len(maps), n)


# ---------------------------------------------------------------------------
# permutation groups and the naming mini-language
# ---------------------------------------------------------------------------

def _cycles(perm) -> list[list[int]]:
    """The cycles of length > 1 of a permutation of 0..n-1, each listed from
    its smallest point, in order of that point."""
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(cyc)
    return cycles


def _perm_name(perm: tuple[int, ...]) -> str:
    """Cycle notation on 1-based points, fixed points omitted."""
    return "".join(
        "(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in _cycles(perm)
    ) or "e"


def _group_from_perms(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms = sorted(set(perms))
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(a[b[i]] for i in range(len(a)))] for b in perms]
        for a in perms
    ]
    return FiniteGroup(
        table,
        names=tuple(_perm_name(p) for p in perms),
        name=name,
        validate=False,
    )


def _perm_closure(gens: list[tuple[int, ...]], cap: int = CLOSURE_CAP
                  ) -> list[tuple[int, ...]]:
    elements, _ = _closure(_index_rows(gens, len(gens[0])),
                           range(len(gens[0])), cap)
    return sorted(map(tuple, elements.tolist()))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on points 1..n; elements sorted lexicographically as one-line
    permutations, composed as (a*b)(i) = a(b(i))."""
    return _group_from_perms(list(permutations(range(n))), f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    evens = [p for p in permutations(range(n))
             if sum(len(cyc) - 1 for cyc in _cycles(p)) % 2 == 0]
    return _group_from_perms(evens, f"A{n}")


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(
        table, names=tuple(str(i) for i in range(n)), name=f"Z/{n}",
        validate=False,
    )


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    G = cyclic_group(p)
    out = G
    for _ in range(k - 1):
        out = direct_product(out, G)
    out.name = f"Z/{p}^{k}"
    return out


def dihedral_group_8() -> FiniteGroup:
    """Symmetries of a square as permutations of its 4 vertices; generated by
    two reflections x, y with x^2 = y^2 = (xy)^4 = e."""
    r = (1, 2, 3, 0)   # (1 2 3 4)
    s = (2, 1, 0, 3)   # (1 3)
    G = _group_from_perms(_perm_closure([r, s]), "D4")
    return G


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    axis = {0: "1", 1: "1", 2: "i", 3: "i", 4: "j", 5: "j", 6: "k", 7: "k"}
    sign = {i: (1 if i % 2 == 0 else -1) for i in range(8)}
    mul_axis = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
        ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
        ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
        ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
        ("i", "k"): ("j", -1),
    }
    idx = {("1", 1): 0, ("1", -1): 1, ("i", 1): 2, ("i", -1): 3,
           ("j", 1): 4, ("j", -1): 5, ("k", 1): 6, ("k", -1): 7}
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            ax, sg = mul_axis[(axis[a], axis[b])]
            table[a][b] = idx[(ax, sg * sign[a] * sign[b])]
    return FiniteGroup(table, names=names, name="Q8", validate=False)


def _permutation_group(spec: str, cap: int) -> FiniteGroup:
    gen_strs = [s.strip() for s in spec.split(",") if s.strip()]
    if not gen_strs:
        raise UnknownName("empty permutation generator list")
    cycles_per_gen = []
    maxpt = 0
    for gs in gen_strs:
        if not gs.startswith("("):
            raise UnknownName(f"bad cycle string {gs!r}")
        cycles = []
        for part in gs.replace(")(", ")|(").split("|"):
            body = part.strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise UnknownName(f"bad cycle string {gs!r}")
            try:
                pts = [int(x) for x in body[1:-1].replace(",", " ").split()]
            except ValueError:
                raise UnknownName(f"bad cycle {body!r}") from None
            if (not pts or len(pts) != len(set(pts))
                    or any(p < 1 for p in pts)):
                raise UnknownName(f"bad cycle {body!r}")
            cycles.append(pts)
            maxpt = max(maxpt, max(pts))
        if len({p for c in cycles for p in c}) < sum(map(len, cycles)):
            raise UnknownName(f"bad cycle string {gs!r}")     # not disjoint
        cycles_per_gen.append(cycles)
    if maxpt > PERM_DEGREE_LIMIT:
        raise BudgetExceeded(
            f"permutation degree {maxpt} exceeds"
            f" PERM_DEGREE_LIMIT = {PERM_DEGREE_LIMIT}"
        )
    gens = []
    for cycles in cycles_per_gen:
        perm = list(range(maxpt))
        for cyc in cycles:
            for i, p in enumerate(cyc):
                perm[p - 1] = cyc[(i + 1) % len(cyc)] - 1
        gens.append(tuple(perm))
    return _group_from_perms(_perm_closure(gens, cap), f"perm<{spec}>")


def _parse_semidirect(text: str, cap: int) -> FiniteGroup:
    head, _, action_spec = text.partition("@")
    npart, _, qpart = head.partition(":")
    N = named_group(npart.strip(), cap)
    Q = named_group(qpart.strip(), cap)
    _check_order(text, N.n * Q.n, cap)
    # Bare "N:Q" means the inversion action (so "Z/3:Z/2" is the S3-shaped
    # semidirect product); write "NxQ" for the direct product.
    action_spec = action_spec.strip() or "inv"
    # Q must be cyclic for the shorthand actions: the named automorphism is
    # what a chosen generator of Q does.
    gen = None
    for q in range(Q.n):
        if Q.order_of(q) == Q.n:
            gen = q
            break
    if gen is None:
        raise BadSemidirectAction(
            f"Q = {Q.name} is not cyclic; use an explicit action"
        )
    if action_spec == "id":
        alpha = tuple(range(N.n))
    elif action_spec == "inv":
        alpha = tuple(int(N.inv[x]) for x in range(N.n))
    elif action_spec.startswith("[") and action_spec.endswith("]"):
        body = action_spec[1:-1].replace(",", " ")
        try:
            alpha = tuple(int(x) for x in body.split())
        except ValueError:
            raise BadSemidirectAction(f"bad action {action_spec!r}") from None
        if len(alpha) != N.n:
            raise BadSemidirectAction(
                f"explicit action needs {N.n} images, got {len(alpha)}"
            )
    else:
        raise BadSemidirectAction(f"unknown action {action_spec!r}")
    try:
        GroupMorphism(N, N, alpha, check=True)
    except (NotAnAutomorphism, ValueError) as exc:     # or an image off N
        raise BadSemidirectAction(str(exc)) from exc
    # alpha^|Q| must be the identity for q -> alpha^j to be a homomorphism;
    # gen has order |Q|, so its powers fill every entry of the action
    power = tuple(range(N.n))
    action = [None] * Q.n
    g = Q.identity
    for _ in range(Q.n):
        action[g] = power
        power = tuple(alpha[x] for x in power)
        g = Q.mul(g, gen)
    return semidirect_product(N, Q, action)


def named_group(spec: str, cap: int = ORDER_CAP) -> FiniteGroup:
    """Resolve a group name.

    Supported: "S3".."S5", "A4", "A5", "D4", "Q8", "Z/n", "Z/p^k"
    (elementary abelian), "N:Q@inv|id|[images]" (semidirect with cyclic Q;
    bare "N:Q" means the inversion action), "perm:<generators in cycle
    notation>", and "AxB" direct products of any of these.  Raises
    UnknownName for anything else and CapExceeded past the order cap
    (default 200; dense-table algorithms are only sane at desk scale),
    before the table of an over-cap group is built; a "perm:" name moving a
    point past ``PERM_DEGREE_LIMIT`` raises BudgetExceeded before any
    generator is built.
    """
    G = _named_group_inner(spec, cap)
    _check_order(spec, G.n, cap)
    return G


def _check_order(spec: str, order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(f"group {spec!r} has order {order} > cap {cap}")


def _named_group_inner(spec: str, cap: int) -> FiniteGroup:
    spec = spec.strip()
    if ":" in spec and not spec.startswith("perm:"):
        return _parse_semidirect(spec, cap)
    if spec.startswith("perm:"):
        return _permutation_group(spec[len("perm:"):], cap)
    if "x" in spec and not spec.startswith("perm"):
        parts = spec.split("x")
        try:
            groups = [named_group(p, cap) for p in parts]
        except UnknownName:
            raise UnknownName(f"unknown group name {spec!r}") from None
        _check_order(spec, prod(g.n for g in groups), cap)
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        out.name = spec
        return out
    fixed = {
        "S3": lambda: symmetric_group(3),
        "S4": lambda: symmetric_group(4),
        "S5": lambda: symmetric_group(5),
        "A4": lambda: alternating_group(4),
        "A5": lambda: alternating_group(5),
        "D4": dihedral_group_8,
        "Q8": quaternion_group,
    }
    if spec in fixed:
        return fixed[spec]()
    if spec.startswith("Z/"):
        body = spec[2:]
        if "^" in body:
            base, _, exp = body.partition("^")
            try:
                p, k = int(base), int(exp)
            except ValueError:
                raise UnknownName(f"unknown group name {spec!r}") from None
            if p < 2 or k < 1:
                raise UnknownName(f"unknown group name {spec!r}")
            _check_order(spec, p ** k, cap)
            return elementary_abelian(p, k)
        try:
            n = int(body)
        except ValueError:
            raise UnknownName(f"unknown group name {spec!r}") from None
        if n < 1:
            raise UnknownName(f"unknown group name {spec!r}")
        _check_order(spec, n, cap)
        return cyclic_group(n)
    raise UnknownName(f"unknown group name {spec!r}")
