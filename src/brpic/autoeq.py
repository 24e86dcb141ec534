"""Braided autoequivalences of the center, as permutations of simple objects.

Autoequivalences are represented extensionally: a total (or partial)
permutation of the simple objects of the center, verified against the exact
modular data.  Construction data (automorphism, cocycle, subgroup/pairing)
is retained as provenance so that bimodule-category invariants can be
derived from the construction rather than from the permutation.

The ids certify: ``ModularData.S_ids`` / ``T_ids`` are equal exactly where
the Cyclotomic entries are equal, so the fingerprints, the candidate
refinement and the completion search prune on them, and every
BraidedAutoeq construction certifies S/T preservation on them in one
vectorized compare (``_certify_preservation``).  ``preserves_modular_data``
still compares the Cyclotomic entries one by one (``_check_preservation``),
an independent second computation of the same answer and witness.

Composition convention: ``compose(F, H)`` applies H first, then F, and a
generator word (i1, ..., ik) denotes g_{i1} after ... after g_{ik}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Union

import numpy as np

from .center import ModularData, modular_data, _simple_layout
from .chars import (
    centralizer_table,
    character_table,
    clifford_decomposition,
    find_character,
    _exponent_rows,
)
from .cohom import (
    Cocycle2,
    Pairing,
    antisymmetrize,
    dual_element,
    is_lazy,
    is_nondegenerate,
    lazy_representative,
)
from .cyclo import root_of_unity
from .errors import (
    CertificationError,
    ConditionFailed,
    Degenerate,
    DomainMismatch,
    NoComplement,
    NoExtension,
    NotAbelianNormal,
    NotAnAutomorphism,
    NotASubgroup,
    NotBraided,
    NotLazy,
    NotSelfDual,
    TwistNotCharacter,
    UnsupportedProvenance,
)
from .groups import (
    CLOSURE_CAP,
    EXTENSION_NODE_BUDGET,
    FiniteGroup,
    GroupMorphism,
    Subgroup,
    all_subgroups,
    centralizer,
    class_of,
    conjugacy_classes,
    first_conjugator,
    identity_morphism,
    named_group,
    _closure,
    _extend_frames,
    _index_rows,
    _is_complement,
    _iso_backtrack,
)

__all__ = [
    "Provenance",
    "BraidedAutoeq",
    "PartialBrEq",
    "BimoduleData",
    "PreservationReport",
    "GeneratedGroup",
    "identity_autoeq",
    "from_hopf_auto",
    "from_bv",
    "from_ev_lazy",
    "self_dual_pairing",
    "partial_dualization_rprime",
    "complete_extensions",
    "compose",
    "inverse",
    "equal",
    "generate_group",
    "preserves_modular_data",
    "bimodule_data",
    "autoeq_to_json",
    "autoeq_from_json",
]

@dataclass(frozen=True)
class Provenance:
    """How an autoequivalence was built.

    kind is one of "v", "bv", "ev", "rprime", "composite", "searched";
    data holds the construction objects (morphisms, cocycles, subgroups) for
    the elementary kinds and the factor provenances for "composite".  An
    element of ``generate_group`` with word (i1, ..., ik) is the composite
    whose factors are the provenances of generators i1, ..., ik.
    """

    kind: str
    data: tuple = ()


class PreservationReport:
    """Boolean result of an S/T-preservation check with a failure witness."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[str] = None):
        self.ok = ok
        self.witness = witness

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        return f"PreservationReport(ok={self.ok}, witness={self.witness!r})"


def _check_preservation(md: ModularData, mapping) -> PreservationReport:
    """S/T preservation on the exact Cyclotomic entries, one by one: the
    first twist T[mapping[i]] != T[i], else the first S[mapping[i],
    mapping[j]] != S[i, j] with j >= i, in row-major order."""
    S, T = md.S, md.T
    ns = md.size
    for i in range(ns):
        if T[mapping[i]] != T[i]:
            return PreservationReport(
                False, f"T mismatch: object {i} -> {mapping[i]}"
            )
    for i in range(ns):
        for j in range(i, ns):
            if S[mapping[i], mapping[j]] != S[i, j]:
                return PreservationReport(
                    False,
                    f"S mismatch at ({i}, {j}) -> ({mapping[i]}, {mapping[j]})",
                )
    return PreservationReport(True)


def _certify_preservation(md: ModularData, mapping) -> PreservationReport:
    """``_check_preservation`` on the entry ids, with the same answer and
    witness: ids are equal exactly where entries are, and the mismatches of
    the one gather S_ids[mapping][:, mapping] are read on the upper triangle
    (j >= i) in row-major order."""
    f = np.array(mapping)
    S, T = md.S_ids, md.T_ids
    moved = np.flatnonzero(T[f] != T)
    if moved.size:
        i = int(moved[0])
        return PreservationReport(
            False, f"T mismatch: object {i} -> {mapping[i]}"
        )
    bad = np.argwhere(np.triu(S[np.ix_(f, f)] != S))
    if len(bad):
        i, j = bad[0].tolist()
        return PreservationReport(
            False, f"S mismatch at ({i}, {j}) -> ({mapping[i]}, {mapping[j]})"
        )
    return PreservationReport(True)


class BraidedAutoeq:
    """A total braided autoequivalence: a verified permutation of simples.

    Construction checks (and refuses with NotBraided otherwise), in this
    order, that the mapping is a bijection, fixes the unit object, preserves
    quantum dimensions, and commutes with T and then S.  T and S are
    compared on the exact entry ids by ``_certify_preservation``, whose
    witness is the NotBraided message.
    """

    __slots__ = ("group", "mapping", "provenance")

    def __init__(self, group: FiniteGroup, mapping,
                 provenance: Provenance = Provenance("searched")):
        mapping = tuple(int(x) for x in mapping)
        md = modular_data(group)
        ns = md.size
        if sorted(mapping) != list(range(ns)):
            raise NotBraided(
                f"mapping is not a bijection of the {ns} simple objects"
            )
        if mapping[0] != 0:
            raise NotBraided(f"unit object 0 moved to {mapping[0]}")
        _, qdims = _simple_layout(group)
        moved = np.flatnonzero(qdims[list(mapping)] != qdims)
        if moved.size:
            raise NotBraided(f"quantum dimension changes at object {moved[0]}")
        rep = _certify_preservation(md, mapping)
        if not rep:
            raise NotBraided(rep.witness)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError("BraidedAutoeq instances are immutable")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def is_identity(self) -> bool:
        return all(t == i for i, t in enumerate(self.mapping))

    def __eq__(self, other):
        if not isinstance(other, BraidedAutoeq):
            return NotImplemented
        return self.group == other.group and self.mapping == other.mapping

    def __hash__(self):
        return hash((self.mapping, self.group.n))

    def __repr__(self):
        return (
            f"BraidedAutoeq({self.group.name}, {self.mapping}, "
            f"kind={self.provenance.kind!r})"
        )


@dataclass(eq=False)
class PartialBrEq:
    """A partially-determined braided map on simple objects.

    ``mapping`` holds the determined images; ``candidates`` holds, for each
    still-ambiguous source, the tuple of admissible targets (always at least
    two).  Raises NoExtension if a source has no admissible target at all.
    """

    group: FiniteGroup
    mapping: dict[int, int]
    candidates: dict[int, tuple[int, ...]]
    provenance: Provenance

    def __post_init__(self):
        self.mapping = {int(k): int(v) for k, v in self.mapping.items()}
        targets = list(self.mapping.values())
        if len(set(targets)) != len(targets):
            raise NoExtension("determined images are not injective")
        clean = {}
        for k, pool in self.candidates.items():
            pool = tuple(sorted({int(t) for t in pool}))
            if not pool:
                raise NoExtension(f"source {k} has no admissible target")
            if int(k) in self.mapping:
                raise NoExtension(f"source {k} is both determined and open")
            clean[int(k)] = pool
        self.candidates = clean

    def __repr__(self):
        return (
            f"PartialBrEq({self.group.name}, determined={self.mapping}, "
            f"open={self.candidates}, kind={self.provenance.kind!r})"
        )


@dataclass(frozen=True)
class PairSubgroup:
    """A subgroup of G x G^op, read-only: ``elements`` lists its pairs
    (a, b) as the sorted flat ids a |G| + b."""

    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(eq=False)
class BimoduleData:
    """The subgroup-and-cocycle invariant of an invertible bimodule category.

    ``U`` = {(a, b) : a v(b) in S} as pairs of G x G^op; it is closed under
    (a, b)(a', b') = (a a', b' b) because S is normal (see
    ``bimodule_data``).  ``U1``/``U2`` are its intersections with the
    factors (returned as subgroups of G), ``eta_class`` a description of the
    2-cocycle datum, and ``conditions`` the three verified conditions
    (surjectivity onto both factors, abelian intersections, nondegenerate
    pairing; None = not computable from the stored description).
    """

    U: PairSubgroup
    eta_class: str
    U1: Subgroup
    U2: Subgroup
    conditions: tuple


class GeneratedGroup(NamedTuple):
    order: int
    elements: tuple
    words: tuple


# ---------------------------------------------------------------------------
# shared lookups: simple (class c, character k) is start[c] + k, with
# ``center._simple_layout``'s offsets, and simple 0 is the unit
# ---------------------------------------------------------------------------

def _unit_index(G: FiniteGroup) -> int:
    """The unit object (class 0 = {identity}, trivial character): 0."""
    return 0


def _fingerprints(md: ModularData) -> np.ndarray:
    """One int class per object: objects share a class exactly when their
    (qdim row entry, twist, sorted S-row) agree.  Every braided
    autoequivalence preserves it; used to prune candidate targets."""
    ids = md.S_ids
    rows = np.column_stack([ids[0], md.T_ids, np.sort(ids, axis=1)])
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _is_identity_morphism(v: GroupMorphism) -> bool:
    return all(v(g) == g for g in range(v.source.n))


# ---------------------------------------------------------------------------
# V and BV constructors
# ---------------------------------------------------------------------------

def identity_autoeq(G: FiniteGroup) -> BraidedAutoeq:
    return from_hopf_auto(identity_morphism(G))


def from_hopf_auto(v: GroupMorphism) -> BraidedAutoeq:
    """The autoequivalence induced by a group automorphism:
    (class of g, chi) -> (class of v(g), chi after v^-1)."""
    return _twisted_transport(v, None, Provenance("v", (v,)))


def from_bv(v: GroupMorphism, mu: Cocycle2) -> BraidedAutoeq:
    """Automorphism plus monoidal 2-cocycle twist:
    (g, chi) -> (v(g), chi(v^-1(.)) times the mu-commutator character)."""
    return _twisted_transport(v, mu, Provenance("bv", (v, mu)))


def _twisted_transport(v, mu, provenance) -> BraidedAutoeq:
    """Per source class of g: c conjugates h = v(g) to its class
    representative r, and each class of Cent(r), with representative y, is
    read in Cent(g) at v^-1(c^-1 y c).  With a cocycle, the characters are
    multiplied by the additive twist t(u) = mu(v^-1 u, g) - mu(g, v^-1 u)
    on Cent(h), checked to be a character first.  Raises NotAnAutomorphism,
    then DomainMismatch when mu lives on a group other than v's."""
    G = v.target
    if not v.is_automorphism():
        raise NotAnAutomorphism(f"{v!r} is not an automorphism of {G.name}")
    if mu is not None and mu.group != G:
        raise DomainMismatch("cocycle lives on a different group")
    start, _ = _simple_layout(G)
    classes = conjugacy_classes(G)
    act = G.conjugation()
    vinv = np.argsort(v.images)
    mapping = [0] * start[-1]
    for cl in classes:
        g = cl.rep
        h = v(g)
        cj = class_of(G, h)
        r = classes[cj].rep
        c = first_conjugator(G, h, r)
        Hg, elems_g, table_g = centralizer_table(G, g)
        Hr, elems_r, _ = centralizer_table(G, r)
        ys = [elems_r[cc.rep] for cc in conjugacy_classes(Hr)]
        us = act[G.inv[c], ys]                      # in Cent(h)
        at = [class_of(Hg, k)
              for k in np.searchsorted(elems_g, vinv[us]).tolist()]
        twist = [None] * len(us)
        if mu is not None:
            t = _twist(G, mu, g, h, vinv)
            twist = [root_of_unity(mu.m, x) if x else None
                     for x in t[us].tolist()]
        for k, chi in enumerate(table_g):
            vals = [chi.values[a] if z is None else chi.values[a] * z
                    for a, z in zip(at, twist)]
            mapping[start[cl.index] + k] = start[cj] + find_character(Hr, vals)
    return BraidedAutoeq(G, mapping, provenance)


def _twist(G, mu, g, h, vinv) -> np.ndarray:
    """t(u) = mu(v^-1 u, g) - mu(g, v^-1 u) mod m, on u in Cent(h) (0
    elsewhere); TwistNotCharacter names the first (u1, u2), row-major, where
    t(u1 u2) != t(u1) + t(u2)."""
    cent = np.array(centralizer(G, h).elements)
    w = vinv[cent]
    t = np.zeros(G.n, dtype=np.int64)
    t[cent] = (mu.values[w, g] - mu.values[g, w]) % mu.m
    bad = np.argwhere((t[G.table[np.ix_(cent, cent)]] - t[cent][:, None]
                       - t[cent][None, :]) % mu.m)
    if len(bad):
        u1, u2 = cent[bad[0]]
        raise TwistNotCharacter(
            f"twist at class of {G.names[g]} is not "
            f"multiplicative on ({G.names[u1]}, {G.names[u2]})"
        )
    return t


# ---------------------------------------------------------------------------
# dualization partials (EV and R')
# ---------------------------------------------------------------------------

def _dualization_partial(G, S, pairing, provenance) -> PartialBrEq:
    """Common core of the EV and R' constructions: each irreducible V of G
    goes to the class of the pairing-dual of a Clifford constituent of V|_S,
    with the target character narrowed by preserved invariants.

    Sources whose restriction meets only the trivial character of S map to
    themselves exactly (the construction's twisting modules are trivial
    there)."""
    md = modular_data(G)
    start, _ = _simple_layout(G)
    fps = _fingerprints(md)
    cand: dict[int, list[int]] = {}

    # source k is simple (class 0, character k) = k
    for k, chi in enumerate(character_table(G)):
        comps = clifford_decomposition(chi, S)
        duals = {class_of(G, dual_element(pairing, c.linear_char))
                 for c in comps}
        # the pairing is G-equivariant, so the dual orbit is one class
        if len(duals) != 1:
            raise CertificationError(
                f"pairing equivariance: the Clifford constituents of"
                f" character {k} dualize into {len(duals)} classes"
            )
        cj = duals.pop()
        if cj == 0:
            # the restriction meets only the trivial character of S, so the
            # twisting modules are trivial and the source maps to itself
            cand[k] = [k]
            continue
        pool = [t for t in range(start[cj], start[cj + 1]) if fps[t] == fps[k]]
        if not pool:
            raise NoExtension(
                f"no admissible target over class {cj} for source {k}"
            )
        cand[k] = pool

    _refine_candidates(md, cand)
    mapping = {a: pool[0] for a, pool in cand.items() if len(pool) == 1}
    open_cand = {a: tuple(pool) for a, pool in cand.items() if len(pool) > 1}
    return PartialBrEq(G, mapping, open_cand, provenance)


def _refine_candidates(md: ModularData, cand: dict[int, list[int]]) -> None:
    """Arc-consistency pass: a target survives only if every other source
    retains a distinct partner with the same S-entry as the source pair."""
    ids = md.S_ids
    changed = True
    while changed:
        changed = False
        for a, pool_a in cand.items():
            ta = np.array(pool_a)
            ok = np.ones(len(ta), dtype=bool)
            for b, pool_b in cand.items():
                if b != a:
                    tb = np.array(pool_b)
                    ok &= ((ids[np.ix_(ta, tb)] == ids[a, b])
                           & (ta[:, None] != tb[None, :])).any(axis=1)
            if not ok.any():
                raise NoExtension(
                    f"source {a} has no S-consistent target left"
                )
            if not ok.all():
                cand[a] = ta[ok].tolist()
                changed = True


def from_ev_lazy(S: Subgroup, eta: Cocycle2,
                 v: Optional[GroupMorphism] = None) -> PartialBrEq:
    """The dualization along an abelian normal subgroup with a lazy,
    nondegenerate 2-cocycle: O_1^V -> O_[s_i]^(twisted multiplicity).

    ``eta`` may be any representative of its class; an invariant one is
    located first (NotLazy if none exists).  A non-identity ``v`` is applied
    on top of the v = id reduction; it must be an automorphism of S's
    parent (NotAnAutomorphism otherwise)."""
    G = S.parent
    if not (S.is_abelian() and S.is_normal()):
        raise NotAbelianNormal(f"{S!r} is not abelian normal")
    Sgrp, _ = S.as_group()
    if eta.group == G:
        eta = eta.restrict(S)
    elif eta.group != Sgrp:
        raise DomainMismatch("cocycle lives on neither G nor S")
    if not is_lazy(eta, G, S):
        fixed = lazy_representative(eta, G, S)
        if fixed is None:
            raise NotLazy(
                "no conjugation-invariant representative in the class"
            )
        eta = fixed
    pairing = antisymmetrize(eta, S)
    if not is_nondegenerate(pairing):
        raise Degenerate("the antisymmetrization pairing is degenerate on S")

    partial = _dualization_partial(
        G, S, pairing, Provenance("ev", (S, eta, v))
    )
    if v is not None and (v.target != G or not v.is_automorphism()):
        raise NotAnAutomorphism(f"{v!r} is not an automorphism of {G.name}")
    if v is not None and not _is_identity_morphism(v):
        F = from_hopf_auto(v)
        partial = PartialBrEq(
            G,
            {a: F.mapping[t] for a, t in partial.mapping.items()},
            {a: tuple(sorted(F.mapping[t] for t in pool))
             for a, pool in partial.candidates.items()},
            Provenance("ev", (S, eta, v)),
        )
    return partial


def self_dual_pairing(N: Subgroup, Q, action=None) -> Optional[Pairing]:
    """The first Q-equivariant isomorphism N -> N^, in image-tuple order, as
    a nondegenerate bimultiplicative pairing N x N -> mu_m with m = exp(N);
    None if the module is not self-dual.

    N^ is the group of exponent rows of ``chars._exponent_rows``, and the
    isomorphisms come from ``groups._iso_backtrack``.  ``action`` defaults to
    conjugation by Q inside the common parent; an explicit action is a
    sequence of |Q| position-permutations of N."""
    if not N.is_abelian():
        raise NotAbelianNormal(f"{N!r} is not abelian")
    Ngrp, _ = N.as_group()
    perms = _q_action_perms(N, Q, action)
    m, expo = _exponent_rows(Ngrp)
    row = {r.tobytes(): k for k, r in enumerate(expo)}
    dual = FiniteGroup(
        [[row[r.tobytes()] for r in (expo + a) % m] for a in expo],
        name=f"{Ngrp.name}^",
    )
    for images in _iso_backtrack(Ngrp, dual):
        V = expo[list(images)]
        if all(np.array_equal(V[np.ix_(q, q)], V) for q in perms):
            return Pairing(N, m, V)
    return None


def _q_action_perms(N: Subgroup, Q, action):
    """Position-permutations of N for each element of Q: rows of N's
    conjugation table, or the given ``action``."""
    if action is not None:
        perms = [tuple(int(x) for x in p) for p in action]
        for p in perms:
            if sorted(p) != list(range(N.order)):
                raise NotSelfDual("action entry is not a permutation of N")
        return perms
    if not isinstance(Q, Subgroup) or Q.parent != N.parent:
        raise NotASubgroup("Q must be a subgroup of the same parent group")
    act = N.conjugation()[list(Q.elements)]
    if (act < 0).any():
        raise NotSelfDual("Q does not normalize N")
    return list(map(tuple, act.tolist()))


def partial_dualization_rprime(N: Subgroup, Q: Optional[Subgroup] = None,
                               pairing: Optional[Pairing] = None
                               ) -> PartialBrEq:
    """Partial dualization along an abelian normal factor of G = N : Q,
    G = N's parent.

    A complement Q is located if not supplied (NoComplement when none
    exists, or when a supplied Q fails ``groups._is_complement``); the
    pairing must be (or is searched as) a Q-equivariant nondegenerate
    self-duality of N (NotSelfDual otherwise)."""
    G = N.parent
    if not (N.is_abelian() and N.is_normal()):
        raise NotAbelianNormal(f"{N!r} is not abelian normal")
    if Q is None:
        Q = _find_complement(G, N)
        if Q is None:
            raise NoComplement(f"no complement of order {G.n // N.order}")
    elif not _is_complement(N, Q):
        raise NoComplement(f"{Q!r} is not a complement of N")
    if pairing is None:
        pairing = self_dual_pairing(N, Q)
        if pairing is None:
            raise NotSelfDual(
                "N admits no Q-equivariant nondegenerate self-pairing"
            )
    else:
        if pairing.subgroup != N:
            raise NotSelfDual("pairing is defined on a different subgroup")
        if not is_nondegenerate(pairing):
            raise NotSelfDual("pairing is degenerate")
        for q, perm in zip(Q.elements, _q_action_perms(N, Q, None)):
            if not np.array_equal(
                pairing.values[np.ix_(perm, perm)], pairing.values
            ):
                raise NotSelfDual(
                    f"pairing is not equivariant under {G.names[q]}"
                )
    return _dualization_partial(
        G, N, pairing, Provenance("rprime", (N, Q, pairing))
    )


def _find_complement(G, N) -> Optional[Subgroup]:
    """The first member of ``all_subgroups(G)`` that is a complement of N."""
    return next((H for H in all_subgroups(G) if _is_complement(N, H)), None)


# ---------------------------------------------------------------------------
# completion search
# ---------------------------------------------------------------------------

def complete_extensions(partial: PartialBrEq,
                        cap: int = EXTENSION_NODE_BUDGET
                        ) -> list[BraidedAutoeq]:
    """All total braided autoequivalences extending a partial map.

    The undetermined sources are visited fewest fingerprint-admissible
    targets first, and ``groups._extend_frames`` extends the determined
    images by one target per source, keeping the maps consistent on the
    entry ids ``md.S_ids``.  Raises ValueError naming the first source or
    target that is no simple object, NoExtension when no completion exists
    and BudgetExceeded past ``cap`` nodes.  Each completion is built as a
    BraidedAutoeq, whose S/T check on the ids certifies it."""
    G = partial.group
    md = modular_data(G)
    ids = md.S_ids
    ns = md.size
    fps = _fingerprints(md)

    named = chain(*partial.mapping.items(),
                  *((a, *pool) for a, pool in partial.candidates.items()))
    bad = next((x for x in named if not 0 <= x < ns), None)
    if bad is not None:
        raise ValueError(
            f"simple {bad} is not in the center of {G.name} ({ns} simples)")
    srcs = list(partial.mapping)
    tgts = list(partial.mapping.values())
    for a, t in zip(srcs, tgts):
        if fps[a] != fps[t]:
            raise NoExtension(
                f"determined image {a} -> {t} changes preserved invariants"
            )
    bad = np.argwhere(np.triu(
        ids[np.ix_(tgts, tgts)] != ids[np.ix_(srcs, srcs)], 1))
    if len(bad):
        x, y = bad[0]
        raise NoExtension(
            f"determined images at ({srcs[x]}, {srcs[y]}) break the S-matrix"
        )

    pools = {}
    for src in range(ns):
        if src in partial.mapping:
            continue
        base = np.array(partial.candidates.get(src, range(ns)))
        pool = np.sort(base[fps[base] == fps[src]])
        if not len(pool):
            raise NoExtension(f"source {src} has no admissible target")
        pools[src] = pool

    # sources in visiting order: the determined ones, then by pool size
    order = srcs + sorted(pools, key=lambda s: (len(pools[s]), s))
    frames = _extend_frames(
        np.array([tgts], dtype=np.min_scalar_type(ns - 1)),
        [pools[s] for s in order[len(tgts):]], ids.T,
        ids[np.ix_(order, order)], cap)
    if not len(frames):
        raise NoExtension("partial map admits no braided completion")
    full = frames[:, np.argsort(order)].tolist()
    prov = Provenance("searched", (partial.provenance,))
    return [BraidedAutoeq(G, m, prov) for m in sorted(map(tuple, full))]


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def compose(F: BraidedAutoeq, H: BraidedAutoeq) -> BraidedAutoeq:
    """F after H."""
    if F.group != H.group:
        raise DomainMismatch("autoequivalences live over different groups")
    mapping = tuple(F.mapping[t] for t in H.mapping)
    return BraidedAutoeq(
        F.group, mapping,
        Provenance("composite", (F.provenance, H.provenance)),
    )


def inverse(F: BraidedAutoeq) -> BraidedAutoeq:
    inv = [0] * len(F.mapping)
    for i, t in enumerate(F.mapping):
        inv[t] = i
    return BraidedAutoeq(
        F.group, inv, Provenance("composite", (F.provenance,))
    )


def equal(F: BraidedAutoeq, H: BraidedAutoeq) -> bool:
    if F.group != H.group:
        raise DomainMismatch("autoequivalences live over different groups")
    return F.mapping == H.mapping


def generate_group(generators, cap: int = CLOSURE_CAP) -> GeneratedGroup:
    """BFS closure under composition with shortest-word provenance.

    Element order is discovery order (identity first, then by word length);
    the word (i1, ..., ik) stands for generators[i1] after ... after
    generators[ik], and the element's provenance is the composite of those
    generators' provenances.  The closure is ``groups._closure`` of the
    mappings on the base of all simple objects; the words are decoded here,
    from the product that found each element, and each element is then
    built, and so verified, exactly once."""
    gens = list(generators)
    if not gens:
        return GeneratedGroup(1, (), ())
    group = gens[0].group
    if any(F.group != group for F in gens):
        raise DomainMismatch("generators live over different groups")

    ident = identity_autoeq(group)
    size, k, words = len(ident.mapping), len(gens), [()]
    mappings, found = _closure(
        _index_rows([F.mapping for F in gens], size), range(size), cap)
    for f in found[1:]:
        words.append((f % k,) + words[f // k])
    elements = [ident] + [
        BraidedAutoeq(group, tuple(m), Provenance(
            "composite", tuple(gens[i].provenance for i in w)))
        for m, w in zip(mappings[1:].tolist(), words[1:])
    ]
    return GeneratedGroup(len(elements), tuple(elements), tuple(words))


def preserves_modular_data(F, md: Optional[ModularData] = None
                           ) -> PreservationReport:
    """Exact S- and T-equivariance check with a first-failure witness.

    ``F`` may be a BraidedAutoeq (always passes, by construction) or a raw
    mapping sequence to test; a raw mapping needs ``md`` supplied.  Modular
    data of a group other than a BraidedAutoeq's raises DomainMismatch.
    The check compares the Cyclotomic entries one by one
    (``_check_preservation``), independently of the ids on which
    construction certifies; both give the same answer and witness."""
    if isinstance(F, BraidedAutoeq):
        mapping = F.mapping
        if md is None:
            md = modular_data(F.group)
        elif md.group != F.group:
            raise DomainMismatch(
                "autoequivalence and modular data live over different groups"
            )
    else:
        mapping = tuple(int(x) for x in F)
        if md is None:
            raise ValueError("raw mappings need explicit modular data")
    if sorted(mapping) != list(range(md.size)):
        return PreservationReport(False, "mapping is not a bijection")
    return _check_preservation(md, mapping)


# ---------------------------------------------------------------------------
# bimodule invariants
# ---------------------------------------------------------------------------

def bimodule_data(element: Union[BraidedAutoeq, PartialBrEq]) -> BimoduleData:
    """The invariant (U, eta description) of the bimodule category
    attached to a constructed element; requires construction provenance
    (UnsupportedProvenance for searched/composite elements).

    Every kind has one subgroup formula, U = {(a, b) : a v(b) in S}, with
    S = 1 for V and BV, S the dualized subgroup for EV and R', and v = id
    where the construction has none.  U is read off one boolean table
    ``inside[a, b]``, as the flat ids a |G| + b of its true entries.

    U is closed in G x G^op exactly when S is normal: with a v(b) = s and
    a' v(b') = s', the product (a a', b' b) has a a' v(b' b) =
    s v(b)^-1 s' v(b), which lies in S for all s, s' and b exactly when
    v(b)^-1 S v(b) is inside S for every b, that is (v being a bijection)
    when S is normal.  A non-normal S raises NotAbelianNormal.  Once v(S) = S is checked, (a, 1) is in U
    exactly when a is in S and (1, b) exactly when b is in v^-1(S) = S, so
    U1 = U2 = S; and (a, v^-1(a^-1)) and (v(b)^-1, b) lie in U, so
    condition 1 (every row and column meets U) always holds.  An EV element
    whose v moves S raises UnsupportedProvenance: its invariant is not
    defined here."""
    prov = element.provenance
    G = element.group
    if prov.kind not in ("v", "bv", "ev", "rprime"):
        raise UnsupportedProvenance(
            f"no construction data behind kind {prov.kind!r}"
        )
    if prov.kind in ("v", "bv"):
        S, v = G.trivial_subgroup(), prov.data[0]
        eta_class = "trivial" if prov.kind == "v" else "pullback of mu"
        pairing_ok = True
    elif prov.kind == "ev":
        S, eta, v = prov.data
        eta_class = "pullback of eta"
        pairing_ok = is_nondegenerate(antisymmetrize(eta, S))
    else:
        S, v = prov.data[0], None
        eta_class = "not-computed"
        pairing_ok = None
    images = np.arange(G.n) if v is None else np.array(v.images)
    in_s = np.zeros(G.n, dtype=bool)
    in_s[list(S.elements)] = True
    if not in_s[images[in_s]].all():
        raise UnsupportedProvenance(
            "EV with a v that moves the dualized subgroup: the bimodule"
            " invariant is defined only for v(S) = S"
        )
    if not S.is_normal():
        raise NotAbelianNormal(
            f"{S!r} with elements {S.elements} is not normal, so U is not"
            " closed in G x G^op"
        )
    inside = in_s[G.table[:, images]]                   # a v(b) in S
    U = PairSubgroup(tuple(np.flatnonzero(inside).tolist()))
    if not S.is_abelian():
        raise ConditionFailed("condition 2: U1 or U2 is not abelian")
    if pairing_ok is False:
        raise ConditionFailed(
            "condition 3: the eta pairing on U1 x U2 is degenerate"
        )
    return BimoduleData(U, eta_class, S, S, (True, True, pairing_ok))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _provenance_json(p: Provenance):
    if p.kind == "v":
        return {"kind": "v", "images": [p.data[0](g) for g in
                                        range(p.data[0].source.n)]}
    if p.kind == "bv":
        v, mu = p.data
        return {
            "kind": "bv",
            "images": [v(g) for g in range(v.source.n)],
            "modulus": mu.m,
            "cocycle": mu.values.tolist(),
        }
    if p.kind == "ev":
        S, eta, v = p.data
        return {
            "kind": "ev",
            "subgroup": list(S.elements),
            "modulus": eta.m,
            "cocycle": eta.values.tolist(),
            "images": None if v is None else [v(g) for g in
                                              range(v.source.n)],
        }
    if p.kind == "rprime":
        N, Q, pairing = p.data
        return {
            "kind": "rprime",
            "normal": list(N.elements),
            "complement": list(Q.elements),
            "modulus": pairing.m,
            "pairing": pairing.values.tolist(),
        }
    if p.kind == "composite":
        return {
            "kind": "composite",
            "factors": [_provenance_json(f) for f in p.data],
        }
    return {"kind": p.kind}


def autoeq_to_json(F: BraidedAutoeq) -> dict:
    return {
        "group": F.group.name,
        "mapping": list(F.mapping),
        "provenance": _provenance_json(F.provenance),
    }


def autoeq_from_json(data: dict,
                     G: Optional[FiniteGroup] = None) -> BraidedAutoeq:
    """Rebuild (and re-verify) an autoequivalence from its mapping JSON.

    The construction data is not reconstructed and the JSON description is
    dropped: the result carries the bare provenance "searched", so
    ``bimodule_data`` raises UnsupportedProvenance on it."""
    if G is None:
        G = named_group(data["group"])
    prov = Provenance("searched")
    return BraidedAutoeq(G, data["mapping"], prov)
