"""Pinned outputs of the isomorphism search, the R' self-dual pairing search,
the Clifford decomposition, the readers of the conjugation table, the V/BV
transport, the bimodule invariants and the matrix-model dictionary.

Each digest is the sha256 of the ``repr`` of a plain-Python record of every
output on one group; the records were taken from the pairwise-propagation
search and the character-lookup Clifford orbits that preceded the current
code, so a change of value or of order in any of them shows here.  The
normality, semidirect-action, laziness and R' action records were taken
from the per-caller conjugation code that preceded ``conjugation()``.  The
transport, bimodule and dictionary records were taken from the per-simple
``G.mul`` transport, the quotient-group bimodule subgroup and the tuple-dict
label coordinates that preceded the integer-table readers.  The group
structure, complement and product records were taken from the two
breadth-first subgroup searches, the two complement tests and the
hand-indexed product and quotient tables that preceded ``groups._joins``,
``groups._is_complement`` and the array-built tables.  The character
table and dual-cocycle records were taken from the per-entry ``Cyclotomic``
sums that preceded the integer-tensor builds of ``cyclo.CycloArray``.
"""

import hashlib

import numpy as np
import pytest

from brpic.autoeq import (
    PartialBrEq,
    Provenance,
    _find_complement,
    _q_action_perms,
    _unit_index,
    bimodule_data,
    complete_extensions,
    from_bv,
    from_ev_lazy,
    from_hopf_auto,
    partial_dualization_rprime,
    self_dual_pairing,
)
from brpic.chars import character_table, clifford_decomposition
from brpic.cohom import (
    Cocycle2,
    antisymmetrize,
    coboundary,
    h2_classes,
    is_lazy,
    is_nondegenerate,
    lazy_representative,
    sigma_from_eta,
)
from brpic.errors import BrpicError
from brpic.fpn import (
    FpMatrix,
    autoeq_to_matrix,
    generate_matrix_group,
    matrix_to_autoeq,
    standard_generators,
)
from brpic.groups import (
    Subgroup,
    abelian_normal_subgroups,
    all_subgroups,
    automorphisms,
    cyclic_group,
    direct_product,
    named_group,
    normal_subgroups,
    quotient,
    semidirect_decompositions,
    semidirect_product,
)


def _digest(record):
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


AUTOMORPHISMS = {
    "S3": (6, "28944802ce8e0a1c"),
    "Z/2^2": (6, "3006c2cfe12e0c32"),
    "D4": (8, "17c3091aec68123b"),
    "Q8": (24, "aaaff2a0f1e31815"),
    "A4": (24, "58a6ab92b171f643"),
    "S4": (24, "c8220204627bc57f"),
    "S3xZ/2": (12, "84213a7bac1643f8"),
    "Z/2^3": (168, "9e3919964a4414a2"),
    "A5": (120, "3900cd76293745a7"),
    "D4xZ/2": (64, "bfaf4e06330dd6d6"),
    "Q8xZ/2": (192, "36d2cd7f0be1aad9"),
}

SELF_DUAL = {
    "S3": (1, "86f4fdfda843b78f"),
    "Z/3": (1, "8b068b8943a98668"),
    "Z/2^2": (4, "1b80e7a917d16617"),
    "A4": (1, "229e5dbb23f9d362"),
    "D4": (3, "2f4b7075d9fee8dc"),
    "Q8": (0, "4f53cda18c2baa0c"),
    "S4": (1, "95634481499e8caf"),
    "S3xZ/2": (3, "82f3f9126c6c67d6"),
    "Z/2^3": (15, "44390eaedbc03f8c"),
    "Z/6": (3, "597c646d9ba34e6a"),
    "Z/5": (1, "d646e06d239b80f7"),
    "Z/4xZ/2": (5, "09ad009cecf4d98a"),
    "Q8xZ/2": (2, "515a90d70a84bd0c"),
    "D4xZ/2": (11, "e850edf9d631279b"),
    "Z/3^2": (5, "e6e79f7d0c84f35e"),
    "Z/2^4": (66, "3594b9645b0533b2"),
    "A4xZ/2": (3, "2c4cb23357dd2509"),
    "Z/5:Z/4": (1, "54f129f7d7b9718e"),
    "S3xZ/3": (3, "d680ec7bb8f10d56"),
}

CLIFFORD = {
    "S3": (6, "16741627b9a4f5eb"),
    "A4": (8, "ca69fdefaee4ab17"),
    "D4": (25, "76b967090e015be2"),
    "Q8": (25, "259d49eee2cd7644"),
    "S4": (10, "2d74eb7d9c9f9313"),
    "S3xZ/2": (24, "74fc20e5f747c9e6"),
    "Z/2^3": (128, "1761d22e4e335a53"),
    "D4xZ/2": (140, "331135ff218dff9b"),
    "A4xZ/2": (32, "6d06eb072df4dbd4"),
    "Z/5:Z/4": (32, "9c0e06eb663cee2f"),
    "S3xZ/3": (36, "ae80599feabc0e89"),
    "Q8xZ/2": (140, "d307163779fb50cd"),
    "Z/3^2": (54, "255ee4e564334b50"),
}


def _automorphism_record(G):
    return [a.images for a in automorphisms(G)]


def _self_dual_record(G):
    out = []
    for N in abelian_normal_subgroups(G):
        Q = _find_complement(G, N) if N.order > 1 else None
        if Q is None:
            continue
        p = self_dual_pairing(N, Q)
        out.append((N.elements,
                    None if p is None else (p.m, p.values.tolist())))
    return out


def _clifford_record(G):
    out = []
    for S in abelian_normal_subgroups(G):
        for chi in character_table(G):
            out.append((S.elements, [
                (tuple(repr(v) for v in c.linear_char.values),
                 c.multiplicity_dim, c.inertia.elements)
                for c in clifford_decomposition(chi, S)
            ]))
    return out


def _check(table, name, record):
    count, digest = table[name]
    assert (len(record), _digest(record)) == (count, digest)


@pytest.mark.parametrize("name", sorted(AUTOMORPHISMS))
def test_automorphisms_pinned(name):
    record = _automorphism_record(named_group(name))
    assert all(a < b for a, b in zip(record, record[1:]))
    _check(AUTOMORPHISMS, name, record)


@pytest.mark.parametrize("name", sorted(SELF_DUAL))
def test_self_dual_pairings_pinned(name):
    _check(SELF_DUAL, name, _self_dual_record(named_group(name)))


@pytest.mark.parametrize("name", sorted(CLIFFORD))
def test_clifford_decompositions_pinned(name):
    _check(CLIFFORD, name, _clifford_record(named_group(name)))


def test_case_counts():
    assert sum(c for c, _ in SELF_DUAL.values()) == 129
    assert sum(c for c, _ in CLIFFORD.values()) == 660


# ---------------------------------------------------------------------------
# conjugation readers: normality, semidirect actions, laziness, R' actions
# ---------------------------------------------------------------------------

NORMALITY = {
    "S3": (10, "9dff9ffd0edccfcf"),
    "Z/3": (4, "5c7c219e2e9b72ea"),
    "Z/2^2": (13, "a5fd6fc179ca2097"),
    "A4": (15, "06b6b714fc2248a2"),
    "D4": (19, "7082bba5f90567c1"),
    "Q8": (7, "b8f28e1f50fc3006"),
    "S4": (35, "fe6cd2b493c9d8ae"),
    "S3xZ/2": (28, "14a3707cdc4d8a18"),
    "Z/2^3": (74, "d80f57d359fdd74e"),
    "Z/6": (8, "bc333c007ba8c947"),
    "Z/4xZ/2": (18, "e90a38874486f788"),
    "Q8xZ/2": (28, "9e2de27c7bcbab38"),
    "D4xZ/2": (92, "cad6de3e78fd065f"),
    "Z/3^2": (20, "6cd45f18be867c80"),
    "A4xZ/2": (36, "0bd11e63656e516f"),
    "Z/5:Z/4": (16, "531e77c3556819f1"),
    "S3xZ/3": (22, "af59b815bc62c7f9"),
    "Z/2^4": (869, "e5f6acd818304a95"),
}

LAZY = {
    "S3": (1, "5f6fdf2cce503cda"),
    "Z/2^2": (7, "0d10637dd03538c8"),
    "A4": (4, "2a5d58d21539024f"),
    "D4": (10, "0ea40bfbe0245704"),
    "Q8": (4, "ea58cb5c6ef3bab1"),
    "S4": (4, "e836de8ac4b4f0e6"),
    "S3xZ/2": (3, "b97df0fa5956c812"),
    "Z/2^3": (51, "bfc63f9cb441fd1e"),
    "Z/4xZ/2": (13, "0e59afe4f4760bfe"),
    "D4xZ/2": (61, "e5130d9a188a92c3"),
    "Q8xZ/2": (25, "29592d37515c8b77"),
    "A4xZ/2": (21, "06d3e74585dccf87"),
    "Z/3^2": (10, "95ea05722b6baf96"),
}

RPRIME = {
    "S3": (2, "9c64d646f46fcdf2"),
    "Z/2^2": (8, "259dd2e54a1f53d1"),
    "A4": (2, "8be8e0502a636d0c"),
    "D4": (6, "96787c590ea6238d"),
    "S4": (2, "e52e300dbceff3b6"),
    "S3xZ/2": (6, "229e150836fd0211"),
    "Z/2^3": (30, "1e8e56234d552948"),
    "A4xZ/2": (6, "9b31f633040d4be8"),
    "Z/5:Z/4": (2, "c9c490b9483e7ddf"),
    "S3xZ/3": (6, "3bcf63ac3ed80a32"),
}


def _normality_record(G):
    return [
        (s.elements, Subgroup(G, s.elements).is_normal())
        for s in all_subgroups(G)
    ] + [
        (d.n.elements, d.q.elements, d.action)
        for d in semidirect_decompositions(G)
    ]


def _lazy_record(G):
    """Per class representative eta, the answers for eta and for eta + d(phi)
    with phi(s_i) = i mod m, a representative that need not be invariant."""
    out = []
    for S in abelian_normal_subgroups(G):
        if S.order == 1:
            continue
        Sgrp, _ = S.as_group()
        for m in sorted({Sgrp.exponent(), Sgrp.n}):
            shift = coboundary(Sgrp, range(Sgrp.n), m)
            for eta in h2_classes(Sgrp, m):
                answers = []
                for x in (eta, eta + shift):
                    fixed = lazy_representative(x, G, S)
                    answers.append((is_lazy(x, G, S), None if fixed is None
                                    else fixed.values.tolist()))
                out.append((S.elements, m, eta.values.tolist(), answers))
    return out


def _rprime_record(G):
    out = []
    for N in abelian_normal_subgroups(G):
        Q = _find_complement(G, N) if N.order > 1 else None
        if Q is None:
            continue
        out.append((N.elements, Q.elements, _q_action_perms(N, Q, None)))
        pairing = self_dual_pairing(N, Q)
        if pairing is not None:
            partial = partial_dualization_rprime(N, Q, pairing=pairing)
            out.append((N.elements, sorted(partial.mapping.items()),
                        sorted(partial.candidates.items())))
    return out


@pytest.mark.parametrize("name", sorted(NORMALITY))
def test_normality_and_semidirect_actions_pinned(name):
    _check(NORMALITY, name, _normality_record(named_group(name)))


@pytest.mark.parametrize("name", sorted(LAZY))
def test_laziness_pinned(name):
    _check(LAZY, name, _lazy_record(named_group(name)))


@pytest.mark.parametrize("name", sorted(RPRIME))
def test_rprime_actions_and_explicit_pairings_pinned(name):
    _check(RPRIME, name, _rprime_record(named_group(name)))


def test_conjugation_case_counts():
    assert sum(c for c, _ in NORMALITY.values()) == 1314
    assert sum(c for c, _ in LAZY.values()) == 214
    assert sum(c for c, _ in RPRIME.values()) == 70


# ---------------------------------------------------------------------------
# V/BV transport, bimodule invariants and the matrix-model dictionary
# ---------------------------------------------------------------------------

# name -> ((count, digest) of the V/BV mappings, (count, digest) of the
# bimodule invariants)
CONSTRUCTIONS = {
    "S3": ((10, "34237996a4d454bb"), (15, "db0c28f06df40c06")),
    "Z/3": ((4, "176dddea8fc4de66"), (7, "4dc04078f02847d3")),
    "Z/2^2": ((14, "c6a7e39ca1094d4b"), (35, "853112a498754728")),
    "D4": ((16, "e5bdd73d66597003"), (47, "a7ddc1ad234c4eeb")),
    "Q8": ((28, "a8f77cdb3f3290e5"), (53, "f02997af54ad55c2")),
    "A4": ((32, "23b995e70744120d"), (41, "e4f1322c701f1035")),
    "S3xZ/2": ((20, "408605ad933c2258"), (38, "81896c5c7f78a908")),
    "S4": ((32, "7f8e7b0005dcc6ac"), (41, "ae95de6207d1b953")),
    "Z/2^3": ((200, "230a0b10a25a7ed0"), (250, "3b9ce424f8ee7f5b")),
    "Z/4xZ/2": ((16, "7439d309496581ba"), (70, "bd38fa6edba81071")),
    "Z/3^2": ((60, "59c851715ad5367b"), (81, "4f799db4456eb88f")),
    "Z/5:Z/4": ((44, "4c435b1ae762283f"), (47, "e35563eb487ac468")),
}

CORRUPTED_TWISTS = {
    "S3": (24, "887e7248414bab22"),
    "D4": (24, "6115829ff2084fb6"),
    "Q8": (24, "9c872b1eda0a6f96"),
    "A4": (24, "a79900387b030335"),
    "Z/2^2": (24, "09aa06f15287c6fa"),
}

TO_MATRIX = {
    (2, 1): (2, "a3023925ed19ed7c"),
    (3, 1): (4, "66e665c6671be6d0"),
    (5, 1): (8, "32d8edd7bc402f0a"),
    (2, 2): (72, "cebb6f51b1b55256"),
}

FROM_MATRIX = {
    (3, 1): (4, "7fe318530e328f63"),
    (5, 1): (8, "bdc5f31094bcded2"),
    (2, 2): (720, "f8cc551469175bc1"),
    (3, 2): (1152, "e99966a5a6a48bcd"),
}


def _outcome(build, read):
    """read(build()), or the error's type and message."""
    try:
        return read(build())
    except BrpicError as e:
        return f"{type(e).__name__}: {e}"


def _invariant(element):
    d = bimodule_data(element)
    return (d.U.elements, d.U1.elements, d.U2.elements, d.eta_class,
            d.conditions)


def _construction_records(G):
    """(mappings, invariants) from one pass.  Mappings: V for every
    automorphism, BV for every H^2 class under the first 4 automorphisms.
    Invariants: V for the first 24 automorphisms, BV for every class, EV for
    every abelian normal S != 1 and class of S with v = None and with the
    first 6 automorphisms that fix S, and R' where S has a complement."""
    auts = automorphisms(G)
    maps, out = [], []
    for k, a in enumerate(auts):
        F = from_hopf_auto(a)
        maps.append(F.mapping)
        if k < 24:
            out.append(_invariant(F))
    for mu in h2_classes(G):
        for k, a in enumerate(auts[:4]):
            F = from_bv(a, mu)
            maps.append(F.mapping)
            if k == 0:
                out.append(_outcome(lambda: F, _invariant))
    for S in abelian_normal_subgroups(G):
        if S.order == 1:
            continue
        fixing = [a for a in auts
                  if sorted(map(a, S.elements)) == list(S.elements)][:6]
        Sgrp, _ = S.as_group()
        for k, eta in enumerate(h2_classes(Sgrp)):
            for v in [None] + fixing:
                out.append((S.elements, k, _outcome(
                    lambda: from_ev_lazy(S, eta, v), _invariant)))
        if _find_complement(G, S) is not None:
            out.append((S.elements, _outcome(
                lambda: partial_dualization_rprime(S), _invariant)))
    return maps, out


def _corrupted_twist_record(G):
    """BV under the first and last automorphism for 12 random normalized
    tables that skip the cocycle check: mostly TwistNotCharacter with its
    witness pair."""
    auts = automorphisms(G)
    m = G.exponent()
    out = []
    for seed in range(12):
        bad = np.random.default_rng(seed).integers(0, m, size=(G.n, G.n))
        bad[0, :] = 0
        bad[:, 0] = 0
        mu = Cocycle2(G, m, bad, check=False)
        out += [_outcome(lambda: from_bv(a, mu), lambda F: F.mapping)
                for a in (auts[0], auts[-1])]
    return out


def _to_matrix_record(p, n):
    """autoeq_to_matrix of every unit-seeded search result."""
    G = matrix_to_autoeq(FpMatrix.identity(p, n)).group
    u = _unit_index(G)
    found = complete_extensions(
        PartialBrEq(G, {u: u}, {}, Provenance("searched")))
    return [_outcome(lambda: autoeq_to_matrix(F), FpMatrix.tolist)
            for F in found]


def _from_matrix_record(p, n):
    """matrix_to_autoeq on the group the standard generators generate."""
    return [_outcome(lambda: matrix_to_autoeq(M), lambda F: F.mapping)
            for M in generate_matrix_group(standard_generators(p, n))]


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_transport_and_bimodule_invariants_pinned(name):
    maps, invariants = _construction_records(named_group(name))
    want_maps, want_invariants = CONSTRUCTIONS[name]
    assert (len(maps), _digest(maps)) == want_maps
    assert (len(invariants), _digest(invariants)) == want_invariants


@pytest.mark.parametrize("name", sorted(CORRUPTED_TWISTS))
def test_twist_witnesses_pinned(name):
    _check(CORRUPTED_TWISTS, name, _corrupted_twist_record(named_group(name)))


@pytest.mark.parametrize("pn", sorted(TO_MATRIX))
def test_autoeq_to_matrix_pinned(pn):
    _check(TO_MATRIX, pn, _to_matrix_record(*pn))


@pytest.mark.parametrize("pn", sorted(FROM_MATRIX))
def test_matrix_to_autoeq_pinned(pn):
    _check(FROM_MATRIX, pn, _from_matrix_record(*pn))


def test_construction_case_counts():
    assert sum(m for (m, _), _ in CONSTRUCTIONS.values()) == 476
    assert sum(k for _, (k, _) in CONSTRUCTIONS.values()) == 725
    assert sum(c for c, _ in FROM_MATRIX.values()) == 1884


# ---------------------------------------------------------------------------
# group structure: tables, normal subgroups, quotients, complements, products
# ---------------------------------------------------------------------------

# name -> (number of normal subgroups, digest of the table, names, name and
# every quotient's table, names and projection)
STRUCTURES = {
    "S3": (3, "51306f88e650094b"),
    "S4": (4, "5bfbb5d951c3b135"),
    "A4": (3, "04bcd06f30b00352"),
    "A5": (2, "9089b8bb81ba0681"),
    "D4": (6, "b74d9148f5dd84af"),
    "Q8": (6, "dd8f463490b33415"),
    "Z/6": (4, "11843b6067243dc0"),
    "Z/2^3": (16, "57e657dcc3e176dc"),
    "S3xZ/2": (7, "411f772aa36b57f4"),
    "D4xZ/2": (19, "dd5f8001cf80663f"),
    "Q8xZ/3": (12, "08fd706314f1a8d6"),
    "Z/5:Z/4@[0,2,4,1,3]": (4, "57aacfbf0ea7a0d8"),
    "Z/7:Z/3@[0,2,4,6,1,3,5]": (3, "60ccff79213bd12a"),
    "Z/3:Z/4": (5, "5a59b32c220a3137"),
    "Z/4:Z/4@[0,3,2,1]": (11, "cb6e37f0d039be49"),
    "Z/3^2:Z/2": (7, "a39ea146b2af9351"),
    "S3xS3": (10, "886f8187a520b6e3"),
    "A4xZ/2": (6, "14e9bc40a9b58525"),
}

# groups outside NORMALITY (A5 aside: its subgroup lattice takes a second)
# -> (number of abelian normal subgroups, digest of the decompositions and
# of the first complement of each)
COMPLEMENTS = {
    "Q8xZ/3": (10, "716055dc5a130e19"),
    "Z/5:Z/4@[0,2,4,1,3]": (2, "2aa7bfc4101a4f0e"),
    "Z/7:Z/3@[0,2,4,6,1,3,5]": (2, "fd2535eb79ee15cb"),
    "Z/3:Z/4": (4, "6ddd1fa18d42484b"),
    "Z/4:Z/4@[0,3,2,1]": (10, "1637e0270aa8dc49"),
    "Z/3^2:Z/2": (6, "9c62bbab9b696d1c"),
    "S3xS3": (4, "b9792df3bd97de99"),
}


def _powers(alpha, k):
    """The action q -> alpha^q of Z/k."""
    out = [tuple(range(len(alpha)))]
    for _ in range(k - 1):
        out.append(tuple(alpha[x] for x in out[-1]))
    return out


def _products():
    """Explicit product calls: label -> thunk."""
    S3, Z2, Z3, Z4, Z5 = (named_group("S3"), cyclic_group(2), cyclic_group(3),
                          cyclic_group(4), cyclic_group(5))
    swap = (0, 2, 1, 4, 3, 5)       # conjugation by (2 3) on S3
    return {
        "S3xZ/2": lambda: direct_product(S3, Z2),
        "Z/2xS3": lambda: direct_product(Z2, S3),
        "Q8xZ/3 named": lambda: direct_product(
            named_group("Q8"), Z3, name="Q8 by Z/3"),
        "Z/5:Z/4 doubling": lambda: semidirect_product(
            Z5, Z4, _powers((0, 2, 4, 1, 3), 4)),
        "S3:Z/2 nonabelian N": lambda: semidirect_product(
            S3, Z2, _powers(swap, 2)),
        "S3:Z/2 trivial action": lambda: semidirect_product(
            S3, Z2, _powers(tuple(range(6)), 2)),
        "wrong length": lambda: semidirect_product(
            Z3, Z2, [tuple(range(3))]),
        "not a bijection": lambda: semidirect_product(
            Z3, Z2, [(0, 1, 2), (0, 0, 1)]),
        "not an automorphism": lambda: semidirect_product(
            Z4, Z2, [(0, 1, 2, 3), (0, 2, 1, 3)]),
        "not a homomorphism": lambda: semidirect_product(
            Z5, Z2, _powers((0, 2, 4, 1, 3), 2)),
        "not a homomorphism after (1, 1)": lambda: semidirect_product(
            Z3, Z4, [(0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 1, 2)]),
    }


PRODUCTS = {
    "S3xZ/2": "4743cd0fada96ce0",
    "Z/2xS3": "46903788f6312276",
    "Q8xZ/3 named": "1d2425166242bd26",
    "Z/5:Z/4 doubling": "ef628d9174c20f4a",
    "S3:Z/2 nonabelian N": "76a72d01fc0f59e9",
    "S3:Z/2 trivial action": "8e271168e7ad1948",
    "wrong length": "346c67fbcd7fe14b",
    "not a bijection": "5c527b6641c8019d",
    "not an automorphism": "a9dba618e9efa0cb",
    "not a homomorphism": "cc6c9b4148955b83",
    "not a homomorphism after (1, 1)": "d2158412b89ef8b6",
}


def _group_record(G):
    return (G.name, G.names, G.table.tolist())


def _structure_record(G):
    """(G's record, one record per normal subgroup N: N and the quotient
    G/N with its projection)."""
    quotients = []
    for N in normal_subgroups(G):
        Q, proj = quotient(G, N)
        quotients.append((N.elements, _group_record(Q), proj.images))
    return _group_record(G), quotients


def _complement_record(G):
    """One record per abelian normal N: its first complement and every
    decomposition along it."""
    decompositions = semidirect_decompositions(G)
    out = []
    for N in abelian_normal_subgroups(G):
        Q = _find_complement(G, N)
        out.append((N.elements, None if Q is None else Q.elements, [
            (d.q.elements, d.action) for d in decompositions if d.n == N]))
    return out


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_tables_normal_subgroups_and_quotients_pinned(name):
    group, quotients = _structure_record(named_group(name))
    assert (len(quotients), _digest((group, quotients))) == STRUCTURES[name]


@pytest.mark.parametrize("name", sorted(COMPLEMENTS))
def test_complements_and_decompositions_pinned(name):
    _check(COMPLEMENTS, name, _complement_record(named_group(name)))


@pytest.mark.parametrize("label", sorted(PRODUCTS))
def test_explicit_products_pinned(label):
    record = _outcome(_products()[label], _group_record)
    assert _digest(record) == PRODUCTS[label]


def test_structure_case_counts():
    assert sum(c for c, _ in STRUCTURES.values()) == 128
    assert sum(c for c, _ in COMPLEMENTS.values()) == 38
    assert sum(isinstance(_outcome(make, _group_record), str)
               for make in _products().values()) == 5


# ---------------------------------------------------------------------------
# character tables and dual cocycles
# ---------------------------------------------------------------------------

# name -> (number of characters, digest of every value's to_json, row by row)
TABLES = {
    "S3": (3, "cac879b312d2d193"),
    "D4": (5, "dbba3a142b318215"),
    "Q8": (5, "73ba1641a04c7f61"),
    "A4": (4, "b58b278c5e0a9812"),
    "S4": (5, "24373d6fb78b06c5"),
    "A5": (5, "fa73ab962aa568cf"),
    "S5": (7, "fd5a98cd391a9801"),
    "S3xZ/2": (6, "670abcc4d7aad253"),
    "Z/2^2": (4, "843d5a8f4b2c9994"),
    "Z/3": (3, "295cff0c163f5c92"),
    "Z/5": (5, "16794fe1a36ce9fb"),
    "Z/6": (6, "f2006b70f106f46c"),
    "Z/2^3": (8, "3589e0690010bf66"),
    "Z/3^2": (9, "c216c797e52fbd31"),
    "Z/7": (7, "ad15033572b57daa"),
    "S3xZ/3": (9, "5527956d4a9dd160"),
    "D4xZ/2": (10, "238f42f6a1dbd188"),
    "Q8xZ/3": (15, "c740c01d6a96fb1d"),
    "A4xZ/2": (8, "703040a590bc9b94"),
    "Z/5:Z/4@[0,2,4,1,3]": (5, "1d5484471f8dcddf"),
    "Z/7:Z/3@[0,2,4,6,1,3,5]": (5, "d61d818244ed567a"),
    "Z/3:Z/4": (6, "9cdabaa05ab664f6"),
    "S3xS3": (9, "4946e14e3d837dd4"),
    "Z/4xZ/2": (8, "8f8aec4a351f500c"),
    "Z/8": (8, "dab5b4477eabe054"),
    "Z/12": (12, "56a8c6b9d578cbeb"),
    "Q8xZ/2": (10, "0ddf2a6b0c90dd1c"),
    "Z/4:Z/4@[0,3,2,1]": (10, "56766cdf0087cd8f"),
    "Z/3^2:Z/2": (6, "1d1bd56377840b94"),
    "Z/9": (9, "dfd94121e7bf2cf4"),
    "Z/10": (10, "6ac1d85d5cf3dd57"),
    "Z/15": (15, "2b7b8db8d46554b2"),
}

# name -> (number of nondegenerate classes on its abelian normal subgroups,
# digest of (S, class index, sigma's to_json) for each)
SIGMAS = {
    "Z/2^2": (2, "e570c65c3a2cb4c4"),
    "Z/4xZ/2": (2, "b05df1759d216654"),
    "D4": (3, "136d5c174e83fa1c"),
}


def _sigma_record(G):
    out = []
    for S in abelian_normal_subgroups(G):
        Sgrp, _ = S.as_group()
        for i, eta in enumerate(h2_classes(Sgrp).representatives):
            if is_nondegenerate(antisymmetrize(eta, S)):
                sigma = sigma_from_eta(S, eta)
                out.append((S.elements, i,
                            [[v.to_json() for v in row] for row in sigma]))
    return out


@pytest.mark.parametrize("name", sorted(TABLES))
def test_character_tables_pinned(name):
    record = [[v.to_json() for v in ch.values]
              for ch in character_table(named_group(name))]
    _check(TABLES, name, record)


@pytest.mark.parametrize("name", sorted(SIGMAS))
def test_dual_cocycles_pinned(name):
    _check(SIGMAS, name, _sigma_record(named_group(name)))


def test_table_and_sigma_case_counts():
    assert len(TABLES) == 32
    assert sum(c for c, _ in SIGMAS.values()) == 7
