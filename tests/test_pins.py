"""Pinned outputs of the isomorphism search, the R' self-dual pairing search
and the Clifford decomposition.

Each digest is the sha256 of the ``repr`` of a plain-Python record of every
output on one group; the records were taken from the pairwise-propagation
search and the character-lookup Clifford orbits that preceded the current
code, so a change of value or of order in any of them shows here.
"""

import hashlib

import pytest

from brpic.autoeq import _find_complement, self_dual_pairing
from brpic.chars import character_table, clifford_decomposition
from brpic.groups import abelian_normal_subgroups, automorphisms, named_group


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
