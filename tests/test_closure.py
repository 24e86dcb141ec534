"""The batched breadth-first closure against the one-product-at-a-time
closure it replaced.

``sequential_closure`` keeps the earlier routine as it was: each frontier
element is multiplied on the left by each generator in turn, and every
product is a hashable object.  The batched ``groups._closure`` must find the
same elements, in the same order, with the same shortest words, for F_p
matrices, permutations and autoequivalence mappings.
"""

import operator

import numpy as np
import pytest

from brpic.autoeq import (
    complete_extensions,
    from_bv,
    from_hopf_auto,
    generate_group,
    identity_autoeq,
    partial_dualization_rprime,
)
from brpic.cohom import h2_classes
from brpic.errors import CapExceeded
from brpic.fpn import (
    FpMatrix,
    generate_matrix_group,
    standard_generators,
    subgroup_generators,
)
from brpic.groups import (
    CLOSURE_CAP,
    GroupMorphism,
    _closure,
    _compose_rows,
    _index_rows,
    identity_morphism,
    named_group,
)


def sequential_closure(generators, multiply, identity, cap):
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            wx = words[x]
            for i, g in enumerate(generators):
                y = multiply(g, x)
                if y not in words:
                    if len(words) >= cap:
                        raise CapExceeded(
                            f"generated group exceeds the cap of {cap}"
                        )
                    words[y] = (i,) + wx
                    nxt.append(y)
        frontier = nxt
    return list(words), list(words.values())


def batched_matrix_closure(gens, cap=CLOSURE_CAP):
    p = gens[0].p
    return _closure(
        np.array([g.entries for g in gens]),
        lambda G, X: np.matmul(G[None], X[:, None]) % p,
        np.eye(gens[0].size, dtype=np.int64),
        cap,
    )


def check_matrices(gens):
    p, n = gens[0].p, gens[0].half
    old, old_words = sequential_closure(
        gens, operator.matmul, FpMatrix.identity(p, n), CLOSURE_CAP)
    E, words = batched_matrix_closure(gens)
    assert words == old_words
    assert np.array_equal(E, np.array([M.entries for M in old]))
    assert generate_matrix_group(gens) == tuple(old)
    return len(old)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 1)])
def test_matrix_closure_matches_sequential(p, n):
    assert check_matrices(standard_generators(p, n)) > 1


def test_matrix_closure_keys_do_not_overflow():
    # 36 entries mod 7: a key packed base p would need 7**36 > 2**63
    assert 7 ** 36 > 2 ** 63
    assert check_matrices(subgroup_generators(7, 3, "BV")) == 7 ** 3


def test_permutation_closure_matches_sequential():
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]     # (1 2 3 4 5), (1 2)
    old, old_words = sequential_closure(
        gens, lambda a, b: tuple(a[i] for i in b), tuple(range(5)),
        CLOSURE_CAP)
    E, words = _closure(_index_rows(gens, 5), _compose_rows, np.arange(5),
                        CLOSURE_CAP)
    assert len(old) == 120
    assert words == old_words
    assert list(map(tuple, E.tolist())) == old
    assert named_group("perm:(1 2 3 4 5),(1 2)").n == 120


def test_autoequivalence_closure_matches_sequential():
    G = named_group("Z/2^2")
    gens = [from_hopf_auto(GroupMorphism(G, G, imgs))
            for imgs in ((0, 2, 1, 3), (0, 2, 3, 1))]
    gens.append(from_bv(identity_morphism(G), h2_classes(G, 2)[1]))
    gens.append(complete_extensions(
        partial_dualization_rprime(G.subgroup([0, 1])))[0])
    old, old_words = sequential_closure(
        [F.mapping for F in gens], lambda f, h: tuple(f[t] for t in h),
        identity_autoeq(G).mapping, CLOSURE_CAP)
    gg = generate_group(gens)
    assert gg.order == len(old) == 72
    assert list(gg.words) == old_words
    assert [F.mapping for F in gg.elements] == old


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2)])
@pytest.mark.parametrize("which", ["V", "BV", "EV", "R"])
def test_one_family_matches_sequential(p, n, which):
    # under V alone the basis vectors lie in more than one orbit
    assert check_matrices(subgroup_generators(p, n, which)) > 1


@pytest.mark.parametrize("cap", [1, 2, 100, 719])
def test_cap_raises_where_sequential_does(cap):
    gens = standard_generators(2, 2)
    with pytest.raises(CapExceeded) as old:
        sequential_closure(gens, operator.matmul, FpMatrix.identity(2, 2),
                           cap)
    with pytest.raises(CapExceeded):
        batched_matrix_closure(gens, cap)
    with pytest.raises(CapExceeded) as new:
        generate_matrix_group(gens, cap)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("cap, orbit_fires", [(1, True), (2, True),
                                              (100, False), (719, False)])
def test_cap_fires_in_the_orbit_or_the_closure(monkeypatch, cap, orbit_fires):
    # Sp_4(F_2) moves e_1 to all 15 nonzero vectors: past 4 * cap points
    # the orbit step raises before the closure starts
    import brpic.fpn as fpn

    closures = []
    closure = fpn._closure
    monkeypatch.setattr(fpn, "_closure",
                        lambda *a: closures.append(a) or closure(*a))
    with pytest.raises(CapExceeded):
        generate_matrix_group(standard_generators(2, 2), cap)
    assert bool(closures) != orbit_fires


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_frontier_slices_keep_the_order(monkeypatch, rows):
    import brpic.groups as groups

    monkeypatch.setattr(groups, "_CLOSURE_SLICE", rows)
    assert check_matrices(standard_generators(3, 2)) == 1152
