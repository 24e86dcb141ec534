"""The one breadth-first search against the routines it replaced, and the
level-by-level frame extension against a brute-force filter.

``sequential_closure`` keeps the earlier closure as it was: each frontier
element is multiplied on the left by each generator in turn, and every
product is a hashable object.  The batched ``groups._closure`` must find the
same elements, in the same order, with the same shortest words, for F_p
matrices, permutations and autoequivalence mappings.  ``squaring_closure``
keeps the earlier ``FiniteGroup.closure`` (the element set squared until it
stops growing) and ``reference_basis_orbit`` the earlier orbit of the basis
vectors in the matrix model (one dict of points, one list of images); both
now run on ``groups._orbit`` and must agree with them.

``brute_extensions`` tests every ordered choice of distinct points at once;
``groups._extend_frames`` must keep the same frames, in the same order.
"""

import itertools
import math
import operator
import re

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
from brpic.errors import BudgetExceeded, CapExceeded
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
    _extend_frames,
    _index_rows,
    _orbit,
    all_subgroups,
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


def squaring_closure(G, gens):
    cur = {G.identity}
    cur.update(int(g) for g in gens)
    arr = np.fromiter(sorted(cur), dtype=np.int64)
    while True:
        prods = np.unique(G.table[np.ix_(arr, arr)])
        if prods.size == arr.size:
            return tuple(int(x) for x in arr)
        arr = np.unique(np.concatenate([arr, prods]))


def reference_basis_orbit(p, G, cap):
    m = G.shape[-1]
    key = np.dtype((np.void, m * G.itemsize))
    frontier = np.eye(m, dtype=G.dtype)
    index = {row: j for j, row in enumerate(frontier.view(key).ravel().tolist())}
    images = []
    while len(frontier):
        prods = np.matmul(G[None], frontier[:, None, :, None], dtype=np.int64)
        prods = (prods % p).astype(G.dtype).reshape(-1, m)
        new = []
        for j, row in enumerate(prods.view(key).ravel().tolist()):
            i = index.get(row)
            if i is None:
                if len(index) >= m * cap:
                    raise CapExceeded(
                        f"generated group exceeds the cap of {cap}")
                i = index[row] = len(index)
                new.append(j)
            images.append(i)
        frontier = prods[new]
    points = np.frombuffer(b"".join(index), dtype=G.dtype).reshape(-1, m)
    act = np.array(images, dtype=np.min_scalar_type(len(points) - 1))
    return points, np.ascontiguousarray(act.reshape(-1, len(G)).T)


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


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2)])
@pytest.mark.parametrize("which", ["V", "BV", "EV", "R"])
def test_basis_orbit_matches_reference(monkeypatch, p, n, which):
    # the orbit is the first _orbit result of the matrix closure and act
    # the generators of its _closure
    import brpic.fpn as fpn

    got = {}

    def spy(name, keep):
        real = getattr(fpn, name)

        def wrapper(*args):
            out = real(*args)
            got.setdefault(name, keep(args, out))
            return out
        monkeypatch.setattr(fpn, name, wrapper)

    spy("_orbit", lambda args, out: out[0])
    spy("_closure", lambda args, out: args[0])
    gens = subgroup_generators(p, n, which)
    generate_matrix_group(gens)
    points, act = reference_basis_orbit(
        p, np.array([g.entries for g in gens], dtype=np.uint8), CLOSURE_CAP)
    for new, old in ((got["_orbit"], points), (got["_closure"], act)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert got["_closure"].flags.c_contiguous
    if which == "V":
        # grading and character vectors never mix: e_1 and e_{n+1} lie in
        # different orbits
        assert not (points[:, :n].any(1) & points[:, n:].any(1)).any()


@pytest.mark.parametrize("size, cap, fires", [(10, 5, False), (11, 5, True),
                                              (10, 4, True)])
def test_orbit_cap_counts_every_start(size, cap, fires):
    # two starts: exactly 2 * cap points pass, one more raises
    starts = np.array([0, 5], dtype=np.uint8)

    def step(X):
        return ((X + 1) % size).astype(np.uint8)[:, None]

    if fires:
        with pytest.raises(CapExceeded, match=re.escape(
                f"generated group exceeds the cap of {cap}")):
            _orbit(starts, step, cap)
        return
    points, found = _orbit(starts, step, cap)
    assert points.dtype == np.uint8
    assert points.tolist() == [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]
    assert found == [-1, -1, 0, 1, 2, 3, 4, 5, 6, 7]


def test_orbit_found_is_the_flat_product_index():
    # k = 2 steps (+1, +3) on Z/8 from 0: point j was found by step i of
    # point f at flat index 2 f + i
    def step(X):
        return ((X[:, None] + np.array([1, 3])) % 8).astype(np.uint8)

    points, found = _orbit(np.zeros(1, dtype=np.uint8), step, 8)
    assert points.tolist() == [0, 1, 3, 2, 4, 6, 5, 7]
    assert found == [-1, 0, 1, 2, 3, 5, 7, 9]
    for j in range(1, len(points)):
        f, i = divmod(found[j], 2)
        assert points[j] == (points[f] + (1, 3)[i]) % 8


SUBGROUP_CLOSURE_GROUPS = ["S4", "A5", "D4xZ/2", "S3xS3", "Z/5:Z/4",
                           "Q8xZ/3"]


@pytest.mark.parametrize("name", SUBGROUP_CLOSURE_GROUPS)
def test_subgroup_closure_matches_squaring(name):
    G = named_group(name)
    for H in all_subgroups(G):
        assert G.closure(H.elements) == squaring_closure(G, H.elements)
        assert G.closure(H.elements) == H.elements
    rng = np.random.default_rng(5)
    for _ in range(60):
        gens = rng.choice(G.n, size=int(rng.integers(0, 4))).tolist()
        assert G.closure(gens) == squaring_closure(G, gens)


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_frontier_slices_keep_the_order(monkeypatch, rows):
    import brpic.groups as groups

    monkeypatch.setattr(groups, "_CLOSURE_SLICE", rows)
    assert check_matrices(standard_generators(3, 2)) == 1152


# ---------------------------------------------------------------------------
# frame extension
# ---------------------------------------------------------------------------

def brute_extensions(start, pools, table, want):
    """Each start frame followed by each ordered choice of distinct points
    that are not in it, one from each pool, whose every pair (i < k) has
    ``table[x_i, x_k] == want[k, i]``."""
    out = []
    for frame in start.tolist():
        free = [x for x in range(len(table)) if x not in frame]
        for tail in itertools.permutations(free, len(pools)):
            full = frame + list(tail)
            if all(t in pool for t, pool in zip(tail, pools)) and all(
                    table[full[i], full[k]] == want[k, i]
                    for k in range(len(frame), len(full)) for i in range(k)):
                out.append(full)
    return out


def test_extend_frames_matches_brute_force():
    # seeded tables over 3 values, symmetric in odd rounds (as both
    # callers' are); want is read off a hidden frame, so at least one frame
    # survives whenever its start does
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(40):
        n = int(rng.integers(4, 8))
        table = rng.integers(0, 3, size=(n, n)).astype(np.uint8)
        if trial % 2:
            table = np.minimum(table, table.T)
        hidden = rng.permutation(n)
        want = table[np.ix_(hidden, hidden)].T   # want[k, i] = table[h_i, h_k]
        k0 = int(rng.integers(0, 3))
        levels = int(rng.integers(1, n - k0 + 1))
        pools = [np.sort(np.union1d(
            hidden[k0 + level],
            rng.choice(n, size=int(rng.integers(0, n)), replace=False)))
            for level in range(levels)]
        start = np.array([hidden[:k0]] + [rng.permutation(n)[:k0]
                                          for _ in range(2)], dtype=np.uint8)
        expected = brute_extensions(start, pools, table, want)
        got = _extend_frames(start, pools, table, want, math.inf)
        assert got.dtype == np.uint8
        assert got.shape[1] == k0 + levels
        assert got.tolist() == expected
        found += len(expected)
    assert found > 40


def test_extend_frames_empty_pool_gives_no_frames():
    table = np.zeros((4, 4), dtype=np.uint8)
    start = np.zeros((1, 0), dtype=np.uint8)
    for pools in ([np.arange(4), []], [[], np.arange(4)]):
        got = _extend_frames(start, pools, table, table, math.inf)
        assert got.shape == (0, 2)


def test_extend_frames_node_budget():
    # all pairs agree: 1*4 + 4*3 + 12*2 = 40 nodes make the 24 frames
    table = np.zeros((4, 4), dtype=np.uint8)
    start = np.zeros((1, 0), dtype=np.uint8)
    pools = [np.arange(4)] * 3
    assert len(_extend_frames(start, pools, table, table, 40)) == 24
    message = ("completion search exceeded cap = 39 nodes"
               " (EXTENSION_NODE_BUDGET = 1000000)")
    with pytest.raises(BudgetExceeded, match=re.escape(message)):
        _extend_frames(start, pools, table, table, 39)


def test_extend_frames_never_repeats_a_point():
    # each pool offers the start frames' points and the other pool's: only
    # the unused ones are nodes (2 * 2 + 4 * 1) and no frame holds a point
    # twice
    table = np.zeros((4, 4), dtype=np.uint8)
    start = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    got = _extend_frames(start, [np.arange(4)] * 2, table, table, 8)
    assert got.tolist() == [[0, 1, 2, 3], [0, 1, 3, 2],
                            [1, 0, 2, 3], [1, 0, 3, 2]]
    with pytest.raises(BudgetExceeded, match="cap = 7 nodes"):
        _extend_frames(start, [np.arange(4)] * 2, table, table, 7)
