"""The one breadth-first search against the routines it replaced, and the
level-by-level frame extension against a brute-force filter.

``sequential_closure`` keeps the earlier closure as it was: each frontier
element is multiplied on the left by each generator in turn, and every
product is a hashable object.  The one closure of index rows,
``groups._closure``, must find the same elements, in the same order, for
F_p matrices (through ``generate_matrix_group``), permutations and
autoequivalence mappings (through ``autoeq.generate_group``).  It returns
no words, only the product that found each element; the same shortest
words decode from those finders, in ``generate_group`` for mappings and in
``words_of`` here for matrices and permutations.  ``squaring_closure``
keeps the earlier ``FiniteGroup.closure`` (the element set squared until it
stops growing) and ``reference_basis_orbit`` the earlier orbit of the basis
vectors in the matrix model (one dict of points, one list of images); both
now run on ``groups._orbit`` and must agree with them.

``brute_extensions`` tests every ordered choice of distinct points at once;
``groups._extend_frames`` must keep the same frames, in the same order.

``groups._stabilizer_chain`` must give the closure's order and, as products
of its transversal elements, the closure's elements each once; past the cap
it is checked against the closed-form orders of O+_2n(p) and Sp_2n(2).
"""

import itertools
import math
import operator
import re
import tracemalloc

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
from brpic import fpn
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
    _extend_frames,
    _index_rows,
    _orbit,
    _perm_closure,
    _stabilizer_chain,
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


def words_of(found, k):
    """The shortest words of a closure of k generators, from its finders."""
    words = [()]
    for f in found[1:]:
        words.append((f % k,) + words[f // k])
    return words


def check_matrices(gens):
    p, n = gens[0].p, gens[0].half
    old, old_words = sequential_closure(
        gens, operator.matmul, FpMatrix.identity(p, n), CLOSURE_CAP)
    assert generate_matrix_group(gens) == tuple(old)
    # the finders of the closure on index rows spell the same words
    act = fpn._basis_action(gens, CLOSURE_CAP)[2]
    assert words_of(_closure(act, range(2 * n), CLOSURE_CAP)[1],
                    len(gens)) == old_words
    return len(old)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 1)])
def test_matrix_closure_matches_sequential(p, n):
    assert check_matrices(standard_generators(p, n)) > 1


def test_matrix_closure_keys_do_not_overflow():
    # 36 entries mod 7: a key packed base p would need 7**36 > 2**63
    assert 7 ** 36 > 2 ** 63
    assert check_matrices(subgroup_generators(7, 3, "BV")) == 7 ** 3


def test_matrix_closure_memory_is_linear():
    # O+_2(10007) is dihedral of order 20012: its breadth-first words run
    # to thousands of letters, and one kept per element peaked at 400 MB;
    # the decoded stack is 160 kB
    gens = standard_generators(10007, 1)
    tracemalloc.start()
    try:
        E = fpn.matrix_closure(gens)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(E) == 20012
    assert peak < 40_000_000


def test_permutation_closure_matches_sequential():
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]     # (1 2 3 4 5), (1 2)
    old, old_words = sequential_closure(
        gens, lambda a, b: tuple(a[i] for i in b), tuple(range(5)),
        CLOSURE_CAP)
    E, found = _closure(_index_rows(gens, 5), range(5), CLOSURE_CAP)
    assert len(old) == 120
    assert words_of(found, len(gens)) == old_words
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
    with pytest.raises(CapExceeded) as new:
        generate_matrix_group(gens, cap)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("cap, orbit_fires", [(1, True), (2, True),
                                              (100, False), (719, False)])
def test_cap_fires_in_the_orbit_or_the_closure(monkeypatch, cap, orbit_fires):
    # Sp_4(F_2) moves e_1 to all 15 nonzero vectors: past 4 * cap points
    # the orbit step raises before groups._closure runs its _orbit
    import brpic.groups as groups

    orbits = []
    orbit = groups._orbit
    monkeypatch.setattr(groups, "_orbit",
                        lambda *a: orbits.append(a) or orbit(*a))
    with pytest.raises(CapExceeded):
        generate_matrix_group(standard_generators(2, 2), cap)
    assert len(orbits) == (0 if orbit_fires else 1)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (7, 3)])
@pytest.mark.parametrize("which", ["V", "BV", "EV", "R"])
def test_basis_orbit_matches_reference(p, n, which):
    # at (7, 3) V generates GL_3(F_7), past the cap: the basis action does
    # not close the group
    gens = subgroup_generators(p, n, which)
    q, *got = fpn._basis_action(gens, CLOSURE_CAP)
    points, act = reference_basis_orbit(
        p, np.array([g.entries for g in gens], dtype=np.uint8), CLOSURE_CAP)
    assert q == p
    for new, old in zip(got, (points, act)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert got[1].flags.c_contiguous
    if which == "V":
        # grading and character vectors never mix: e_1 and e_{n+1} lie in
        # different orbits
        assert not (points[:, :n].any(1) & points[:, n:].any(1)).any()


def test_basis_action_steps_the_points_a_slice_at_a_time():
    # the last pass over all 17,100 points at (7, 3) held their int64
    # products at once, 9.8 MB of the 22 MB peak
    gens = standard_generators(7, 3)
    tracemalloc.start()
    try:
        act = fpn._basis_action(gens, CLOSURE_CAP)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert act.shape == (len(gens), 17100)
    assert peak < 9_800_000


@pytest.mark.parametrize("rows", [1, 7])
def test_basis_action_in_small_slices(monkeypatch, rows):
    # slice boundaries inside the last pass locate the same products
    monkeypatch.setattr(fpn, "_CLOSURE_SLICE", rows)
    gens = subgroup_generators(3, 2, "BV") + subgroup_generators(3, 2, "R")
    _, *got = fpn._basis_action(gens, CLOSURE_CAP)
    want = reference_basis_orbit(
        3, np.array([g.entries for g in gens], dtype=np.uint8), CLOSURE_CAP)
    for new, old in zip(got, want):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert got[1].flags.c_contiguous


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


# ---------------------------------------------------------------------------
# stabilizer chain: the order and the elements of a closure, found without
# listing the group breadth-first
# ---------------------------------------------------------------------------

def chain_order(act, base):
    return math.prod(len(lv.orbit)
                     for lv in _stabilizer_chain(act, base, math.inf))


def transversal_rows(lv):
    """The full rows of a level's transversal elements."""
    return lv.images(lv.ident)


def transversal_products(levels):
    """Every product of transversal elements, level 0's after level 1's
    after ..., as index rows composed from the full rows."""
    E = transversal_rows(levels[-1])
    for lv in reversed(levels[:-1]):
        T = transversal_rows(lv)
        E = T[:, E].swapaxes(0, 1).reshape(-1, T.shape[1])
    return E


def o_plus_order(p, n):
    """|O+_2n(p)| = 2 p^(n(n-1)) (p^n - 1) prod_{i<n} (p^(2i) - 1)."""
    return (2 * p ** (n * (n - 1)) * (p**n - 1)
            * math.prod(p ** (2 * i) - 1 for i in range(1, n)))


def sp_order(n):
    """|Sp_2n(2)| = 2^(n^2) prod_{i<=n} (4^i - 1)."""
    return 2 ** (n * n) * math.prod(4**i - 1 for i in range(1, n + 1))


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                  (5, 2)])
def test_chain_order_is_the_closure_size(p, n):
    gens = standard_generators(p, n)
    act = fpn._basis_action(gens, CLOSURE_CAP)[2]
    order = len(fpn.matrix_closure(gens)[1])
    assert chain_order(act, range(2 * n)) == order
    assert fpn.matrix_group_order(gens) == order


@pytest.mark.parametrize("p, n, order", [
    (7, 2, o_plus_order(7, 2)),     # 225,792: past the oracle's p <= 5
    (3, 3, o_plus_order(3, 3)),     # 24,261,120: past CLOSURE_CAP too
    (2, 3, sp_order(3)),            # 1,451,520
    (2, 4, sp_order(4)),            # 47,377,612,800
])
def test_chain_order_is_the_closed_form(p, n, order):
    assert o_plus_order(3, 2) == 1152 and sp_order(2) == 720
    act = fpn._basis_action(standard_generators(p, n), CLOSURE_CAP)[2]
    assert chain_order(act, range(2 * n)) == order


@pytest.mark.parametrize("spec, order", [
    ([(1, 2, 3, 0), (1, 0, 2, 3)], 24),                     # S4
    ([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], 60),               # A5
    ([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
      (0, 1, 2, 3, 5, 4), (2, 3, 0, 1, 4, 5)], 16),         # D4 x Z/2
])
def test_chain_on_permutation_groups(spec, order):
    rows = _index_rows(spec, len(spec[0]))
    elements = _perm_closure(spec)
    assert len(elements) == order
    levels = _stabilizer_chain(rows, range(len(spec[0])), order)
    assert math.prod(len(lv.orbit) for lv in levels) == order
    # every product of transversal elements, each element once
    E = transversal_products(levels)
    assert sorted(map(tuple, E.tolist())) == elements


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2)])
def test_chain_transversals(p, n):
    act = fpn._basis_action(standard_generators(p, n), CLOSURE_CAP)[2]
    levels = _stabilizer_chain(act, range(2 * n), CLOSURE_CAP)
    assert [lv.orbit[0] for lv in levels] == list(range(2 * n))
    for i, lv in enumerate(levels):
        o, T = lv.orbit, transversal_rows(lv)
        assert o.dtype == T.dtype == lv.B.dtype == act.dtype
        assert sorted(o.tolist()) == sorted(set(o.tolist()))
        assert np.array_equal(T[:, i], o)
        assert (T[:, :i] == np.arange(i)).all()
        assert np.array_equal(T[0], np.arange(act.shape[1]))
        # the base images are all a level keeps per orbit point
        assert np.array_equal(lv.B, T[:, :2 * n])
        assert lv.S.shape[1] == lv.R.shape[1] == act.shape[1]
        assert (lv.R[np.arange(len(lv.S))[:, None], lv.S] == lv.ident).all()
        assert all(lv.element(t).tolist() == T[t].tolist()
                   for t in range(len(o)))


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2)])
def test_chain_stack_is_the_closure(p, n):
    gens = standard_generators(p, n)
    field, E = fpn._chain_elements(gens)
    closure = fpn.matrix_closure(gens)[1]
    assert field == p
    assert E.shape == closure.shape and E.dtype == closure.dtype
    key = np.dtype((np.void, E[0].nbytes))
    got = np.ascontiguousarray(E).reshape(len(E), -1).view(key).ravel()
    want = np.ascontiguousarray(closure).reshape(len(E), -1).view(key).ravel()
    assert len(set(got.tolist())) == len(E) == fpn.matrix_group_order(gens)
    assert set(got.tolist()) == set(want.tolist())


@pytest.mark.parametrize("cap", [1, 2, 100, 719, 720])
def test_chain_cap_is_the_closure_cap(cap):
    gens = standard_generators(2, 2)
    if cap == 720:
        assert fpn.matrix_group_order(gens, cap) == 720
        assert sum(fpn.bruhat_census(gens, cap).values()) == 720
        return
    with pytest.raises(CapExceeded) as closure:
        fpn.matrix_closure(gens, cap)
    for chain in (fpn.matrix_group_order, fpn.bruhat_census):
        with pytest.raises(CapExceeded) as refused:
            chain(gens, cap)
        assert str(refused.value) == str(closure.value)


def test_chain_stops_as_soon_as_the_orbits_pass_the_cap(monkeypatch):
    # the product of the orbit lengths only grows and ends at the order:
    # the chain raises at the first growth that takes it past the cap
    import brpic.groups as groups

    lengths, products, add = {}, [], groups._Level.add

    def spy(lv, gens):
        add(lv, gens)
        lengths[id(lv)] = len(lv.orbit)
        products.append(math.prod(lengths.values()))

    monkeypatch.setattr(groups._Level, "add", spy)
    act = fpn._basis_action(standard_generators(3, 3), CLOSURE_CAP)[2]
    with pytest.raises(CapExceeded,
                       match=r"^generated group exceeds the cap of 1000000$"):
        _stabilizer_chain(act, range(6), CLOSURE_CAP)
    assert products[-1] > CLOSURE_CAP >= max(products[:-1])


@pytest.mark.parametrize("spec, order", [
    ([(1, 2, 3, 0), (1, 0, 2, 3)], 24),
    ([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], 60),
])
def test_chain_cap_is_the_order(spec, order):
    rows = _index_rows(spec, len(spec[0]))
    assert chain_order(rows, range(len(spec[0]))) == order
    _stabilizer_chain(rows, range(len(spec[0])), order)
    with pytest.raises(CapExceeded, match=f"cap of {order - 1}$"):
        _stabilizer_chain(rows, range(len(spec[0])), order - 1)


def test_chain_needs_every_schreier_generator():
    # <(1 2)(3 4 5)> on base (1, 3): the orbit of 1 is {1, 2}, and only
    # the last Schreier generator, g * g = (3 5 4), is not the identity
    rows = _index_rows([(1, 0, 3, 4, 2)], 5)
    levels = _stabilizer_chain(rows, [0, 2], 6)
    assert [lv.orbit.tolist() for lv in levels] == [[0, 1], [2, 4, 3]]
    assert transversal_rows(levels[1]).tolist() == [
        [0, 1, 2, 3, 4], [0, 1, 4, 2, 3], [0, 1, 3, 4, 2]]


def test_chain_on_seeded_permutation_groups():
    # small groups of every kind, on a shuffled full base: the order and
    # the elements of each chain are those of the breadth-first closure
    rng = np.random.default_rng(29)
    orders = set()
    for _ in range(60):
        degree = int(rng.integers(3, 8))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            g = np.arange(degree)
            cycle = rng.permutation(degree)[:int(rng.integers(2, degree + 1))]
            g[cycle] = np.roll(cycle, 1)
            gens.append(tuple(g.tolist()))
        rows = _index_rows(gens, degree)
        elements = _perm_closure(gens)
        base = rng.permutation(degree).tolist()
        levels = _stabilizer_chain(rows, base, len(elements))
        assert math.prod(len(lv.orbit) for lv in levels) == len(elements)
        E = transversal_products(levels)
        assert sorted(map(tuple, E.tolist())) == elements
        with pytest.raises(CapExceeded):
            _stabilizer_chain(rows, base, len(elements) - 1)
        orders.add(len(elements))
    assert len(orders) > 10


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_chain_in_small_slices(monkeypatch, rows):
    # a level's Schreier generators are sifted a slice at a time; residues
    # found in one slice grow the chain the next slice sifts against
    import brpic.groups as groups

    monkeypatch.setattr(groups, "_CLOSURE_SLICE", rows)
    for (p, n), order in (((3, 2), 1152), ((2, 3), sp_order(3))):
        act = fpn._basis_action(standard_generators(p, n), CLOSURE_CAP)[2]
        assert chain_order(act, range(2 * n)) == order
