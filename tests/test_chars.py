"""Character table construction, restriction, and Clifford components."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brpic.chars as chars_mod
from brpic.chars import (
    Character,
    centralizer_table,
    character_table,
    clifford_decomposition,
    decompose,
    find_character,
    inner_product,
    is_irreducible,
    linear_characters,
    restrict,
    tensor,
)
from brpic.cyclo import (
    Cyclotomic,
    CycloArray,
    from_rational,
    one,
    root_of_unity,
    zero,
)
from brpic.errors import (
    CharacterTableError,
    NoSuchCharacter,
    NotAbelianNormal,
    NotASubgroup,
    NotIrreducible,
)
from brpic.groups import (
    abelian_normal_subgroups,
    alternating_group,
    centralizer,
    conjugacy_classes,
    named_group,
    normal_subgroups,
)

GROUP_NAMES = [
    "Z/1", "Z/2", "Z/3", "Z/4", "Z/6", "Z/2^2", "S3", "S4", "D4", "Q8", "A4", "A5",
]

# expected multisets of irreducible degrees
DEGREES = {
    "Z/1": (1,),
    "Z/2": (1, 1),
    "Z/3": (1, 1, 1),
    "Z/4": (1, 1, 1, 1),
    "Z/6": (1, 1, 1, 1, 1, 1),
    "Z/2^2": (1, 1, 1, 1),
    "S3": (1, 1, 2),
    "S4": (1, 1, 2, 3, 3),
    "D4": (1, 1, 1, 1, 2),
    "Q8": (1, 1, 1, 1, 2),
    "A4": (1, 1, 1, 3),
    "A5": (1, 3, 3, 4, 5),
}


def ints(*vals):
    return tuple(from_rational(v) for v in vals)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_degrees(name):
    t = character_table(named_group(name))
    assert tuple(ch.degree for ch in t) == DEGREES[name]


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_counts_and_sum_of_squares(name):
    G = named_group(name)
    t = character_table(G)
    assert len(t) == len(conjugacy_classes(G))
    assert sum(ch.degree ** 2 for ch in t) == G.n
    assert all(ch.degree > 0 and G.n % ch.degree == 0 for ch in t)


def test_table_memoized():
    G = named_group("S3")
    assert character_table(G) is character_table(G)


def test_trivial_character_is_row_zero():
    for name in GROUP_NAMES:
        G = named_group(name)
        t = character_table(G)
        assert all(v == 1 for v in t[0].values)


def test_z2_table():
    t = character_table(named_group("Z/2"))
    assert [ch.values for ch in t] == [ints(1, 1), ints(1, -1)]


def test_z3_zeta_before_zeta_squared():
    t = character_table(named_group("Z/3"))
    z = root_of_unity(3, 1)
    assert t[1].values == (one(), z, z * z)
    assert t[2].values == (one(), z * z, z)


def test_s3_table():
    t = character_table(named_group("S3"))
    # classes: e, transpositions (size 3), 3-cycles (size 2)
    assert [ch.values for ch in t] == [
        ints(1, 1, 1),
        ints(1, -1, 1),
        ints(2, 0, -1),
    ]


def test_s4_table():
    G = named_group("S4")
    cls = conjugacy_classes(G)
    assert [(G.names[c.rep], c.size) for c in cls] == [
        ("e", 1), ("(3 4)", 6), ("(2 3 4)", 8), ("(1 2)(3 4)", 3), ("(1 2 3 4)", 6),
    ]
    t = character_table(G)
    assert [ch.values for ch in t] == [
        ints(1, 1, 1, 1, 1),
        ints(1, -1, 1, 1, -1),
        ints(2, 0, -1, 2, 0),
        ints(3, 1, 0, -1, -1),   # standard precedes its sign twist
        ints(3, -1, 0, -1, 1),
    ]


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_tables_match_direct_formula(n):
    """Dual route: rows of Z/n must be exactly {k -> zeta_n^(jk)}."""
    G = named_group(f"Z/{n}")
    got = {ch.values for ch in character_table(G)}
    want = {
        tuple(root_of_unity(n, (j * k) % n) for k in range(n))
        for j in range(n)
    }
    assert got == want


def test_elementary_abelian_rows_form_a_group():
    t = character_table(named_group("Z/2^3"))
    rows = {ch.values for ch in t}
    assert len(rows) == 8
    assert all(v * v == 1 for row in rows for v in row)
    for a in rows:
        for b in rows:
            assert tuple(x * y for x, y in zip(a, b)) in rows


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_two_dimensional_character(name):
    t = character_table(named_group(name))
    (big,) = [ch for ch in t if ch.degree == 2]
    vals = sorted(v.order_key() for v in big.values)
    assert vals == sorted(v.order_key() for v in ints(2, -2, 0, 0, 0))


def test_a5_golden_ratio_values():
    G = named_group("A5")
    t = character_table(G)
    c5 = [c for c in conjugacy_classes(G) if G.order_of(c.rep) == 5][0]
    z = root_of_unity(5, 1)
    golden = {ch.values[c5.index] for ch in t if ch.degree == 3}
    assert golden == {-(z + z.galois(4)), -(z.galois(2) + z.galois(3))}


def test_orthogonality_exact():
    G = named_group("S4")
    t = character_table(G)
    for i, a in enumerate(t):
        for j, b in enumerate(t):
            got = inner_product(a, b)
            assert got == (one() if i == j else zero())


def test_inner_product_is_exact_cyclotomic():
    t = character_table(named_group("S3"))
    assert isinstance(inner_product(t[2], t[2]), Cyclotomic)
    assert inner_product(t[2], t[2]) == 1
    assert inner_product(t[2], t[0]) == 0


def test_is_irreducible():
    t = character_table(named_group("S3"))
    assert all(is_irreducible(ch) for ch in t)
    assert not is_irreducible(tensor(t[2], t[2]))


def test_tensor_square_of_standard_s3():
    t = character_table(named_group("S3"))
    sq = tensor(t[2], t[2])
    assert decompose(sq) == [(1, t[0]), (1, t[1]), (1, t[2])]


def test_restrict_standard_s3_to_a3():
    G = named_group("S3")
    t = character_table(G)
    A3 = [s for s in abelian_normal_subgroups(G) if s.order == 3][0]
    assert A3.elements == (0, 3, 4)
    res = restrict(t[2], A3)
    assert res.values == ints(2, -1, -1)
    parts = decompose(res)
    Hgrp, _ = A3.as_group()
    ht = character_table(Hgrp)
    assert parts == [(1, ht[1]), (1, ht[2])]


def test_restrict_rejects_foreign_subgroup():
    G, H = named_group("S3"), named_group("S4")
    chi = character_table(G)[2]
    sub = H.subgroup([0, 1])
    with pytest.raises(NotASubgroup):
        restrict(chi, sub)


def test_restriction_commutes_with_tensor():
    G = named_group("S4")
    t = character_table(G)
    V = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    a, b = t[3], t[4]
    lhs = restrict(tensor(a, b), V)
    rhs = tensor(restrict(a, V), restrict(b, V))
    assert lhs.values == rhs.values


def test_clifford_s3():
    G = named_group("S3")
    t = character_table(G)
    A3 = [s for s in abelian_normal_subgroups(G) if s.order == 3][0]
    comps = clifford_decomposition(t[2], A3)
    assert len(comps) == 2
    z = root_of_unity(3, 1)
    assert [c.linear_char.values for c in comps] == [
        (one(), z, z * z), (one(), z * z, z),
    ]
    assert all(c.multiplicity_dim == 1 for c in comps)
    assert all(c.inertia.elements == A3.elements for c in comps)


def test_clifford_s4_klein():
    G = named_group("S4")
    t = character_table(G)
    V = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    assert V.elements == (0, 7, 16, 23)
    comps = clifford_decomposition(t[3], V)
    assert len(comps) == 3
    for c in comps:
        assert c.multiplicity_dim == 1
        assert not all(v == 1 for v in c.linear_char.values)
        assert c.inertia.order == 8
        assert all(g in c.inertia for g in V.elements)
    # orbit-stabilizer: |orbit| * |inertia| = |G|
    assert len(comps) * comps[0].inertia.order == G.n


def test_clifford_trivial_character():
    G = named_group("S4")
    t = character_table(G)
    V = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    comps = clifford_decomposition(t[0], V)
    assert len(comps) == 1
    assert all(v == 1 for v in comps[0].linear_char.values)
    assert comps[0].inertia.order == G.n


def test_clifford_whole_abelian_group():
    G = named_group("Z/6")
    t = character_table(G)
    full = G.full_subgroup()
    for chi in t:
        comps = clifford_decomposition(chi, full)
        assert len(comps) == 1 and comps[0].multiplicity_dim == 1
        assert comps[0].inertia.order == 6


def test_clifford_components_outside_one_orbit_raise(monkeypatch):
    # a restriction meeting the trivial character of A3 and a nontrivial one
    # once each passes the equal-multiplicity check but spans two orbits
    G = named_group("S3")
    A3 = [s for s in abelian_normal_subgroups(G) if s.order == 3][0]
    A3grp, _ = A3.as_group()
    lam = character_table(A3grp)
    fake = chars_mod.ClassFunction(
        A3grp, tuple(a + b for a, b in zip(lam[0].values, lam[1].values)))
    monkeypatch.setattr(chars_mod, "restrict", lambda chi, S: fake)
    with pytest.raises(CharacterTableError, match="not one orbit"):
        clifford_decomposition(character_table(G)[0], A3)


def test_clifford_rejects_nonnormal():
    G = named_group("S3")
    chi = character_table(G)[2]
    with pytest.raises(NotAbelianNormal):
        clifford_decomposition(chi, G.subgroup([0, 1]))


def test_clifford_rejects_nonabelian_normal():
    G = named_group("S4")
    chi = character_table(G)[3]
    A4 = [s for s in normal_subgroups(G) if s.order == 12][0]
    with pytest.raises(NotAbelianNormal):
        clifford_decomposition(chi, A4)


def test_clifford_rejects_reducible():
    G = named_group("S3")
    t = character_table(G)
    fake = Character(G, tensor(t[2], t[2]).values)
    A3 = [s for s in abelian_normal_subgroups(G) if s.order == 3][0]
    with pytest.raises(NotIrreducible):
        clifford_decomposition(fake, A3)


def test_linear_characters_counts():
    expected = {"S3": 2, "S4": 2, "A4": 3, "D4": 4, "Q8": 4, "Z/6": 6, "A5": 1}
    for name, k in expected.items():
        assert len(linear_characters(named_group(name))) == k


def test_find_character():
    G = named_group("S3")
    assert find_character(G, ints(1, -1, 1)) == 1
    with pytest.raises(NoSuchCharacter):
        find_character(G, ints(1, 1, -1))


@pytest.mark.parametrize("name", ["S4", "Z/2^3"])
def test_find_character_agrees_with_a_scan(name):
    G = named_group(name)
    for c in conjugacy_classes(G):
        H, _, table = centralizer_table(G, c.rep)
        for i, ch in enumerate(table):
            scan = next(k for k, row in enumerate(table)
                        if row.values == ch.values)
            assert find_character(H, list(ch.values)) == scan == i
        doubled = tuple(v + v for v in table[0].values)
        with pytest.raises(NoSuchCharacter):
            find_character(H, doubled)


def test_centralizer_table_of_4_cycle():
    G = named_group("S4")
    rep = [c.rep for c in conjugacy_classes(G) if G.order_of(c.rep) == 4][0]
    H, elems, ht = centralizer_table(G, rep)
    assert H.n == 4 and len(elems) == 4
    i = root_of_unity(4, 1)
    assert [ch.values for ch in ht] == [
        ints(1, 1, 1, 1),
        ints(1, -1, 1, -1),
        (one(), i, -one(), -i),
        (one(), -i, -one(), i),
    ]
    assert centralizer_table(G, rep)[0] is H  # memoized


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4, 5, 6, 8, 12]),
    j=st.integers(0, 11),
    k=st.integers(0, 11),
)
def test_cyclic_character_values_multiplicative(n, j, k):
    """chi(g^a) chi(g^b) = chi(g^(a+b)) for every row of a cyclic table."""
    G = named_group(f"Z/{n}")
    for ch in character_table(G):
        a, b = j % n, k % n
        assert ch.values[a] * ch.values[b] == ch.values[(a + b) % n]


def test_a4_linear_characters_see_the_quotient_by_klein():
    G = alternating_group(4)
    t = character_table(G)
    c3 = [c for c in conjugacy_classes(G) if G.order_of(c.rep) == 3][0]
    z = root_of_unity(3, 1)
    vals = {ch.values[c3.index] for ch in t if ch.degree == 1}
    assert vals == {one(), z, z * z}


# ---------------------------------------------------------------------------
# certification of a table and shared centralizer tables
# ---------------------------------------------------------------------------

def corrupted_table(name, row, cls):
    """(G, copy of G's table with the value of ``row`` at class ``cls``
    raised by 1)."""
    G = named_group(name)
    table = [Character(G, ch.values) for ch in character_table(G)]
    vals = list(table[row].values)
    vals[cls] = vals[cls] + one()
    table[row] = Character(G, tuple(vals))
    return G, table


# (row, class) edits: A5's (1, 3) edits the golden ratio at a class of
# 5-cycles, the others rational values; none touches the identity class, so
# the degrees stay as they are
CORRUPTIONS = [("S3", 1, 1), ("S3", 2, 2), ("A5", 1, 3), ("A5", 4, 2)]


@pytest.mark.parametrize("name,row,cls", CORRUPTIONS)
def test_corrupted_table_fails_row_orthogonality(name, row, cls):
    G, table = corrupted_table(name, row, cls)
    with pytest.raises(CharacterTableError,
                       match=r"^row orthogonality fails at \(\d+,\d+\)$"):
        chars_mod._certify(G, table)


def test_corrupted_table_raises_under_python_O():
    code = (
        "from brpic.chars import Character, _certify, character_table\n"
        "from brpic.errors import CharacterTableError\n"
        "from brpic.groups import named_group\n"
        "G = named_group('A5')\n"
        "table = list(character_table(G))\n"
        "vals = list(table[1].values)\n"
        "vals[3] = vals[3] + 1\n"
        "table[1] = Character(G, tuple(vals))\n"
        "try:\n"
        "    _certify(G, table)\n"
        "except CharacterTableError as e:\n"
        "    print('rejected:', e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("rejected: row orthogonality")


@pytest.mark.parametrize("name", ["A4", "A5"])
def test_table_certificate_int64_and_object_routes_agree(name):
    G = named_group(name)
    X = np.array([ch.values for ch in character_table(G)], dtype=object)
    X = CycloArray.lift(X)
    assert X.den == 1 and X.A.dtype == np.int64 and X.L > 1
    sizes = np.array([c.size for c in conjugacy_classes(G)])

    def products(X):
        Xbar = X.conj().transpose()
        return [(X * sizes) @ Xbar, Xbar @ X]

    fast = products(X)
    exact = products(CycloArray(X.L, X.den, X.A.astype(object)))
    assert all(p.A.dtype == np.int64 for p in fast)
    assert all(p.A.dtype == object for p in exact)
    for f, e in zip(fast, exact):
        assert [int(x) for x in f.A.flat] == [int(x) for x in e.A.flat]
    # and both are the orthogonality relations
    rows, cols = (p.A for p in fast)
    assert np.array_equal(rows[0], G.n * np.eye(len(sizes), dtype=np.int64))
    assert np.array_equal(cols[0], np.diag(G.n // sizes))
    assert not rows[1:].any() and not cols[1:].any()


@pytest.mark.parametrize("name,elements", [
    ("Z/6", range(6)),
    ("S3", None),                   # the two 3-cycles
], ids=["Z/6", "S3-3-cycles"])
def test_equal_centralizers_share_one_table(name, elements):
    G = named_group(name)
    if elements is None:
        [cl] = [c for c in conjugacy_classes(G) if G.order_of(c.rep) == 3]
        elements = cl.members
    elements = list(elements)
    assert len(elements) > 1
    first = centralizer_table(G, elements[0])
    for g in elements:
        assert centralizer_table(G, g) is first
        # the table of a freshly built centralizer of g in a new instance
        F = named_group(name)
        H, elems = centralizer(F, g).as_group()
        assert elems == first[1]
        assert np.array_equal(H.table, first[0].table)
        assert ([ch.values for ch in character_table(H)]
                == [ch.values for ch in first[2]])
