"""Group infrastructure tests: frozen structural facts about the running
example groups (class sizes, subgroup counts, automorphism orders from
standard references) plus exhaustive structural invariants."""

import re

import numpy as np
import pytest

from brpic import groups as gr
from brpic.errors import (
    BadSemidirectAction,
    BudgetExceeded,
    CapExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotNormal,
    UnknownName,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_trivial_group():
    G = gr.group_from_table([[0]])
    assert G.n == 1 and G.identity == 0


def test_z2_table():
    G = gr.group_from_table([[0, 1], [1, 0]])
    assert G.n == 2
    assert G.inv_of(1) == 1


def test_not_associative_witness():
    with pytest.raises(NotAssociative):
        gr.group_from_table([[0, 1, 2], [1, 2, 1], [2, 1, 1]])


def test_no_identity():
    with pytest.raises(NoIdentity):
        gr.group_from_table([[0, 0], [0, 0]])


def test_no_inverse():
    with pytest.raises(NoInverse):
        gr.group_from_table([[0, 1], [1, 1]])


@pytest.mark.parametrize("validate", [True, False])
def test_identity_must_be_element_zero(validate):
    # Z/3 with its identity at element 2: class 0, the trivial character
    # and the unit object are all read at element 0
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    with pytest.raises(ValueError, match="identity must be element 0.*"
                                         "element 2 "):
        gr.FiniteGroup(table, validate=validate)


# ---------------------------------------------------------------------------
# the naming mini-language
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,order",
    [("S3", 6), ("S4", 24), ("S5", 120), ("A4", 12), ("A5", 60),
     ("D4", 8), ("Q8", 8), ("Z/7", 7), ("Z/2^3", 8), ("Z/12", 12)],
)
def test_named_orders(name, order):
    assert gr.named_group(name).n == order


def test_unknown_name():
    with pytest.raises(UnknownName):
        gr.named_group("E8")


def test_semidirect_name_is_s3():
    H = gr.named_group("Z/3:Z/2")       # bare colon = inversion action
    assert H.n == 6
    assert gr.is_isomorphic(H, gr.named_group("S3"))
    H2 = gr.named_group("Z/3:Z/2@inv")
    assert np.array_equal(H.table, H2.table)


def test_semidirect_trivial_action_is_cyclic():
    H = gr.named_group("Z/3:Z/2@id")
    assert H.is_abelian()
    assert gr.is_isomorphic(H, gr.named_group("Z/6"))


def test_semidirect_bad_action():
    with pytest.raises(BadSemidirectAction):
        gr.named_group("Z/3:Z/3@inv")    # inversion has order 2, not | 3
    with pytest.raises(BadSemidirectAction):
        gr.named_group("Z/3:Z/2@[0,1,1]")


def test_perm_generators():
    G = gr.named_group("perm:(1 2 3)(4 5)")
    assert G.n == 6
    H = gr.named_group("perm:(1 2 3),(1 2)")
    assert H.n == 6 and not H.is_abelian()


@pytest.mark.parametrize("spec", ["(1 2)(2 3)", "(1 2 3)(3 4)", "(1 2)(1 2)",
                                  "(1 2),(3 4)(4 5 6)"])
def test_perm_generator_with_overlapping_cycles_is_refused(spec):
    # one map from both cycles is no bijection ((1 2)(2 3) gave [1, 2, 1])
    with pytest.raises(UnknownName, match=re.escape("bad cycle string")):
        gr.named_group(f"perm:{spec}")


@pytest.mark.parametrize("spec, message", [
    ("perm:(1 a)", "bad cycle '(1 a)'"),
    ("perm:(1.5 2)", "bad cycle '(1.5 2)'"),
    ("perm:()", "bad cycle '()'"),
    ("perm:(1 2),()", "bad cycle '()'"),
    ("perm:(1 2)( )", "bad cycle '( )'"),
])
def test_malformed_cycle_is_refused(spec, message):
    with pytest.raises(UnknownName, match=f"^{re.escape(message)}$"):
        gr.named_group(spec)


@pytest.mark.parametrize("spec, message", [
    ("Z/3:Z/2@[0,2,x]", "bad action '[0,2,x]'"),
    ("Z/3:Z/2@[0,2,1]]", "bad action '[0,2,1]]'"),
    ("Z/3:Z/2@[0,2,1", "unknown action '[0,2,1'"),
    ("Z/3:Z/2@[0,5,2]", "element 5 is not in Z/3 (order 3)"),
])
def test_malformed_action_is_refused(spec, message):
    with pytest.raises(BadSemidirectAction, match=f"^{re.escape(message)}$"):
        gr.named_group(spec)


def test_direct_product_name():
    G = gr.named_group("Z/2xZ/3")
    assert G.n == 6 and G.is_abelian()


def test_order_cap():
    with pytest.raises(CapExceeded):
        gr.named_group("Z/300")
    assert gr.named_group("Z/300", cap=500).n == 300


def test_factor_orders_use_the_callers_cap():
    assert gr.named_group("Z/300xZ/2", cap=1000).n == 600
    assert gr.named_group("Z/300:Z/2", cap=1000).n == 600
    with pytest.raises(CapExceeded):
        gr.named_group("Z/50xZ/5", cap=249)


@pytest.mark.parametrize(
    "spec", ["Z/1000", "Z/2^11", "Z/50xZ/50", "Z/50:Z/50",
             "perm:(1 2 3 4 5 6),(1 2)"]
)
def test_over_cap_names_are_rejected_before_building(spec):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            gr.named_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_permutation_degree_limit(monkeypatch):
    limit = gr.PERM_DEGREE_LIMIT
    G = gr.named_group(f"perm:(1 {limit})")
    assert G.n == 2 and G.names == ("e", f"(1 {limit})")

    def refuse(*args):
        pytest.fail("a generator was built")

    # refused before a generator tuple or the closure exists
    monkeypatch.setattr(gr, "_perm_closure", refuse)
    message = (f"^permutation degree {limit + 1} exceeds"
               f" PERM_DEGREE_LIMIT = {limit}$")
    for spec in (f"perm:(1 {limit + 1})", f"perm:(1 2),(3 {limit + 1} 4)"):
        with pytest.raises(BudgetExceeded, match=message):
            gr.named_group(spec)


def test_far_point_is_refused_in_constant_memory():
    # the generator of perm:(1 200000) alone was 200,000 points (60 MB peak)
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="PERM_DEGREE_LIMIT"):
            gr.named_group("perm:(1 200000)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_permutation_closure_cap_boundary():
    assert gr.named_group("perm:(1 2 3 4),(1 2)", cap=24).n == 24
    with pytest.raises(CapExceeded):
        gr.named_group("perm:(1 2 3 4),(1 2)", cap=23)


def test_cycles():
    assert gr._cycles((0, 1, 2)) == []
    assert gr._cycles((1, 2, 0, 4, 3, 5)) == [[0, 1, 2], [3, 4]]
    assert gr._perm_name((1, 2, 0, 4, 3, 5)) == "(1 2 3)(4 5)"
    assert gr._perm_name((0, 1)) == "e"


def test_d4_presentation():
    """D4 contains reflections x, y with x^2 = y^2 = (xy)^4 = e generating it."""
    G = gr.named_group("D4")
    found = False
    for x in range(G.n):
        for y in range(G.n):
            if (G.order_of(x) == 2 and G.order_of(y) == 2
                    and G.order_of(G.mul(x, y)) == 4
                    and len(G.closure([x, y])) == 8):
                found = True
    assert found


def test_q8_structure():
    G = gr.named_group("Q8")
    orders = sorted(G.order_of(g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]   # unique involution -1
    assert G.center_elements() == (0, 1)
    assert G.exponent() == 4


# ---------------------------------------------------------------------------
# conjugacy structure
# ---------------------------------------------------------------------------

def test_s3_classes_frozen():
    G = gr.named_group("S3")
    cls = gr.conjugacy_classes(G)
    assert [c.size for c in cls] == [1, 3, 2]
    assert [c.rep for c in cls] == [0, 1, 3]
    assert G.names[1] == "(2 3)" and G.names[3] == "(1 2 3)"


def test_s4_classes_frozen():
    G = gr.named_group("S4")
    cls = gr.conjugacy_classes(G)
    assert [c.size for c in cls] == [1, 6, 8, 3, 6]
    assert [G.names[c.rep] for c in cls] == [
        "e", "(3 4)", "(2 3 4)", "(1 2)(3 4)", "(1 2 3 4)"
    ]


def test_abelian_classes_are_singletons():
    G = gr.named_group("Z/12")
    assert all(c.size == 1 for c in gr.conjugacy_classes(G))


def test_s3_centralizers():
    G = gr.named_group("S3")
    assert gr.centralizer(G, G.identity).order == 6
    assert gr.centralizer(G, 1).order == 2     # a transposition
    assert gr.centralizer(G, 3).order == 3     # a 3-cycle


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "A4", "Z/12"])
def test_class_equation(name):
    G = gr.named_group(name)
    cls = gr.conjugacy_classes(G)
    assert sum(c.size for c in cls) == G.n
    for c in cls:
        assert G.n % c.size == 0
        assert gr.centralizer(G, c.rep).order * c.size == G.n


# ---------------------------------------------------------------------------
# morphisms and automorphisms
# ---------------------------------------------------------------------------

def test_automorphism_counts_frozen():
    # |Aut|: S3 -> 6, Z/2^2 -> 6 (GL_2(F_2)), Z/8 -> 4, Q8 -> 24, trivial -> 1
    assert len(gr.automorphisms(gr.named_group("S3"))) == 6
    assert len(gr.automorphisms(gr.named_group("Z/2^2"))) == 6
    assert len(gr.automorphisms(gr.named_group("Z/8"))) == 4
    assert len(gr.automorphisms(gr.named_group("Q8"))) == 24
    assert len(gr.automorphisms(gr.group_from_table([[0]]))) == 1


def test_outer_classes():
    assert len(gr.outer_representatives(gr.named_group("S3"))) == 1
    assert len(gr.outer_representatives(gr.named_group("Z/2^2"))) == 6  # Inn trivial
    assert len(gr.outer_representatives(gr.named_group("D4"))) == 2


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_inner_is_g_mod_center(name):
    G = gr.named_group(name)
    inner = gr.inner_automorphisms(G)
    assert len(inner) == G.n // len(G.center_elements())


def test_aut_closed_under_composition():
    G = gr.named_group("S3")
    auts = {a.images for a in gr.automorphisms(G)}
    for a in gr.automorphisms(G):
        assert a.inverse().images in auts
        for b in gr.automorphisms(G):
            assert a.compose(b).images in auts


def test_morphism_rejects_non_hom():
    G = gr.named_group("Z/4")
    with pytest.raises(Exception):
        gr.GroupMorphism(G, G, (0, 2, 1, 3), check=True)


def test_iso_search_cap():
    G = gr.named_group("Z/2^3")          # |Aut| = 168
    with pytest.raises(CapExceeded):
        gr.automorphisms(G, cap=10)
    assert len(gr.automorphisms(G, cap=200)) == 168


@pytest.mark.parametrize("name,order", [
    ("S3", 6), ("S4", 24), ("Z/2^3", 168), ("Q8", 24),
])
def test_iso_search_cap_is_inclusive(name, order):
    # cap = |Aut G| returns every automorphism; one fewer raises
    assert len(gr.automorphisms(gr.named_group(name), cap=order)) == order
    with pytest.raises(CapExceeded):
        gr.automorphisms(gr.named_group(name), cap=order - 1)


def test_isomorphisms_come_lazily_in_image_order():
    G, H = gr.named_group("S3"), gr.named_group("Z/3:Z/2@inv")
    isos = [m.images for m in gr.isomorphisms(G, H)]
    assert isos == sorted(isos) and len(set(isos)) == 6
    assert next(gr._iso_backtrack(G, H)) == isos[0]
    assert not gr.is_isomorphic(G, gr.named_group("Z/6"))


# ---------------------------------------------------------------------------
# subgroups / normal structure
# ---------------------------------------------------------------------------

def test_subgroup_counts_frozen():
    assert len(gr.all_subgroups(gr.named_group("S3"))) == 6
    assert len(gr.all_subgroups(gr.named_group("D4"))) == 10
    assert len(gr.all_subgroups(gr.named_group("A5"))) == 59


def test_subgroup_cap():
    with pytest.raises(CapExceeded):
        gr.all_subgroups(gr.named_group("S4"), cap=5)


def test_s3_abelian_normals():
    G = gr.named_group("S3")
    subs = gr.abelian_normal_subgroups(G)
    assert [s.order for s in subs] == [1, 3]
    assert subs[1].elements == (0, 3, 4)     # <(1 2 3)>


def test_s4_contains_normal_klein():
    G = gr.named_group("S4")
    subs = gr.abelian_normal_subgroups(G)
    assert (0, 7, 16, 23) in [s.elements for s in subs]
    klein = G.subgroup((0, 7, 16, 23))
    assert klein.is_normal() and klein.is_abelian()
    assert [G.names[g] for g in (7, 16, 23)] == [
        "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"
    ]


def test_a5_has_no_nontrivial_abelian_normals():
    G = gr.named_group("A5")
    subs = gr.abelian_normal_subgroups(G)
    assert len(subs) == 1 and subs[0].order == 1


def test_s3_semidirect_decompositions():
    G = gr.named_group("S3")
    decs = gr.semidirect_decompositions(G)
    # N = 1 with Q = S3, and N = <(123)> with each of the three Z/2s
    assert [(d.n.order, d.q.order) for d in decs] == [(1, 6), (3, 2), (3, 2), (3, 2)]


def test_a5_only_trivial_decomposition():
    G = gr.named_group("A5")
    decs = gr.semidirect_decompositions(G)
    assert len(decs) == 1
    assert decs[0].n.order == 1 and decs[0].q.order == 60


def test_semidirect_round_trip():
    G = gr.named_group("S3")
    for d in gr.semidirect_decompositions(G):
        if d.n.order == 1:
            continue
        Ngrp, _ = d.n.as_group()
        Qgrp, _ = d.q.as_group()
        H = gr.semidirect_product(Ngrp, Qgrp, d.action)
        assert gr.is_isomorphic(H, G)


def test_quotient_s3_by_a3():
    G = gr.named_group("S3")
    N = G.subgroup((0, 3, 4))
    Q, proj = gr.quotient(G, N)
    assert Q.n == 2
    assert proj(0) == 0 and proj(3) == 0 and proj(1) == 1


def test_quotient_not_normal():
    G = gr.named_group("S3")
    with pytest.raises(NotNormal):
        gr.quotient(G, G.subgroup((0, 1)))


def test_quotient_by_trivial():
    G = gr.named_group("D4")
    Q, proj = gr.quotient(G, G.trivial_subgroup())
    assert gr.is_isomorphic(Q, G)
    assert proj.images == tuple(range(G.n))


def test_first_conjugator():
    G = gr.named_group("S3")
    x = gr.first_conjugator(G, 1, 2)
    assert x is not None and G.conj(1, x) == 2
    assert gr.first_conjugator(G, 1, 3) is None   # different classes


def test_conjugation_tables():
    G = gr.named_group("S3")
    act = G.conjugation()
    assert all(act[x, g] == G.conj(g, x)
               for x in range(G.n) for g in range(G.n))
    H = G.subgroup([0, 1])                      # generated by (2 3)
    sub = H.conjugation()
    assert sub.shape == (G.n, H.order)
    for x in range(G.n):
        for i, s in enumerate(H.elements):
            moved = G.conj(s, x)
            if moved in H:
                assert H.elements[sub[x, i]] == moved
            else:
                assert sub[x, i] == -1
    assert (sub == -1).any() and not H.is_normal()
    assert G.subgroup([0, 3, 4]).is_normal()
    for table in (act, sub):
        with pytest.raises(ValueError):
            table[0, 0] = 0


@pytest.mark.parametrize("ids,bad", [((0, -3, -2), -3), ((0, 3, 99), 99)])
def test_subgroup_rejects_ids_outside_the_group(ids, bad):
    G = gr.named_group("S3")
    with pytest.raises(ValueError, match=f"element {bad} is not in S3"):
        gr.Subgroup(G, ids)


@pytest.mark.parametrize("at_end", [False, True])
def test_closure_rejects_ids_outside_the_group(at_end):
    # -1 was read as the last element and G.n raised a bare IndexError
    G = gr.named_group("S3")
    bad = G.n if at_end else -1
    with pytest.raises(ValueError, match=f"element {bad} is not in S3"):
        G.closure((bad,))


def test_morphism_rejects_images_outside_the_group():
    G = gr.named_group("S3")
    for images in ((0, 1, 2, 3, 4, 9), (0, 1, 2, 3, 4, -1)):
        with pytest.raises(ValueError, match="is not in S3"):
            gr.GroupMorphism(G, G, images)


# int() truncated each of these to an element: 3.7 to 3, True to 1
NOT_INTS = [3.7, 0.0, True, np.float64(2.0), np.bool_(True), "1", None]


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
def test_ids_that_are_not_ints_are_refused(bad):
    G = gr.named_group("S3")
    message = re.escape(f"element {bad} is not in S3 (order 6)")
    with pytest.raises(ValueError, match=message):
        gr.Subgroup(G, [0, bad, 4])
    with pytest.raises(ValueError, match=message):
        G.closure([bad])
    images = list(range(6))
    images[2] = bad
    with pytest.raises(ValueError, match=message):
        gr.GroupMorphism(G, G, images)


def test_the_first_id_that_is_not_an_int_is_named():
    G = gr.named_group("S3")
    with pytest.raises(ValueError, match=re.escape("element 0.0 is not in S3")):
        gr.Subgroup(G, [0.0, 3.7, 4.2])
    with pytest.raises(ValueError, match=re.escape("element 0.5 is not in S3")):
        gr.GroupMorphism(G, G, [x + 0.5 for x in range(6)])
    with pytest.raises(ValueError, match=re.escape("element 3.9 is not in S3")):
        G.closure([3.9])


def test_numpy_integer_ids_are_read_as_ints():
    G = gr.named_group("S3")
    ids = np.array([0, 3, 4], dtype=np.uint8)
    assert gr.Subgroup(G, ids).elements == (0, 3, 4)
    assert G.closure(ids[1:2]) == (0, 3, 4)
    assert gr.GroupMorphism(G, G, np.arange(6)).images == tuple(range(6))
    assert gr._int_ids(np.arange(3, dtype=np.int16)) == (0, 1, 2)
    assert all(type(x) is int for x in gr._int_ids(np.arange(3)))
    assert gr._int_ids([0, 1, True]) is None
    assert gr._int_ids([0, 1.0]) is None


def test_opposite_group():
    G = gr.named_group("S3")
    O = gr.opposite_group(G)
    for a in range(6):
        for b in range(6):
            assert O.mul(a, b) == G.mul(b, a)


def test_minimal_generators():
    G = gr.named_group("S4")
    gens = G.minimal_generators()
    assert len(G.closure(gens)) == 24
    # greedy smallest-index generation: (3 4), (2 3), then a 4-point element
    assert gens == (1, 2, 6)


def test_exponents():
    assert gr.named_group("S4").exponent() == 12
    assert gr.named_group("Z/2^2").exponent() == 2


def test_determinism():
    a = gr.named_group("S4")
    b = gr.named_group("S4")
    assert np.array_equal(a.table, b.table) and a.names == b.names
    auts_a = [m.images for m in gr.automorphisms(a)]
    auts_b = [m.images for m in gr.automorphisms(b)]
    assert auts_a == auts_b
