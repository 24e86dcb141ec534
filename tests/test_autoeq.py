"""Braided autoequivalences: constructions, search, group structure,
bimodule invariants."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from brpic.autoeq import (
    EXTENSION_NODE_BUDGET,
    BraidedAutoeq,
    PartialBrEq,
    Provenance,
    autoeq_from_json,
    autoeq_to_json,
    bimodule_data,
    complete_extensions,
    compose,
    equal,
    from_bv,
    from_ev_lazy,
    from_hopf_auto,
    generate_group,
    identity_autoeq,
    inverse,
    partial_dualization_rprime,
    preserves_modular_data,
    self_dual_pairing,
    _certify_preservation,
    _check_preservation,
    _fingerprints,
    _refine_candidates,
    _unit_index,
)
from brpic.center import ModularData, modular_data, simple_objects
from brpic.chars import centralizer_table, character_table, find_character
from brpic.cohom import (
    Cocycle2,
    Pairing,
    antisymmetrize,
    coboundary,
    dual_element,
    h2_classes,
    is_nondegenerate,
)
from brpic.cyclo import one, root_of_unity
from brpic.errors import (
    BudgetExceeded,
    CapExceeded,
    ConditionFailed,
    Degenerate,
    DomainMismatch,
    NoComplement,
    NoExtension,
    NotAbelianNormal,
    NotAnAutomorphism,
    NotBraided,
    NotLazy,
    NotSelfDual,
    TwistNotCharacter,
    UnsupportedProvenance,
)
from brpic.groups import (
    GroupMorphism,
    abelian_normal_subgroups,
    all_subgroups,
    automorphisms as automorphism_search,
    class_of,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    identity_morphism,
    named_group,
    opposite_group,
    semidirect_product,
)


def brute_force_automorphisms(G):
    """All automorphisms, by brute force (use only on tiny groups)."""
    out = []
    for imgs in itertools.permutations(range(G.n)):
        if imgs[G.identity] != G.identity:
            continue
        try:
            v = GroupMorphism(G, G, imgs, check=True)
        except Exception:
            continue
        if v.is_automorphism():
            out.append(v)
    return out


def inner_automorphism(G, c):
    return GroupMorphism(G, G, tuple(G.conj(g, c) for g in range(G.n)))


# ---------------------------------------------------------------------------
# V: transport along automorphisms
# ---------------------------------------------------------------------------

class TestHopfAuto:
    def test_identity_is_identity(self):
        for name in ("S3", "Z/2^2"):
            F = identity_autoeq(named_group(name))
            assert F.is_identity()
            assert F.provenance.kind == "v"

    @pytest.mark.parametrize("name", ["S3", "S4"])
    def test_inner_automorphisms_act_trivially(self, name):
        G = named_group(name)
        for c in range(G.n):
            assert from_hopf_auto(inner_automorphism(G, c)).is_identity()

    def test_z5_doubling_against_direct_label_arithmetic(self):
        Z5 = named_group("Z/5")
        v = GroupMorphism(Z5, Z5, tuple((2 * g) % 5 for g in range(5)))
        F = from_hopf_auto(v)
        table = character_table(Z5)
        # (a, chi) -> (2a, chi after v^-1), v^-1 = multiplication by 3
        for a in range(5):
            for k in range(5):
                vals = [table[k].value_at_element((3 * x) % 5)
                        for x in range(5)]
                j = find_character(Z5, vals)
                assert F.mapping[5 * a + k] == 5 * ((2 * a) % 5) + j
        # 2 has multiplicative order 4 mod 5
        P = F
        for _ in range(3):
            P = compose(F, P)
        assert P.is_identity() and not F.is_identity()

    def test_rejects_non_automorphism(self):
        S3 = named_group("S3")
        collapse = GroupMorphism(S3, S3, (0,) * 6)
        with pytest.raises(NotAnAutomorphism):
            from_hopf_auto(collapse)
        Z2 = named_group("Z/2")
        with pytest.raises(NotAnAutomorphism):
            from_hopf_auto(GroupMorphism(Z2, S3, (0, 1)))

    def test_conjugator_choice_is_immaterial(self):
        # transported characters agree for every conjugator choice, since
        # two choices differ by an inner automorphism of the centralizer
        S4 = named_group("S4")
        for cl in conjugacy_classes(S4):
            r = cl.rep
            Hr, elems_r, table_r = centralizer_table(S4, r)
            for h in cl.members:
                Hh, elems_h, table_h = centralizer_table(S4, h)
                pos_h = {e: i for i, e in enumerate(elems_h)}
                conjugators = [
                    c for c in range(S4.n)
                    if S4.mul(S4.mul(c, h), S4.inv_of(c)) == r
                ]
                for ch in table_h:
                    landed = set()
                    for c in conjugators:
                        cinv = S4.inv_of(c)
                        vals = [
                            ch.value_at_element(pos_h[
                                S4.mul(S4.mul(cinv, elems_r[cc.rep]), c)
                            ])
                            for cc in conjugacy_classes(Hr)
                        ]
                        landed.add(find_character(Hr, vals))
                    assert len(landed) == 1


# ---------------------------------------------------------------------------
# BV: cocycle twists
# ---------------------------------------------------------------------------

class TestBV:
    def test_trivial_cocycle_reduces_to_hopf_auto(self):
        for name in ("Z/2^2", "S4"):
            G = named_group(name)
            zero = Cocycle2(G, 2, np.zeros((G.n, G.n), dtype=np.int64))
            v = identity_morphism(G)
            assert equal(from_bv(v, zero), from_hopf_auto(v))

    def test_s4_nontrivial_class_swaps_minus_characters(self):
        S4 = named_group("S4")
        mu = h2_classes(S4, 2)[1]
        F = from_bv(identity_morphism(S4), mu)
        simples = simple_objects(S4)
        classes = conjugacy_classes(S4)
        # locate the transposition-class objects and read their characters
        # on the two commuting transpositions of the centralizer
        tcl = next(c for c in classes
                   if S4.order_of(c.rep) == 2 and c.size == 6)
        H, elems, table = centralizer_table(S4, tcl.rep)
        transpositions = [e for e in elems
                          if S4.order_of(e) == 2 and e != tcl.rep
                          and S4.order_of(S4.mul(e, tcl.rep)) == 2
                          and class_of(S4, e) == tcl.index]
        other = transpositions[0]
        signs = {}
        for i, s in enumerate(simples):
            if s.class_index != tcl.index:
                continue
            ch = table[s.char_index]
            signs[i] = (
                ch.value_at_element(elems.index(tcl.rep)) == one(),
                ch.value_at_element(elems.index(other)) == one(),
            )
        minus_plus = next(i for i, sg in signs.items() if sg == (False, True))
        minus_minus = next(i for i, sg in signs.items()
                           if sg == (False, False))
        assert F.mapping[minus_plus] == minus_minus
        assert F.mapping[minus_minus] == minus_plus
        # every object over the identity class stays put
        unit_class = class_of(S4, S4.identity)
        for i, s in enumerate(simples):
            if s.class_index == unit_class:
                assert F.mapping[i] == i
        assert preserves_modular_data(F)

    def test_s4_bv_matches_pointwise_character_multiplication(self):
        # oracle: with v = id no transport is needed, so the image character
        # is literally chi times the commutator character of mu
        S4 = named_group("S4")
        mu = h2_classes(S4, 2)[1]
        F = from_bv(identity_morphism(S4), mu)
        simples = simple_objects(S4)
        classes = conjugacy_classes(S4)
        index_of = {(s.class_index, s.char_index): i
                    for i, s in enumerate(simples)}
        for i, s in enumerate(simples):
            g = classes[s.class_index].rep
            H, elems, table = centralizer_table(S4, g)
            ch = table[s.char_index]
            vals = []
            for cc in conjugacy_classes(H):
                x = elems[cc.rep]
                t = int(mu.values[x, g] - mu.values[g, x]) % 2
                val = ch.value_at_element(cc.rep)
                if t:
                    val = val * root_of_unity(2, 1)
                vals.append(val)
            j = find_character(H, vals)
            assert F.mapping[i] == index_of[(s.class_index, j)]

    @pytest.mark.parametrize("name,m", [
        ("Z/2^2", 2), ("Z/4", 4), ("D4", 2), ("Q8", 2),
    ])
    def test_mapping_depends_only_on_cohomology_class(self, name, m):
        G = named_group(name)
        v = identity_morphism(G)
        for mu in h2_classes(G, m):
            base = from_bv(v, mu)
            for phi in itertools.product(range(m), repeat=G.n - 1):
                full = [0] * G.n
                for val, g in zip(
                    phi, (g for g in range(G.n) if g != G.identity)
                ):
                    full[g] = val
                shifted = mu + coboundary(G, full, m)
                assert equal(from_bv(v, shifted), base)

    def test_homomorphism_law_on_klein_group(self):
        # F_{v,mu} after F_{w,nu} = F_{vw, nu + pullback of mu along w}
        V4 = named_group("Z/2^2")
        reps = list(h2_classes(V4, 2))
        auts = brute_force_automorphisms(V4)
        for v, w in itertools.product(auts, repeat=2):
            for mu, nu in itertools.product(reps, repeat=2):
                left = compose(from_bv(v, mu), from_bv(w, nu))
                vw = GroupMorphism(
                    V4, V4, tuple(v(w(g)) for g in range(V4.n))
                )
                pulled = mu.values[np.ix_(w.images, w.images)]
                combined = Cocycle2(V4, 2, (nu.values + pulled) % 2)
                assert equal(left, from_bv(vw, combined))

    def test_homomorphism_law_on_s4(self):
        S4 = named_group("S4")
        reps = list(h2_classes(S4, 2))
        auts = [inner_automorphism(S4, c) for c in (1, 5)]
        for v, w in itertools.product(auts, repeat=2):
            for mu, nu in itertools.product(reps, repeat=2):
                left = compose(from_bv(v, mu), from_bv(w, nu))
                vw = GroupMorphism(
                    S4, S4, tuple(v(w(g)) for g in range(S4.n))
                )
                pulled = mu.values[np.ix_(w.images, w.images)]
                combined = Cocycle2(S4, 2, (nu.values + pulled) % 2)
                assert equal(left, from_bv(vw, combined))

    def test_cocycle_group_mismatch(self):
        S3, V4 = named_group("S3"), named_group("Z/2^2")
        mu = h2_classes(V4, 2)[0]
        with pytest.raises(DomainMismatch):
            from_bv(identity_morphism(S3), mu)

    def test_twist_not_character_on_corrupted_table(self):
        # an invalid table smuggled past validation trips the twist check
        S3 = named_group("S3")
        rng = np.random.default_rng(7)
        fired = False
        for _ in range(20):
            bad = rng.integers(0, 3, size=(6, 6))
            bad[0, :] = 0
            bad[:, 0] = 0
            try:
                from_bv(identity_morphism(S3),
                        Cocycle2(S3, 3, bad, check=False))
            except TwistNotCharacter as e:
                assert "not multiplicative" in str(e)
                fired = True
                break
            except NotBraided:
                pass
        assert fired


# ---------------------------------------------------------------------------
# EV: dualization along a lazy nondegenerate cocycle
# ---------------------------------------------------------------------------

def klein_subgroup(G):
    return next(
        H for H in all_subgroups(G)
        if H.order == 4 and H.is_normal()
        and all(G.mul(e, e) == G.identity for e in H.elements)
    )


def nondegenerate_class(S):
    Sgrp, _ = S.as_group()
    return next(r for r in h2_classes(Sgrp, 2)
                if is_nondegenerate(antisymmetrize(r, S)))


class TestEV:
    def test_trivial_subgroup_gives_identity_partial(self):
        S3 = named_group("S3")
        triv = S3.subgroup([S3.identity])
        Tgrp, _ = triv.as_group()
        eta = Cocycle2(Tgrp, 1, np.zeros((1, 1), dtype=np.int64))
        part = from_ev_lazy(triv, eta)
        assert part.mapping == {0: 0, 1: 1, 2: 2}
        assert not part.candidates
        assert part.provenance.kind == "ev"

    def test_s4_klein_nondegenerate_class_is_not_lazy(self):
        S4 = named_group("S4")
        K = klein_subgroup(S4)
        with pytest.raises(NotLazy):
            from_ev_lazy(K, nondegenerate_class(K))

    def test_degenerate_pairing_refused(self):
        Q8 = named_group("Q8")
        Z = next(H for H in all_subgroups(Q8)
                 if H.order == 2 and H.is_normal())
        Zgrp, _ = Z.as_group()
        eta = h2_classes(Zgrp, 2)[0]
        with pytest.raises(Degenerate):
            from_ev_lazy(Z, eta)

    def test_non_normal_subgroup_refused(self):
        S4 = named_group("S4")
        t = next(g for g in range(S4.n) if S4.order_of(g) == 2
                 and class_of(S4, g) != class_of(S4, S4.identity))
        H = S4.subgroup(sorted({S4.identity, t}))
        assert not H.is_normal()
        Hgrp, _ = H.as_group()
        eta = Cocycle2(Hgrp, 2, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(NotAbelianNormal):
            from_ev_lazy(H, eta)

    def test_klein_group_full_dualization(self):
        V4 = named_group("Z/2^2")
        whole = V4.subgroup(list(range(4)))
        part = from_ev_lazy(whole, nondegenerate_class(whole))
        # the trivial character is pinned; the others keep exactly the two
        # targets allowed by twist and dimension over the dual classes
        assert part.mapping == {0: 0}
        assert set(part.candidates) == {1, 2, 3}
        assert all(len(pool) == 2 for pool in part.candidates.values())
        exts = complete_extensions(part)
        assert len(exts) == 4
        for F in exts:
            assert preserves_modular_data(F)
            assert F.provenance.kind == "searched"

    def test_klein_group_with_automorphism_on_top(self):
        V4 = named_group("Z/2^2")
        whole = V4.subgroup(list(range(4)))
        eta = nondegenerate_class(whole)
        base = from_ev_lazy(whole, eta)
        v = next(a for a in brute_force_automorphisms(V4)
                 if not all(a(g) == g for g in range(4)))
        twisted = from_ev_lazy(whole, eta, v=v)
        Fv = from_hopf_auto(v)
        assert twisted.mapping == {
            a: Fv.mapping[t] for a, t in base.mapping.items()
        }
        assert twisted.candidates == {
            a: tuple(sorted(Fv.mapping[t] for t in pool))
            for a, pool in base.candidates.items()
        }

    @pytest.mark.parametrize("images", [(0, 3, 2, 1), (0, 1, 2, 3)])
    def test_automorphism_of_another_group_refused(self, images):
        # the identity of another group too: it would be recorded as the
        # construction's v, which bimodule_data then reads on the wrong group
        V4 = named_group("Z/2^2")
        whole = V4.subgroup(list(range(4)))
        Z4 = cyclic_group(4)
        with pytest.raises(NotAnAutomorphism,
                           match=r"is not an automorphism of Z/2\^2$"):
            from_ev_lazy(whole, nondegenerate_class(whole),
                         GroupMorphism(Z4, Z4, images))

    def test_proper_subgroup_in_elementary_abelian_cube(self):
        G = named_group("Z/2^3")
        S = G.subgroup([0, 1, 2, 3])
        part = from_ev_lazy(S, nondegenerate_class(S))
        # characters trivial on S stay put; all others leave the unit class
        table = character_table(G)
        _, elems = S.as_group()
        for k, ch in enumerate(table):
            trivial_on_S = all(
                ch.value_at_element(e) == one() for e in elems
            )
            if trivial_on_S:
                assert part.mapping.get(k) == k
            else:
                assert k not in part.mapping or part.mapping[k] != k


# ---------------------------------------------------------------------------
# R': partial dualization along a semidirect factor
# ---------------------------------------------------------------------------

class TestRPrime:
    def test_s3_reflection_dualization_partial(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        part = partial_dualization_rprime(N)
        # trivial -> trivial, sign -> sign, reflection -> three-cycle class
        # with the trivial centralizer character
        assert part.mapping == {0: 0, 1: 1, 2: 5}
        assert not part.candidates
        simples = simple_objects(S3)
        assert simples[2].qdim == 2 and simples[5].qdim == 2
        assert part.provenance.kind == "rprime"

    def test_s3_unique_completion_of_order_two(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        exts = complete_extensions(partial_dualization_rprime(N))
        # the twist matrix pins both three-cycle characters, so exactly one
        # of the two conjugate label choices survives
        assert len(exts) == 1
        (F,) = exts
        assert F.mapping == (0, 1, 5, 3, 4, 2, 6, 7)
        assert compose(F, F).is_identity()
        assert not F.is_identity()

    def test_trivial_normal_subgroup_gives_identity(self):
        S3 = named_group("S3")
        part = partial_dualization_rprime(S3.subgroup([S3.identity]))
        assert part.mapping == {0: 0, 1: 1, 2: 2}
        assert not part.candidates

    def test_z3_full_dualization_transposes_labels(self):
        Z3 = named_group("Z/3")
        whole = Z3.subgroup([0, 1, 2])
        part = partial_dualization_rprime(whole)
        assert part.mapping == {0: 0, 1: 3, 2: 6}
        exts = complete_extensions(part)
        assert len(exts) == 1
        # (class a, character b) -> (class b, character a): index transpose
        assert exts[0].mapping == (0, 3, 6, 1, 4, 7, 2, 5, 8)

    def test_klein_full_dualization_swaps_grading_and_labels(self):
        V4 = named_group("Z/2^2")
        whole = V4.subgroup(list(range(4)))
        Q = V4.subgroup([V4.identity])
        pairing = self_dual_pairing(whole, Q)
        part = partial_dualization_rprime(whole, Q, pairing)
        exts = complete_extensions(part)
        table = character_table(V4)
        expected = [0] * 16
        for a in range(4):
            for k in range(4):
                s = dual_element(pairing, table[k])
                vals = [root_of_unity(2, int(pairing.values[a, b]))
                        for b in range(4)]
                expected[4 * a + k] = 4 * s + find_character(V4, vals)
        assert tuple(expected) in [F.mapping for F in exts]

    def test_no_complement(self):
        Z4 = named_group("Z/4")
        N = Z4.subgroup([0, 2])
        with pytest.raises(NoComplement):
            partial_dualization_rprime(N)

    def test_wrong_complement_rejected(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        with pytest.raises(NoComplement):
            partial_dualization_rprime(N, Q=N)

    def test_nonabelian_normal_refused(self):
        S4 = named_group("S4")
        A4 = next(H for H in all_subgroups(S4)
                  if H.order == 12 and H.is_normal())
        with pytest.raises(NotAbelianNormal):
            partial_dualization_rprime(A4)

    def test_non_equivariant_pairing_rejected(self):
        # every nondegenerate pairing on Z/5 is <a, b> = c a b, and none of
        # them survives the squaring action, so an explicit pairing must be
        # rejected even though it is bimultiplicative and nondegenerate
        Z5, Z4 = cyclic_group(5), cyclic_group(4)
        action = [tuple((pow(2, q, 5) * x) % 5 for x in range(5))
                  for q in range(4)]
        F20 = semidirect_product(Z5, Z4, action)
        N = F20.subgroup([n * 4 for n in range(5)])
        Q = F20.subgroup(list(range(4)))
        values = [[(a * b) % 5 for b in range(5)] for a in range(5)]
        explicit = Pairing(N, 5, values)
        assert is_nondegenerate(explicit)
        with pytest.raises(NotSelfDual):
            partial_dualization_rprime(N, Q=Q, pairing=explicit)


# ---------------------------------------------------------------------------
# self-dual pairings
# ---------------------------------------------------------------------------

class TestSelfDualPairing:
    def test_z3_with_inversion_action(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        Q = next(H for H in all_subgroups(S3) if H.order == 2)
        p = self_dual_pairing(N, Q)
        assert p is not None and is_nondegenerate(p)
        # <a, b> = zeta_3^(c a b) for some unit c: check bilinearity shape
        assert p.values[0].tolist() == [0, 0, 0]
        c = int(p.values[1, 1])
        assert c in (1, 2)
        for a, b in itertools.product(range(3), repeat=2):
            assert p.values[a, b] == (c * a * b) % 3

    def test_z2_forced_unique(self):
        Z2 = named_group("Z/2")
        whole = Z2.subgroup([0, 1])
        Q = Z2.subgroup([0])
        p = self_dual_pairing(whole, Q)
        assert p.values.tolist() == [[0, 0], [0, 1]]

    def test_multiplier_two_action_admits_no_self_duality(self):
        # Z/5 : Z/4 with the squaring action: equivariance would need the
        # multiplier c to satisfy c^2 = 1 mod 5, but 2^2 = 4
        Z5, Z4 = cyclic_group(5), cyclic_group(4)
        action = [tuple((pow(2, q, 5) * x) % 5 for x in range(5))
                  for q in range(4)]
        F20 = semidirect_product(Z5, Z4, action)
        N = F20.subgroup([n * 4 for n in range(5)])
        Q = F20.subgroup(list(range(4)))
        assert self_dual_pairing(N, Q) is None
        with pytest.raises(NotSelfDual):
            partial_dualization_rprime(N)

    def test_inversion_action_is_self_dual(self):
        # control for the previous test: c = -1 squares to 1
        Z5, Z2 = cyclic_group(5), cyclic_group(2)
        action = [tuple(x % 5 for x in range(5)),
                  tuple((-x) % 5 for x in range(5))]
        D5 = semidirect_product(Z5, Z2, action)
        N = D5.subgroup([n * 2 for n in range(5)])
        Q = D5.subgroup([0, 1])
        p = self_dual_pairing(N, Q)
        assert p is not None and is_nondegenerate(p)

    def test_explicit_action_argument(self):
        Z3 = named_group("Z/3")
        whole = Z3.subgroup([0, 1, 2])
        p = self_dual_pairing(whole, None, action=[(0, 1, 2), (0, 2, 1)])
        assert p is not None

    def test_q_must_normalize_n(self):
        S3 = named_group("S3")
        N = S3.subgroup([0, 1])                 # abelian, not normal
        with pytest.raises(NotSelfDual, match="does not normalize"):
            self_dual_pairing(N, S3.subgroup([0, 3, 4]))

    def test_nonabelian_refused(self):
        S3 = named_group("S3")
        whole = S3.subgroup(list(range(6)))
        with pytest.raises(NotAbelianNormal):
            self_dual_pairing(whole, S3.subgroup([S3.identity]))


# ---------------------------------------------------------------------------
# completion search
# ---------------------------------------------------------------------------

class TestCompleteExtensions:
    def test_z2_identity_partial_extends_to_identity(self):
        Z2 = named_group("Z/2")
        part = PartialBrEq(Z2, {0: 0, 1: 1}, {}, Provenance("searched"))
        exts = complete_extensions(part)
        assert (0, 1, 2, 3) in [F.mapping for F in exts]

    def test_s4_seeded_swap_completes(self):
        # the dualization document: the minus-minus transposition object and
        # the order-two four-cycle character object are interchangeable
        S4 = named_group("S4")
        part = PartialBrEq(S4, {8: 18, 18: 8}, {}, Provenance("searched"))
        exts = complete_extensions(part)
        assert len(exts) >= 1
        F = exts[0]
        assert F.mapping[8] == 18 and F.mapping[18] == 8
        assert compose(F, F).is_identity()
        assert preserves_modular_data(F)
        # regression freeze of the (unique) search output
        assert [E.mapping for E in exts] == [
            (0, 1, 2, 15, 13, 17, 6, 7, 18, 9, 10, 11, 12, 4, 14, 3, 16,
             5, 8, 19, 20)
        ]

    def test_all_braided_symmetries_of_s3(self):
        # an unconstrained search finds the full symmetry group of the
        # modular data; for S3 it is exactly {identity, dualization}
        S3 = named_group("S3")
        part = PartialBrEq(S3, {}, {}, Provenance("searched"))
        exts = complete_extensions(part)
        assert [F.mapping for F in exts] == [
            (0, 1, 2, 3, 4, 5, 6, 7),
            (0, 1, 5, 3, 4, 2, 6, 7),
        ]

    def test_inconsistent_partial_raises(self):
        S3 = named_group("S3")
        part = PartialBrEq(S3, {1: 2}, {}, Provenance("searched"))
        with pytest.raises(NoExtension):
            complete_extensions(part)

    def test_determined_pair_breaking_s_matrix_raises(self):
        S3 = named_group("S3")
        # 6 and 7 have equal fingerprints swapped, but T pins them
        part = PartialBrEq(S3, {6: 7, 7: 6}, {}, Provenance("searched"))
        with pytest.raises(NoExtension):
            complete_extensions(part)

    @pytest.mark.parametrize("reverse, witness", [(False, "(2, 4)"),
                                                  (True, "(7, 6)")])
    def test_determined_images_report_the_first_broken_pair(self, reverse,
                                                            witness):
        # pairs (a, b) are scanned in the partial's insertion order, a first
        D4 = named_group("D4")
        items = [(0, 0), (1, 1), (2, 19), (3, 18), (4, 4), (5, 5), (6, 6),
                 (7, 8)]
        part = PartialBrEq(D4, dict(items[::-1] if reverse else items), {},
                           Provenance("searched"))
        with pytest.raises(NoExtension,
                           match=re.escape(f"determined images at {witness}")):
            complete_extensions(part)

    def test_budget_exceeded(self):
        V4 = named_group("Z/2^2")
        part = PartialBrEq(V4, {}, {}, Provenance("searched"))
        with pytest.raises(BudgetExceeded, match="EXTENSION_NODE_BUDGET"):
            complete_extensions(part, cap=3)

    @pytest.mark.parametrize("name, nodes", [
        ("Z/2^2", 3672), ("D4", 16958), ("S3xZ/2", 811), ("Z/2^3 R'", 197800),
    ])
    def test_node_budget_pinned(self, name, nodes):
        # the exact node count of each search: cap = nodes completes and
        # cap = nodes - 1 stops, with the cap in force in the message
        if name == "Z/2^3 R'":
            G = named_group("Z/2^3")
            part = partial_dualization_rprime(
                next(N for N in abelian_normal_subgroups(G) if N.order == 4))
        else:
            G = named_group(name)
            u = _unit_index(G)
            part = PartialBrEq(G, {u: u}, {}, Provenance("searched"))
        assert complete_extensions(part, cap=nodes)
        with pytest.raises(BudgetExceeded, match=f"cap = {nodes - 1} nodes"):
            complete_extensions(part, cap=nodes - 1)

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S3xZ/2", "Z/2^3"])
    def test_refinement_matches_the_exact_entry_loop(self, name):
        # reference: the arc-consistency pass on the Cyclotomic entries
        def refine(S, cand):
            changed = True
            while changed:
                changed = False
                for a, pool_a in cand.items():
                    keep = [t for t in pool_a if all(
                        any(u != t and S[t, u] == S[a, b] for u in pool_b)
                        for b, pool_b in cand.items() if b != a)]
                    if not keep:
                        return None
                    if len(keep) != len(pool_a):
                        cand[a] = keep
                        changed = True
            return cand

        md = modular_data(named_group(name))
        fps = _fingerprints(md)
        rng = np.random.default_rng(7)
        for _ in range(30):
            sources = rng.choice(md.size, size=min(6, md.size), replace=False)
            cand = {}
            for a in sources.tolist():
                same = np.flatnonzero(fps == fps[a])
                cand[a] = sorted(rng.choice(
                    same, size=rng.integers(1, len(same) + 1),
                    replace=False).tolist())
            expected = refine(md.S, {a: list(p) for a, p in cand.items()})
            if expected is None:
                with pytest.raises(NoExtension):
                    _refine_candidates(md, cand)
            else:
                _refine_candidates(md, cand)
                assert cand == expected

    @pytest.mark.parametrize("name", ["S3", "Z/2^2", "D4", "Q8", "A4", "S4",
                                      "S3xZ/2", "Z/2^3"])
    def test_fingerprints_partition_like_key_tuples(self, name):
        md = modular_data(named_group(name))
        S, T, ns = md.S, md.T, md.size
        reference = [
            (S[0, i].key(), T[i].key(),
             tuple(sorted(S[i, j].key() for j in range(ns))))
            for i in range(ns)
        ]
        fps = _fingerprints(md)
        for i in range(ns):
            for j in range(ns):
                assert (fps[i] == fps[j]) == (reference[i] == reference[j])

    def test_partial_validation(self):
        S3 = named_group("S3")
        with pytest.raises(NoExtension):
            PartialBrEq(S3, {1: 3, 2: 3}, {}, Provenance("searched"))
        with pytest.raises(NoExtension):
            PartialBrEq(S3, {}, {1: ()}, Provenance("searched"))
        with pytest.raises(NoExtension):
            PartialBrEq(S3, {1: 1}, {1: (1, 2)}, Provenance("searched"))
        # a repeated candidate is one candidate: each completion comes once
        part = PartialBrEq(S3, {0: 0}, {6: (6, 6, 7)}, Provenance("searched"))
        assert part.candidates == {6: (6, 7)}
        got = [F.mapping for F in complete_extensions(part)]
        assert got == [(0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 5, 3, 4, 2, 6, 7)]
        assert assert_matches_recursion(part)[0] == got

    @pytest.mark.parametrize("mapping, candidates, bad", [
        ({0: 0}, {6: (-1, 6)}, -1),         # not read as simple 7
        ({0: 0}, {9: (6, 7)}, 9),           # not ignored
        ({0: 42}, {}, 42),
        ({42: 0}, {}, 42),
        ({0: 0, 3: -1}, {}, -1),            # not a changed invariant
        ({0: 0}, {6: (6, 42)}, 42),
    ])
    def test_simples_out_of_range(self, mapping, candidates, bad):
        part = PartialBrEq(named_group("S3"), mapping, candidates,
                           Provenance("searched"))
        with pytest.raises(ValueError, match=re.escape(
                f"simple {bad} is not in the center of S3 (8 simples)")):
            complete_extensions(part)


# ---------------------------------------------------------------------------
# the level-by-level search against a recursive reference
# ---------------------------------------------------------------------------

def recursive_search(partial, cap=math.inf):
    """Depth-first backtracking over the undetermined sources, frozen as the
    reference for ``complete_extensions``: the same pre-checks, visiting
    order, pruning and node count, one recursive call per node.  Returns
    (sorted completions, nodes); no completion is an empty list."""
    G = partial.group
    md = modular_data(G)
    ids = md.S_ids
    ns = md.size
    fps = _fingerprints(md)

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

    order = srcs + sorted(pools, key=lambda s: (len(pools[s]), s))
    want = [ids[s, order[:k]] for k, s in enumerate(order)]
    image = np.zeros(ns, dtype=np.int64)
    image[:len(tgts)] = tgts
    used = np.zeros(ns, dtype=bool)
    used[tgts] = True
    results = []
    nodes = 0

    def dfs(k):
        nonlocal nodes
        if k == ns:
            full = np.empty(ns, dtype=np.int64)
            full[order] = image
            results.append(tuple(full.tolist()))
            return
        pool = pools[order[k]]
        pool = pool[~used[pool]]
        nodes += len(pool)
        if nodes > cap:
            raise BudgetExceeded(
                f"completion search exceeded cap = {cap} nodes"
                f" (EXTENSION_NODE_BUDGET = {EXTENSION_NODE_BUDGET})"
            )
        ok = (ids[pool[:, None], image[:k]] == want[k]).all(axis=1)
        for t in pool[ok].tolist():
            image[k] = t
            used[t] = True
            dfs(k + 1)
            used[t] = False

    dfs(len(tgts))
    return sorted(results), nodes


def assert_matches_recursion(part):
    """The same sorted completions, the same node count n (cap = n
    completes, cap = n - 1 stops with the reference's message) and the same
    NoExtension when nothing completes."""
    expected, nodes = recursive_search(part)
    assert expected == sorted(set(expected))
    if expected:
        got = complete_extensions(part, cap=nodes)
        assert [F.mapping for F in got] == expected
    else:
        with pytest.raises(NoExtension,
                           match="partial map admits no braided completion"):
            complete_extensions(part, cap=nodes)
    if not nodes:           # no node is counted, so no cap can stop it
        assert [F.mapping for F in complete_extensions(part, cap=-1)] \
            == recursive_search(part, cap=-1)[0] == expected
        return expected, nodes
    with pytest.raises(BudgetExceeded) as caught:
        complete_extensions(part, cap=nodes - 1)
    with pytest.raises(BudgetExceeded) as frozen:
        recursive_search(part, cap=nodes - 1)
    assert str(caught.value) == str(frozen.value)
    return expected, nodes


# the groups of the ``symmetries`` benchmark workload, and those it searches
# from the unit object alone
SYMMETRY_GROUPS = ("S3", "Z/3", "Z/2^2", "A4", "D4", "Q8", "S4", "S3xZ/2",
                   "Z/2^3")
UNIT_SEEDED = ("S3", "Z/3", "Z/2^2", "D4", "Q8", "A4", "S3xZ/2", "S4")


def rprime_partials(G):
    """The R' partial along each nontrivial abelian normal subgroup that has
    one; in Z/2^3 one subgroup per order (Aut(Z/2^3) = GL_3(2) is transitive
    on the subgroups of each order)."""
    out, orders = [], set()
    for N in abelian_normal_subgroups(G):
        if N.order == 1 or (G.name == "Z/2^3" and N.order in orders):
            continue
        orders.add(N.order)
        try:
            out.append(partial_dualization_rprime(N))
        except (NoComplement, NotSelfDual):
            pass
    return out


class TestLevelSearchMatchesRecursion:
    @pytest.mark.parametrize("name, nodes", [
        ("S3", 9), ("Z/3", 54), ("Z/2^2", 3672), ("D4", 16958), ("Q8", 2412),
        ("A4", 90), ("S3xZ/2", 811), ("S4", 185),
    ])
    def test_unit_seeded_search(self, name, nodes):
        G = named_group(name)
        u = _unit_index(G)
        part = PartialBrEq(G, {u: u}, {}, Provenance("searched"))
        assert assert_matches_recursion(part)[1] == nodes

    @pytest.mark.parametrize("name, nodes", [
        ("S3", [5]), ("Z/3", [9]), ("Z/2^2", [160, 160, 160, 166]),
        ("A4", [44]), ("D4", [260, 260, 248]), ("Q8", []), ("S4", [133]),
        ("S3xZ/2", [204, 102, 204]),
        # subgroups of order 2, 4 and 8; order 4 is the largest pinned search
        ("Z/2^3", [124864, 197800, 115860]),
    ])
    def test_rprime_searches(self, name, nodes):
        partials = rprime_partials(named_group(name))
        assert [assert_matches_recursion(p)[1] for p in partials] == nodes

    @pytest.mark.parametrize("name, seed, nodes", [("Z/2^2", 15, 357),
                                                   ("D4", 21, 2314)])
    def test_seeded_away_from_the_unit(self, name, seed, nodes):
        # the first source visited is not the unit, so the S-consistency
        # against it prunes (against the unit the fingerprints already do)
        part = PartialBrEq(named_group(name), {seed: seed}, {},
                           Provenance("searched"))
        assert assert_matches_recursion(part)[1] == nodes

    def test_fully_determined_partial(self):
        S3 = named_group("S3")
        part = PartialBrEq(S3, {i: i for i in range(8)}, {},
                           Provenance("searched"))
        assert assert_matches_recursion(part) == ([tuple(range(8))], 0)

    def test_partial_dying_at_its_last_level(self):
        # one frame reaches the last level (after 10 nodes) and is offered
        # nothing there: the one target it has not used lies outside the
        # last source's pool
        Z3 = named_group("Z/3")
        part = PartialBrEq(
            Z3, {0: 0},
            {1: (2,), 2: (1, 2, 3), 3: (2, 6), 6: (1, 2, 6), 7: (5, 7)},
            Provenance("searched"))
        assert assert_matches_recursion(part) == ([], 10)

    @pytest.mark.parametrize("mapping, nodes", [({}, 1), ({0: 0}, 0)])
    def test_trivial_group(self, mapping, nodes):
        part = PartialBrEq(named_group("Z/1"), mapping, {},
                           Provenance("searched"))
        assert assert_matches_recursion(part) == ([(0,)], nodes)

    def test_frame_stack_stays_small(self):
        # the largest level of the order-4 Z/2^3 R' search holds 2048 frames
        # of 64 simples; as uint8 rows, with one level's temporaries, the
        # traced peak stays below 6 bytes per entry (int64 frames take over 8)
        part = rprime_partials(named_group("Z/2^3"))[1]
        complete_extensions(part)           # builds the cached data
        tracemalloc.start()
        try:
            complete_extensions(part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2048 * 64


# ---------------------------------------------------------------------------
# composition, inversion, equality
# ---------------------------------------------------------------------------

class TestGroupOperations:
    def test_compose_then_inverse_is_identity(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        (F,) = complete_extensions(partial_dualization_rprime(N))
        assert compose(F, inverse(F)).is_identity()
        assert compose(inverse(F), F).is_identity()

    def test_compose_of_v_elements_is_v_of_composition(self):
        S4 = named_group("S4")
        for c1, c2 in [(1, 2), (3, 7), (5, 11)]:
            v, w = inner_automorphism(S4, c1), inner_automorphism(S4, c2)
            vw = GroupMorphism(S4, S4, tuple(v(w(g)) for g in range(S4.n)))
            assert equal(
                compose(from_hopf_auto(v), from_hopf_auto(w)),
                from_hopf_auto(vw),
            )

    def test_composite_provenance(self):
        Z3 = named_group("Z/3")
        F = identity_autoeq(Z3)
        C = compose(F, F)
        assert C.provenance.kind == "composite"
        assert len(C.provenance.data) == 2

    def test_domain_mismatch(self):
        F = identity_autoeq(named_group("S3"))
        H = identity_autoeq(named_group("Z/5"))
        with pytest.raises(DomainMismatch):
            compose(F, H)
        with pytest.raises(DomainMismatch):
            equal(F, H)

    def test_equal_ignores_provenance(self):
        S3 = named_group("S3")
        ident = identity_autoeq(S3)
        rebuilt = BraidedAutoeq(S3, ident.mapping, Provenance("searched"))
        assert equal(ident, rebuilt)


# ---------------------------------------------------------------------------
# generated groups
# ---------------------------------------------------------------------------

def s3_all_generators():
    """Every V, BV, EV, R' element constructible over S3."""
    S3 = named_group("S3")
    gens = []
    for c in range(S3.n):
        gens.append(from_hopf_auto(inner_automorphism(S3, c)))
    for mu in h2_classes(S3, 6):
        gens.append(from_bv(identity_morphism(S3), mu))
    for H in all_subgroups(S3):
        if not (H.is_abelian() and H.is_normal()):
            continue
        Hgrp, _ = H.as_group()
        for eta in h2_classes(Hgrp, Hgrp.exponent() if Hgrp.n > 1 else 1):
            try:
                gens.extend(complete_extensions(from_ev_lazy(H, eta)))
            except (NotLazy, Degenerate):
                pass
        try:
            gens.extend(
                complete_extensions(partial_dualization_rprime(H))
            )
        except (NoComplement, NotSelfDual):
            pass
    return gens


def z3_generators():
    """Inversion and the dualizations of Z/3: they generate a group of
    order 4."""
    Z3 = named_group("Z/3")
    inv = GroupMorphism(Z3, Z3, tuple((-g) % 3 for g in range(3)))
    whole = Z3.subgroup([0, 1, 2])
    return [from_hopf_auto(inv)] + complete_extensions(
        partial_dualization_rprime(whole))


def z2sq_generators():
    """Two automorphisms, the nontrivial cocycle twist and one partial
    dualization of Z/2^2: they generate a group of order 72."""
    G = named_group("Z/2^2")
    gens = [from_hopf_auto(GroupMorphism(G, G, imgs))
            for imgs in ((0, 2, 1, 3), (0, 2, 3, 1))]
    gens.append(from_bv(identity_morphism(G), h2_classes(G, 2)[1]))
    gens.append(complete_extensions(
        partial_dualization_rprime(G.subgroup([0, 1])))[0])
    return gens


class TestGenerateGroup:
    def test_empty_generators_give_trivial_group(self):
        gg = generate_group([])
        assert gg.order == 1 and gg.elements == () and gg.words == ()

    def test_s3_brauer_picard_has_order_two(self):
        gg = generate_group(s3_all_generators())
        assert gg.order == 2
        assert gg.words[0] == ()
        assert gg.elements[0].is_identity()
        assert compose(gg.elements[1], gg.elements[1]).is_identity()

    def test_z3_v_and_dualization_generate_order_four(self):
        Z3 = named_group("Z/3")
        inv = GroupMorphism(Z3, Z3, tuple((-g) % 3 for g in range(3)))
        whole = Z3.subgroup([0, 1, 2])
        gens = [from_hopf_auto(inv)]
        gens += complete_extensions(partial_dualization_rprime(whole))
        gg = generate_group(gens)
        assert gg.order == 4

    def test_deterministic_output(self):
        Z3 = named_group("Z/3")
        inv = GroupMorphism(Z3, Z3, tuple((-g) % 3 for g in range(3)))
        whole = Z3.subgroup([0, 1, 2])
        gens = [from_hopf_auto(inv)]
        gens += complete_extensions(partial_dualization_rprime(whole))
        a = generate_group(gens)
        b = generate_group(gens)
        assert a.order == b.order
        assert a.words == b.words
        assert [F.mapping for F in a.elements] == [
            F.mapping for F in b.elements
        ]

    def test_words_reproduce_elements(self):
        Z3 = named_group("Z/3")
        inv = GroupMorphism(Z3, Z3, tuple((-g) % 3 for g in range(3)))
        whole = Z3.subgroup([0, 1, 2])
        gens = [from_hopf_auto(inv)]
        gens += complete_extensions(partial_dualization_rprime(whole))
        gg = generate_group(gens)
        for F, word in zip(gg.elements, gg.words):
            acc = identity_autoeq(Z3)
            for gi in reversed(word):
                acc = compose(gens[gi], acc)
            assert equal(acc, F)

    def test_cap_exceeded(self):
        Z3 = named_group("Z/3")
        inv = GroupMorphism(Z3, Z3, tuple((-g) % 3 for g in range(3)))
        whole = Z3.subgroup([0, 1, 2])
        gens = [from_hopf_auto(inv)]
        gens += complete_extensions(partial_dualization_rprime(whole))
        with pytest.raises(CapExceeded):
            generate_group(gens, cap=2)

    def test_cap_boundary(self):
        gens = z3_generators()
        assert generate_group(gens, cap=4).order == 4
        with pytest.raises(CapExceeded):
            generate_group(gens, cap=3)

    def test_each_element_verified_once(self, monkeypatch):
        import brpic.autoeq as autoeq

        gens = z2sq_generators()
        calls = []
        check = autoeq._certify_preservation

        def counted(md, mapping):
            calls.append(mapping)
            return check(md, mapping)

        monkeypatch.setattr(autoeq, "_certify_preservation", counted)
        gg = generate_group(gens)
        assert gg.order == 72
        assert len(calls) == gg.order
        assert sorted(calls) == sorted(F.mapping for F in gg.elements)

    def test_provenance_is_the_word(self):
        gens = z2sq_generators()
        gg = generate_group(gens)
        G = gens[0].group
        assert gg.elements[0].provenance == identity_autoeq(G).provenance
        for F, word in zip(gg.elements[1:], gg.words[1:]):
            assert F.provenance.kind == "composite"
            assert F.provenance.data == tuple(
                gens[i].provenance for i in word
            )

    def test_mismatched_generators(self):
        with pytest.raises(DomainMismatch):
            generate_group([
                identity_autoeq(named_group("S3")),
                identity_autoeq(named_group("Z/3")),
            ])


# ---------------------------------------------------------------------------
# preservation checks
# ---------------------------------------------------------------------------

class TestPreservation:
    def test_identity_preserves(self):
        for name in ("Z/2", "S3"):
            rep = preserves_modular_data(identity_autoeq(named_group(name)))
            assert rep and rep.witness is None

    @pytest.mark.parametrize(
        "name", ["Z/2", "Z/4", "Z/2^2", "S3", "S4", "D4", "Q8"]
    )
    def test_constructed_families_preserve(self, name):
        G = named_group(name)
        if G.n <= 4:
            auts = brute_force_automorphisms(G)
        else:
            auts = [inner_automorphism(G, c) for c in range(min(G.n, 6))]
        reps = list(h2_classes(G, 2))
        for v in auts:
            assert preserves_modular_data(from_hopf_auto(v))
            for mu in reps:
                assert preserves_modular_data(from_bv(v, mu))

    def test_non_unit_fixing_transposition_fails_with_witness(self):
        S3 = named_group("S3")
        md = modular_data(S3)
        mapping = list(range(8))
        mapping[0], mapping[3] = 3, 0
        rep = preserves_modular_data(mapping, md)
        assert not rep and rep.witness

    def test_twist_breaking_swap_reports_t_mismatch(self):
        S3 = named_group("S3")
        md = modular_data(S3)
        mapping = list(range(8))
        mapping[3], mapping[4] = 4, 3
        rep = preserves_modular_data(mapping, md)
        assert not rep and "T mismatch" in rep.witness

    def test_raw_mapping_needs_modular_data(self):
        with pytest.raises(ValueError):
            preserves_modular_data([0, 1])

    @pytest.mark.parametrize("mapping", [[0] * 8, list(range(7)),
                                         list(range(9)), [0, 2, 1, 3, 4, 5, 6, 8]])
    def test_raw_mapping_that_is_no_bijection_is_reported(self, mapping):
        rep = preserves_modular_data(mapping, modular_data(named_group("S3")))
        assert not rep and rep.witness == "mapping is not a bijection"

    def test_modular_data_of_another_group_is_refused(self):
        # D4 and Q8 both have 22 simples, so a D4 mapping fits Q8's data
        D4, Q8 = named_group("D4"), named_group("Q8")
        F = identity_autoeq(D4)
        with pytest.raises(DomainMismatch):
            preserves_modular_data(F, modular_data(Q8))
        # the same group under another object is the same domain
        assert preserves_modular_data(F, modular_data(named_group("D4")))
        # a raw mapping is checked against whatever data it is given
        assert preserves_modular_data(F.mapping, modular_data(Q8))

    def test_equality_and_hash_follow_group_and_mapping(self):
        Z3 = named_group("Z/3")
        flip = from_hopf_auto(GroupMorphism(Z3, Z3, (0, 2, 1)))
        ident = identity_autoeq(Z3)
        again = BraidedAutoeq(named_group("Z/3"), flip.mapping)
        assert flip.mapping != ident.mapping
        assert flip == again and hash(flip) == hash(again)
        assert flip != ident and len({flip, again, ident}) == 2
        assert flip.__eq__(flip.mapping) is NotImplemented
        # equal mappings over different groups are different elements
        D4, Q8 = identity_autoeq(named_group("D4")), identity_autoeq(
            named_group("Q8"))
        assert D4.mapping == Q8.mapping and D4 != Q8

    def test_construction_refuses_bad_mappings(self):
        S3 = named_group("S3")
        with pytest.raises(NotBraided):
            BraidedAutoeq(S3, [0] * 8)
        bad = list(range(8))
        bad[0], bad[1] = 1, 0
        with pytest.raises(NotBraided):
            BraidedAutoeq(S3, bad)


# ---------------------------------------------------------------------------
# the certificate on ids against the entry-wise check
# ---------------------------------------------------------------------------

def class_shuffles(md, seed, count):
    """``count`` mappings that permute each ``_fingerprints`` class at
    random: they fix the unit and the quantum dimensions, and most of them
    break S."""
    rng = np.random.default_rng(seed)
    fps = _fingerprints(md)
    out = []
    for _ in range(count):
        mapping = np.arange(md.size)
        for c in np.unique(fps):
            cls = np.flatnonzero(fps == c)
            mapping[cls] = rng.permutation(cls)
        out.append(tuple(mapping.tolist()))
    return out


def qdim_swaps(G):
    """The identity with two simples of equal quantum dimension swapped,
    the unit left alone: mostly T or S mismatches."""
    qdims = [s.qdim for s in simple_objects(G)]
    out = []
    for i, j in itertools.combinations(range(1, len(qdims)), 2):
        if qdims[i] == qdims[j]:
            mapping = list(range(len(qdims)))
            mapping[i], mapping[j] = j, i
            out.append(tuple(mapping))
    return out


def assert_same_verdict(md, mapping):
    """The ids certificate and the entry-wise check agree on the answer
    and the witness; returns the report."""
    got = _certify_preservation(md, mapping)
    want = _check_preservation(md, mapping)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    return want


class TestCertificateMatchesEntryCheck:
    @pytest.mark.parametrize("name", SYMMETRY_GROUPS)
    def test_accepted_maps(self, name):
        G = named_group(name)
        md = modular_data(G)
        maps = [from_hopf_auto(v) for v in automorphism_search(G)]
        if name in UNIT_SEEDED:
            u = _unit_index(G)
            maps += complete_extensions(
                PartialBrEq(G, {u: u}, {}, Provenance("searched")))
        else:
            # Z/2^3 is past the unit-seeded budget: its R' completions
            maps += [F for p in rprime_partials(G)
                     for F in complete_extensions(p)]
        assert len(maps) > 1
        for F in maps:
            assert assert_same_verdict(md, F.mapping).ok

    @pytest.mark.parametrize("name", SYMMETRY_GROUPS)
    def test_rejected_maps_report_the_entry_witness(self, name):
        G = named_group(name)
        md = modular_data(G)
        rejected = 0
        for mapping in class_shuffles(md, 11, 20) + qdim_swaps(G):
            rep = assert_same_verdict(md, mapping)
            if rep.ok:
                assert BraidedAutoeq(G, mapping).mapping == mapping
                continue
            rejected += 1
            # every one of these fixes the unit and the quantum dimensions,
            # so construction reaches the S/T certificate
            with pytest.raises(NotBraided) as caught:
                BraidedAutoeq(G, mapping)
            assert str(caught.value) == preserves_modular_data(
                mapping, md).witness == rep.witness
        assert rejected

    @pytest.mark.parametrize("entry, witness", [
        ((6, 2), None), ((2, 6), "S mismatch at (2, 6) -> (5, 6)")])
    def test_only_the_upper_triangle_is_compared(self, entry, witness):
        # a hand-built S that is not symmetric, and the braided symmetry of
        # S3 that swaps simples 2 and 5: the broken entry counts only above
        # the diagonal, on both paths
        md = modular_data(named_group("S3"))
        bad = np.array(md.S, dtype=object, copy=True)
        bad[entry] = bad[entry] + one()
        broken = ModularData(md.group, bad, md.T)
        mapping = (0, 1, 5, 3, 4, 2, 6, 7)
        f = np.array(mapping)
        assert (broken.S_ids[np.ix_(f, f)] != broken.S_ids).any()
        assert assert_same_verdict(broken, mapping).witness == witness


# ---------------------------------------------------------------------------
# bimodule invariants
# ---------------------------------------------------------------------------

class TestBimoduleData:
    def test_v_identity_on_s3_gives_inverse_graph(self):
        S3 = named_group("S3")
        bd = bimodule_data(identity_autoeq(S3))
        assert bd.U.order == 6
        expected = sorted(g * 6 + S3.inv_of(g) for g in range(6))
        assert list(bd.U.elements) == expected
        assert bd.U1.order == 1 and bd.U2.order == 1
        assert bd.eta_class == "trivial"
        assert bd.conditions == (True, True, True)

    def test_v_nontrivial_graph(self):
        V4 = named_group("Z/2^2")
        v = next(a for a in brute_force_automorphisms(V4)
                 if not all(a(g) == g for g in range(4)))
        bd = bimodule_data(from_hopf_auto(v))
        expected = sorted(v(g) * 4 + V4.inv_of(g) for g in range(4))
        assert list(bd.U.elements) == expected

    def test_bv_reports_cocycle_pullback(self):
        S4 = named_group("S4")
        mu = h2_classes(S4, 2)[1]
        bd = bimodule_data(from_bv(identity_morphism(S4), mu))
        assert bd.eta_class == "pullback of mu"
        assert bd.conditions == (True, True, True)

    def test_ev_intersections_are_the_subgroup(self):
        G = named_group("Z/2^3")
        S = G.subgroup([0, 1, 2, 3])
        part = from_ev_lazy(S, nondegenerate_class(S))
        bd = bimodule_data(part)
        assert bd.U.order == G.n * S.order
        assert list(bd.U1.elements) == list(S.elements)
        assert list(bd.U2.elements) == list(S.elements)
        assert bd.eta_class == "pullback of eta"
        assert bd.conditions == (True, True, True)

    def test_rprime_on_s3(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        bd = bimodule_data(partial_dualization_rprime(N))
        assert bd.U.order == 18
        assert list(bd.U1.elements) == list(N.elements)
        assert list(bd.U2.elements) == list(N.elements)
        assert bd.eta_class == "not-computed"
        assert bd.conditions == (True, True, None)

    def test_searched_and_composite_unsupported(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        (F,) = complete_extensions(partial_dualization_rprime(N))
        with pytest.raises(UnsupportedProvenance):
            bimodule_data(F)
        with pytest.raises(UnsupportedProvenance):
            bimodule_data(compose(identity_autoeq(S3), identity_autoeq(S3)))

    def test_nonabelian_intersection_fails_condition_two(self):
        S4 = named_group("S4")
        A4 = next(H for H in all_subgroups(S4)
                  if H.order == 12 and H.is_normal())
        Q = S4.subgroup(sorted({S4.identity, next(
            g for g in range(S4.n)
            if S4.order_of(g) == 2 and g not in set(A4.elements)
        )}))
        fake = PartialBrEq(
            S4, {}, {}, Provenance("rprime", (A4, Q, None))
        )
        with pytest.raises(ConditionFailed, match="condition 2"):
            bimodule_data(fake)

    def test_ev_with_v_moving_the_subgroup_is_unsupported(self):
        G = named_group("Z/2^3")
        S = G.subgroup([0, 1, 2, 3])
        v = GroupMorphism(G, G, (0, 1, 4, 5, 2, 3, 6, 7))
        part = from_ev_lazy(S, nondegenerate_class(S), v)
        with pytest.raises(UnsupportedProvenance, match="v\\(S\\) = S"):
            bimodule_data(part)

    def test_non_normal_subgroup_raises_not_abelian_normal(self):
        # the order-2 subgroup {e, (1 2)} of S3: U = {(a, b) : a b in S} is
        # not closed in S3 x S3^op
        S3 = named_group("S3")
        S = S3.subgroup([0, 1])
        assert not S.is_normal()
        fake = PartialBrEq(S3, {}, {}, Provenance("rprime", (S, None, None)))
        with pytest.raises(NotAbelianNormal,
                           match=re.escape("elements (0, 1) is not normal")):
            bimodule_data(fake)

    @pytest.mark.parametrize("name", ["S3", "D4", "Z/2^3", "A4"])
    def test_u_is_the_membership_formula(self, name):
        # U = {(a, b) : a v(b) in S}, from sets and G.mul; and U is closed
        # under the multiplication table of G x G^op, whose flat ids
        # (a, b) -> a |G| + b are the ones U lists
        G = named_group(name)
        P = direct_product(G, opposite_group(G))
        auts = automorphism_search(G)
        cases = [(bimodule_data(from_hopf_auto(a)), (G.identity,), a)
                 for a in auts[:3]]
        for S in abelian_normal_subgroups(G):
            if S.order == 1:
                continue
            rprime = PartialBrEq(G, {}, {}, Provenance("rprime", (S, None, None)))
            cases.append((bimodule_data(rprime), S.elements, auts[0]))
            for a in auts:
                if sorted(map(a, S.elements)) != list(S.elements):
                    continue
                Sgrp, _ = S.as_group()
                for eta in h2_classes(Sgrp):
                    part = PartialBrEq(G, {}, {}, Provenance("ev", (S, eta, a)))
                    try:
                        cases.append((bimodule_data(part), S.elements, a))
                    except ConditionFailed:
                        pass
        assert len(cases) > 3
        for bd, S, v in cases:
            inside = {(x, y) for x in range(G.n) for y in range(G.n)
                      if G.mul(x, v(y)) in S}
            assert {divmod(e, G.n) for e in bd.U.elements} == inside
            assert bd.U.order == len(inside)
            assert set(bd.U1.elements) == {x for x, y in inside
                                           if y == G.identity}
            assert set(bd.U2.elements) == {y for x, y in inside
                                           if x == G.identity}
            u = np.array(bd.U.elements)
            assert P.identity in set(bd.U.elements)
            assert np.isin(P.table[np.ix_(u, u)], u).all()

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_u_peak_memory_is_that_of_the_membership_mask(self, name):
        # the |G|^4-entry product table took the traced peak to 111.6 MiB
        # at A5 and 1781 MiB at S5; the |G|^2 mask is 3.6 kB and 14.4 kB
        F = identity_autoeq(named_group(name))
        tracemalloc.start()
        try:
            bd = bimodule_data(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bd.U.order == F.group.n
        assert peak < 2**20

    def test_degenerate_eta_fails_condition_three(self):
        Q8 = named_group("Q8")
        Z = next(H for H in all_subgroups(Q8)
                 if H.order == 2 and H.is_normal())
        Zgrp, _ = Z.as_group()
        eta = Cocycle2(Zgrp, 2, np.zeros((2, 2), dtype=np.int64))
        fake = PartialBrEq(Q8, {}, {}, Provenance("ev", (Z, eta, None)))
        with pytest.raises(ConditionFailed, match="condition 3"):
            bimodule_data(fake)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip_preserves_mapping(self):
        S3 = named_group("S3")
        N = next(H for H in all_subgroups(S3) if H.order == 3)
        (F,) = complete_extensions(partial_dualization_rprime(N))
        data = autoeq_to_json(F)
        assert sorted(data) == ["group", "mapping", "provenance"]
        assert data["group"] == S3.name
        G = autoeq_from_json(data)
        assert equal(F, G)

    def test_provenance_descriptions(self):
        V4 = named_group("Z/2^2")
        v = brute_force_automorphisms(V4)[1]
        mu = h2_classes(V4, 2)[1]
        jv = autoeq_to_json(from_hopf_auto(v))
        assert jv["provenance"]["kind"] == "v"
        assert jv["provenance"]["images"] == list(v.images)
        jbv = autoeq_to_json(from_bv(v, mu))
        assert jbv["provenance"]["kind"] == "bv"
        assert jbv["provenance"]["modulus"] == 2
        comp = compose(from_hopf_auto(v), from_hopf_auto(v))
        jc = autoeq_to_json(comp)
        assert jc["provenance"]["kind"] == "composite"
        assert [f["kind"] for f in jc["provenance"]["factors"]] == ["v", "v"]

    def test_loaded_element_carries_no_construction_data(self):
        V4 = named_group("Z/2^2")
        F = from_hopf_auto(brute_force_automorphisms(V4)[1])
        G = autoeq_from_json(autoeq_to_json(F))
        assert G.provenance == Provenance("searched")
        with pytest.raises(UnsupportedProvenance):
            bimodule_data(G)

    def test_bad_mapping_rejected_on_load(self):
        S3 = named_group("S3")
        with pytest.raises(NotBraided):
            autoeq_from_json(
                {"group": "S3", "mapping": [1, 0, 2, 3, 4, 5, 6, 7]},
                G=S3,
            )
