"""Tests for the prime-field matrix model of center symmetries.

Frozen orders come from ``group_order_oracle`` (independent constrained
column enumeration) and are cross-checked here against the classical
closed-form order formulas, giving two routes that never share code with
the generator machinery under test.
"""

import functools
import itertools
import json
import re
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpic import fpn, zmodlin
from brpic.autoeq import (
    BraidedAutoeq,
    Provenance,
    complete_extensions,
    compose,
    from_bv,
    from_ev_lazy,
    from_hopf_auto,
    identity_autoeq,
    inverse,
)
from brpic.cohom import h2_classes
from brpic.errors import (
    BudgetExceeded,
    CapExceeded,
    DomainMismatch,
    NoFactorization,
    NotAdditive,
    NotBraided,
    NotFormPreserving,
    NotPrime,
)
from brpic.fpn import (
    BruhatCell,
    FpMatrix,
    _bruhat_stack,
    _check_prime,
    _pair_swap,
    _preserves_form,
    autoeq_to_matrix,
    bruhat_factorize,
    bruhat_census,
    generate_matrix_group,
    matrix_closure,
    matrix_group_order,
    group_order_oracle,
    hyperbolic_form,
    matrix_to_autoeq,
    standard_generators,
    subgroup_generators,
)
from brpic.groups import GroupMorphism, identity_morphism, named_group
from brpic.zmodlin import _inv_mod_p, _rref_mod_p

CONFIGS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
# Every (p, n) inside the oracle's budget; tests that enumerate whole groups
# element by element stay on CONFIGS.
ORACLE_CONFIGS = CONFIGS + [(5, 2)]

# Frozen via group_order_oracle: Sp_2n(F_2) at p = 2, O_2n^+(F_p) at odd p.
FROZEN_ORDERS = {(2, 1): 6, (3, 1): 4, (5, 1): 8, (2, 2): 720, (3, 2): 1152,
                 (5, 2): 28800}


def closed_form_order(p: int, n: int) -> int:
    """Classical order formulas, as an independent cross-check route."""
    if p == 2:
        return 2 ** (n * n) * prod(4**i - 1 for i in range(1, n + 1))
    return (
        2
        * p ** (n * (n - 1))
        * (p**n - 1)
        * prod(p ** (2 * i) - 1 for i in range(1, n))
    )


def full_group(p, n):
    return generate_matrix_group(standard_generators(p, n))


class TestHyperbolicForm:
    def test_3_1_block_shape(self):
        assert hyperbolic_form(3, 1).tolist() == [[0, 1], [1, 0]]

    def test_squares_to_identity(self):
        for p, n in CONFIGS:
            J = hyperbolic_form(p, n)
            assert np.array_equal((J @ J) % p, np.eye(2 * n, dtype=np.int64))

    def test_zero_diagonal(self):
        # The p = 2 convention reads the same Gram matrix symplectically,
        # which needs an alternating (zero-diagonal) form.
        for p, n in CONFIGS:
            assert not hyperbolic_form(p, n).diagonal().any()

    @pytest.mark.parametrize("bad", [1, 4, 6, 9, 0])
    def test_not_prime(self, bad):
        with pytest.raises(NotPrime):
            hyperbolic_form(bad, 1)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            hyperbolic_form(3, 0)


class TestFpMatrix:
    def test_product_mod_p(self):
        a = FpMatrix(3, [[1, 2], [0, 1]])
        b = FpMatrix(3, [[1, 1], [2, 0]])
        assert (a @ b).tolist() == [[2, 1], [2, 0]]

    def test_identity(self):
        I = FpMatrix.identity(5, 1)
        a = FpMatrix(5, [[2, 0], [0, 3]])
        assert I @ a == a @ I == a

    def test_equality_and_hash(self):
        a = FpMatrix(3, [[1, 5], [0, 1]])
        b = FpMatrix(3, [[1, 2], [0, 1]])  # 5 = 2 mod 3
        assert a == b and hash(a) == hash(b)
        assert a != FpMatrix(5, [[1, 2], [0, 1]])

    def test_immutable(self):
        a = FpMatrix(3, [[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            a.p = 5
        with pytest.raises(ValueError):
            a.entries[0, 0] = 2

    def test_size_fields(self):
        a = FpMatrix.identity(2, 2)
        assert a.size == 4 and a.half == 2 and a.p == 2

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            FpMatrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_mixed_product_rejected(self):
        with pytest.raises(DomainMismatch):
            FpMatrix.identity(3, 1) @ FpMatrix.identity(5, 1)
        with pytest.raises(DomainMismatch):
            FpMatrix.identity(3, 1) @ FpMatrix.identity(3, 2)

    def test_inverse(self):
        a = FpMatrix(5, [[2, 0], [0, 3]])
        assert a @ a.inverse() == FpMatrix.identity(5, 1)
        with pytest.raises(ValueError):
            FpMatrix(3, [[1, 1], [1, 1]]).inverse()

    def test_form_preservation(self):
        assert FpMatrix(3, [[2, 0], [0, 2]]).is_form_preserving()
        assert not FpMatrix(3, [[1, 1], [0, 1]]).is_form_preserving()


class TestGenerators:
    def test_v_3_1_is_inversion_pair(self):
        # GL_1(F_3) = {1, 2}: the one generator is diag(2, 2^-1) = -I.
        gens = subgroup_generators(3, 1, "V")
        assert [g.tolist() for g in gens] == [[[2, 0], [0, 2]]]

    def test_v_2_1_empty(self):
        assert subgroup_generators(2, 1, "V") == []

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("which", ["BV", "EV"])
    def test_unipotents_empty_at_odd_p_rank_1(self, p, which):
        # Alternating forms on a 1-dimensional space vanish.
        assert subgroup_generators(p, 1, which) == []

    def test_unipotent_2_1_symplectic_convention(self):
        # At p = 2 the blocks run over all symmetric matrices, so rank 1
        # still has the diagonal generator.
        assert [g.tolist() for g in subgroup_generators(2, 1, "BV")] == [
            [[1, 0], [1, 1]]
        ]
        assert [g.tolist() for g in subgroup_generators(2, 1, "EV")] == [
            [[1, 1], [0, 1]]
        ]

    def test_unipotent_block_shapes(self):
        n = 2
        for p in (2, 3):
            I = np.eye(n, dtype=np.int64)
            for M in subgroup_generators(p, n, "BV"):
                E = M.entries
                assert np.array_equal(E[:n, :n], I)
                assert np.array_equal(E[n:, n:], I)
                assert not E[:n, n:].any()
                A = E[n:, :n]
                assert np.array_equal((A + A.T) % p, (2 * np.diag(A.diagonal())) % p)
            for M in subgroup_generators(p, n, "EV"):
                E = M.entries
                assert not E[n:, :n].any()
        # Odd p: strictly alternating (zero diagonal).
        for M in subgroup_generators(3, 2, "BV"):
            assert not M.entries[2:, :2].diagonal().any()

    def test_r_family(self):
        gens = subgroup_generators(2, 2, "R")
        assert len(gens) == 3
        assert gens[0] == FpMatrix.identity(2, 2)
        assert gens[1].tolist() == [
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ]
        assert gens[2].tolist() == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_all_generators_form_preserving(self):
        for p, n in CONFIGS:
            for M in standard_generators(p, n):
                assert M.is_form_preserving(), (p, n, M)

    def test_v_generates_full_gl(self):
        # The embedded pair must generate all of GL_n, including the
        # determinant quotient (the scaled cycle has primitive-root det).
        expected = {
            (3, 1): 2,
            (5, 1): 4,
            (2, 2): 6,
            (3, 2): 48,
        }
        for (p, n), order in expected.items():
            gens = subgroup_generators(p, n, "V")
            assert len(generate_matrix_group(gens)) == order

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            subgroup_generators(3, 1, "W")


class TestGroupOrders:
    @pytest.mark.parametrize("p,n", ORACLE_CONFIGS)
    def test_oracle_frozen(self, p, n):
        assert group_order_oracle(p, n) == FROZEN_ORDERS[(p, n)]

    @pytest.mark.parametrize("p,n", ORACLE_CONFIGS)
    def test_oracle_matches_closed_form(self, p, n):
        assert group_order_oracle(p, n) == closed_form_order(p, n)

    @pytest.mark.parametrize("p,n", ORACLE_CONFIGS)
    def test_generated_order_matches_oracle(self, p, n):
        assert len(full_group(p, n)) == group_order_oracle(p, n)

    @pytest.mark.parametrize("p,n", ORACLE_CONFIGS)
    def test_chain_order_matches_oracle(self, p, n):
        assert matrix_group_order(standard_generators(p, n)) == (
            group_order_oracle(p, n))

    def test_chain_order_lists_nothing(self, monkeypatch):
        # |O+_6(3)| = 24,261,120: from the orbit lengths, at a cap that
        # lets them through; no closure runs and no element is decoded
        monkeypatch.setattr(fpn, "_closure", None)
        monkeypatch.setattr(fpn, "_chain_elements", None)
        gens = standard_generators(3, 3)
        assert matrix_group_order(gens, cap=closed_form_order(3, 3)) == (
            closed_form_order(3, 3))
        with pytest.raises(CapExceeded,
                           match="generated group exceeds the cap of 1000000"):
            matrix_group_order(gens)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_oracle_matches_brute_force(self, p, n):
        # Every 2n x 2n matrix over F_p (2**16 of them at (2, 2)), tested
        # against M^T J M = J directly: shares nothing with the column
        # extension or the closed forms.
        m = 2 * n
        E = np.array(list(itertools.product(range(p), repeat=m * m)))
        E = E.reshape(-1, m, m)
        J = np.zeros((m, m), dtype=np.int64)
        J[:n, n:] = J[n:, :n] = np.eye(n, dtype=np.int64)
        lhs = np.einsum("aji,jk,akl->ail", E, J, E) % p
        count = int((lhs == J).all(axis=(1, 2)).sum())
        assert group_order_oracle(p, n) == count

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            group_order_oracle(7, 1)
        with pytest.raises(BudgetExceeded):
            group_order_oracle(2, 3)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            group_order_oracle(4, 1)


class TestGenerateMatrixGroup:
    def test_deterministic(self):
        a = full_group(2, 2)
        b = full_group(2, 2)
        assert a == b
        assert a[0] == FpMatrix.identity(2, 2)

    def test_closure(self):
        grp = full_group(3, 1)
        elems = set(grp)
        for a in grp:
            for b in grp:
                assert a @ b in elems

    def test_cap(self):
        with pytest.raises(CapExceeded):
            generate_matrix_group(standard_generators(2, 2), cap=10)

    def test_cap_boundary(self):
        gens = standard_generators(2, 2)
        assert len(generate_matrix_group(gens, cap=720)) == 720
        with pytest.raises(CapExceeded):
            generate_matrix_group(gens, cap=719)

    def test_order_beyond_the_oracle(self):
        # |O_4^+(7)| = 2 * 7^2 * (7^2 - 1)^2, out of the oracle's p <= 5
        p, E = matrix_closure(standard_generators(7, 2))
        assert len(E) == closed_form_order(7, 2) == 2 * 7**2 * (7**2 - 1)**2
        assert E.dtype == np.uint8
        assert _preserves_form(p, E).all()

    def test_empty(self):
        with pytest.raises(ValueError):
            generate_matrix_group([])

    def test_mixed_generators(self):
        with pytest.raises(DomainMismatch):
            generate_matrix_group(
                [FpMatrix.identity(2, 1), FpMatrix.identity(3, 1)]
            )


class TestDictionary:
    def test_identity_round_trip(self):
        for p, n in [(2, 1), (3, 1), (2, 2)]:
            I = FpMatrix.identity(p, n)
            F = matrix_to_autoeq(I)
            assert F.is_identity()
            assert autoeq_to_matrix(F) == I

    def test_doubling_on_z5(self):
        # The automorphism x -> 2x acts on characters by the inverse
        # transpose, so its matrix is diag(2, 2^-1) = diag(2, 3).
        G = named_group("Z/5")
        v = GroupMorphism(G, G, tuple((2 * g) % 5 for g in range(5)))
        M = autoeq_to_matrix(from_hopf_auto(v))
        assert M.tolist() == [[2, 0], [0, 3]]

    def test_bv_is_lower_unipotent(self):
        V4 = named_group("Z/2^2")
        mu = h2_classes(V4, 2)[1]
        M = autoeq_to_matrix(from_bv(identity_morphism(V4), mu))
        E = M.entries
        assert np.array_equal(E[:2, :2], np.eye(2, dtype=np.int64))
        assert np.array_equal(E[2:, 2:], np.eye(2, dtype=np.int64))
        assert not E[:2, 2:].any()
        A = E[2:, :2]
        assert A.any() and not A.diagonal().any() and A[0, 1] == A[1, 0]

    def test_full_dictionary_at_3_1(self):
        # At odd p every form-preserving matrix is braided, and the
        # translation is a group isomorphism onto its image.
        grp = full_group(3, 1)
        auts = {M: matrix_to_autoeq(M) for M in grp}
        assert len({F.mapping for F in auts.values()}) == len(grp)
        for a in grp:
            assert autoeq_to_matrix(auts[a]) == a
            for b in grp:
                assert (
                    compose(auts[a], auts[b]).mapping == auts[a @ b].mapping
                )

    def test_inverse_compatible(self):
        grp = full_group(3, 1)
        for M in grp:
            assert autoeq_to_matrix(inverse(matrix_to_autoeq(M))) == M.inverse()

    def test_quadratic_census_2_2(self):
        # Sp_4(F_2) has 720 elements but only 72 preserve the quadratic
        # refinement q(x, y) = x.y; exactly those yield braided symmetries.
        grp = full_group(2, 2)
        vecs = np.array(
            list(itertools.product(range(2), repeat=4)), dtype=np.int64
        )

        def q(V):
            return (V[:, :2] * V[:, 2:]).sum(axis=1) % 2

        quadratic = {
            M
            for M in grp
            if np.array_equal(q((vecs @ M.entries.T) % 2), q(vecs))
        }
        assert len(quadratic) == 72
        rng = np.random.default_rng(7)
        for M in rng.choice(len(grp), size=25, replace=False):
            M = grp[int(M)]
            try:
                matrix_to_autoeq(M)
                braided = True
            except NotBraided:
                braided = False
            assert braided == (M in quadratic), M

    def test_p2_diagonal_unipotent_not_braided(self):
        with pytest.raises(NotBraided):
            matrix_to_autoeq(subgroup_generators(2, 1, "BV")[0])

    def test_not_additive_for_nonabelian(self):
        with pytest.raises(NotAdditive):
            autoeq_to_matrix(identity_autoeq(named_group("S3")))

    def test_not_additive_for_wrong_exponent(self):
        with pytest.raises(NotAdditive):
            autoeq_to_matrix(identity_autoeq(named_group("Z/4")))

    def test_not_additive_names_the_first_bad_simple(self):
        # a non-additive mapping smuggled past the BraidedAutoeq checks
        F = object.__new__(BraidedAutoeq)
        mapping = list(range(9))
        mapping[4], mapping[8] = 8, 4
        for name, value in (("group", named_group("Z/3")),
                            ("mapping", tuple(mapping)),
                            ("provenance", Provenance("searched"))):
            object.__setattr__(F, name, value)
        with pytest.raises(NotAdditive, match=r"\(simple 4\)"):
            autoeq_to_matrix(F)

    def test_not_form_preserving(self):
        with pytest.raises(NotFormPreserving):
            matrix_to_autoeq(FpMatrix(3, [[1, 1], [0, 1]]))


class TestBruhat:
    def test_identity_cell(self):
        cell = bruhat_factorize(FpMatrix.identity(2, 2))
        assert cell.reflection_rank == 0
        b, e, r = cell.factors
        I = FpMatrix.identity(2, 2)
        assert b == e == r == I

    def test_full_dualization_cell(self):
        for p, n in [(2, 1), (3, 1), (2, 2)]:
            r_n = subgroup_generators(p, n, "R")[-1]
            cell = bruhat_factorize(r_n)
            assert cell.reflection_rank == n
            b, e, r = cell.factors
            I = FpMatrix.identity(p, n)
            assert b == e == I and r == r_n

    # Frozen cell censuses from exhaustive factorization runs.
    CENSUS = {
        (2, 1): {0: 4, 1: 2},
        (3, 1): {0: 2, 1: 2},
        (2, 2): {0: 384, 1: 288, 2: 48},
    }

    @pytest.mark.parametrize("p,n", sorted(CENSUS))
    def test_exhaustive_factorization(self, p, n):
        census = {}
        for M in full_group(p, n):
            cell = bruhat_factorize(M)
            b, e, r = cell.factors
            assert b @ e @ r == M
            # b is lower block-triangular, e upper unipotent, r a pair swap.
            assert not b.entries[: n, n:].any()
            E = e.entries
            assert np.array_equal(E[:n, :n], np.eye(n, dtype=np.int64))
            assert np.array_equal(E[n:, n:], np.eye(n, dtype=np.int64))
            assert not E[n:, :n].any()
            assert b.is_form_preserving() and e.is_form_preserving()
            census[cell.reflection_rank] = (
                census.get(cell.reflection_rank, 0) + 1
            )
        assert census == self.CENSUS[(p, n)]
        assert len(census) == n + 1

    @pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
    def test_reflections_in_distinct_double_cosets(self, p, n):
        # The lower and upper triangular subgroups (both containing the
        # GL_n part) separate the n + 1 reflections, and their double
        # cosets tile the whole group.
        lower = generate_matrix_group(
            subgroup_generators(p, n, "V") + subgroup_generators(p, n, "BV")
            or [FpMatrix.identity(p, n)]
        )
        upper = generate_matrix_group(
            subgroup_generators(p, n, "V") + subgroup_generators(p, n, "EV")
            or [FpMatrix.identity(p, n)]
        )
        cosets = []
        for r in subgroup_generators(p, n, "R"):
            cosets.append({b @ r @ e for b in lower for e in upper})
        for i in range(len(cosets)):
            for j in range(i + 1, len(cosets)):
                assert not (cosets[i] & cosets[j])
        union = set().union(*cosets)
        assert len(union) == FROZEN_ORDERS[(p, n)]
        sizes = sorted(len(c) for c in cosets)
        assert sizes == sorted(self.CENSUS[(p, n)].values())

    def test_not_form_preserving_rejected(self):
        with pytest.raises(NotFormPreserving):
            bruhat_factorize(FpMatrix(3, [[1, 1], [0, 1]]))

    def test_cell_constant_on_double_cosets(self):
        lower = generate_matrix_group(subgroup_generators(2, 2, "BV"))
        upper = generate_matrix_group(subgroup_generators(2, 2, "EV"))
        for d, r in enumerate(subgroup_generators(2, 2, "R")):
            for b in lower[:4]:
                for e in upper[:4]:
                    assert bruhat_factorize(b @ r @ e).reflection_rank == d


def per_element_bruhat(M):
    """The factorization as it was before the stacked version: one matrix,
    one subset at a time, every witness an FpMatrix."""
    if not M.is_form_preserving():
        raise NotFormPreserving("matrix does not preserve the hyperbolic form")
    p, n = M.p, M.half
    E = M.entries
    d = n - len(_rref_mod_p(E[:n, :n], p)[1])
    for subset in itertools.combinations(range(n), d):
        r = FpMatrix(p, _pair_swap(n, subset))
        swapped = (E @ r.entries) % p
        X = swapped[:n, :n]
        try:
            Xinv = _inv_mod_p(X, p)
        except ValueError:
            continue
        Y, Z = swapped[:n, n:], swapped[n:, :n]
        b = np.zeros((2 * n, 2 * n), dtype=np.int64)
        b[:n, :n] = X
        b[n:, :n] = Z
        b[n:, n:] = Xinv.T
        e = np.eye(2 * n, dtype=np.int64)
        e[:n, n:] = (Xinv @ Y) % p
        bM, eM = FpMatrix(p, b), FpMatrix(p, e)
        if not (bM.is_form_preserving() and eM.is_form_preserving()):
            continue
        if (bM @ eM @ r) == M:
            return BruhatCell(d, (bM, eM, r))
    raise NoFactorization(f"no rank-{d} pair subset factorizes the given matrix")


class TestStackedBruhat:
    @pytest.mark.parametrize("p,n,sample", [(2, 2, None), (3, 2, None),
                                            (5, 2, 300)])
    def test_matches_per_element(self, p, n, sample):
        p, E = matrix_closure(standard_generators(p, n))
        if sample:
            E = E[np.random.default_rng(20170216).choice(len(E), sample,
                                                         replace=False)]
        d, b, e, r = _bruhat_stack(p, E)
        for k, entries in enumerate(E):
            M = FpMatrix(p, entries)
            old = per_element_bruhat(M)
            assert bruhat_factorize(M) == old
            assert int(d[k]) == old.reflection_rank
            assert [F.tolist() for F in old.factors] == [
                b[k].tolist(), e[k].tolist(), r[k].tolist()]

    def test_one_bad_matrix_in_the_stack(self):
        p, E = matrix_closure(standard_generators(3, 2))
        E = E.copy()
        E[7, 0, 0] = (E[7, 0, 0] + 1) % p
        with pytest.raises(NotFormPreserving):
            _bruhat_stack(p, E)

    def test_no_subset_works(self, monkeypatch):
        p, E = matrix_closure(standard_generators(2, 2))
        # every "reflection" is the zero matrix, so no witness multiplies
        # back to its input
        monkeypatch.setattr(
            fpn, "_pair_swap",
            lambda n, subset: np.zeros((2 * n, 2 * n), dtype=np.int64))
        # a fresh cache of swaps, built from the patched ones
        monkeypatch.setattr(
            fpn, "_swap_stack", functools.lru_cache(fpn._swap_stack.__wrapped__))
        with pytest.raises(NoFactorization):
            _bruhat_stack(p, E)
        with pytest.raises(NoFactorization):
            bruhat_factorize(FpMatrix.identity(3, 2))


class TestBruhatCells:
    """``bruhat_cells`` is the ``d`` of ``_bruhat_stack``, certified one
    slice at a time and raising as ``_bruhat_stack`` does."""

    @staticmethod
    def slices(monkeypatch):
        """The lengths of the stacks handed to ``_bruhat_stack``."""
        calls, real = [], fpn._bruhat_stack
        monkeypatch.setattr(fpn, "_bruhat_stack",
                            lambda p, E: calls.append(len(E)) or real(p, E))
        return calls

    @staticmethod
    def raised(call, p, E):
        with pytest.raises(Exception) as info:
            call(p, E)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_matches_the_stack(self, monkeypatch, p, n):
        p, E = matrix_closure(standard_generators(p, n))
        d = _bruhat_stack(p, E)[0]
        monkeypatch.setattr(fpn, "_BRUHAT_SLICE", 7)
        calls = self.slices(monkeypatch)
        assert np.array_equal(fpn.bruhat_cells(p, E), d)
        assert calls == [len(E[s:s + 7]) for s in range(0, len(E), 7)]

    def test_empty_stack(self):
        E = np.zeros((0, 4, 4), dtype=np.uint8)
        assert fpn.bruhat_cells(3, E).shape == (0,)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 4), (2, 4, 2),
                                       (1, 0, 0), (1, 1, 4, 4), ()])
    def test_stack_shape_is_refused(self, shape):
        E = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=re.escape(
                f"stack shape {shape} is not [N, 2n, 2n], n >= 1")):
            fpn.bruhat_cells(3, E)

    def test_bad_matrix_in_the_second_slice(self, monkeypatch):
        p, E = matrix_closure(standard_generators(3, 2))
        E = E.copy()
        E[10, 0, 0] = (E[10, 0, 0] + 1) % p
        monkeypatch.setattr(fpn, "_BRUHAT_SLICE", 7)
        want = self.raised(_bruhat_stack, p, E)
        assert want == (NotFormPreserving,
                        "matrix does not preserve the hyperbolic form")
        calls = self.slices(monkeypatch)
        assert self.raised(fpn.bruhat_cells, p, E) == want
        assert calls == [7, 7]          # the second slice raises

    def test_no_subset_works(self, monkeypatch):
        p, E = matrix_closure(standard_generators(2, 2))
        # the zero "reflections" of TestStackedBruhat.test_no_subset_works
        monkeypatch.setattr(
            fpn, "_pair_swap",
            lambda n, subset: np.zeros((2 * n, 2 * n), dtype=np.int64))
        monkeypatch.setattr(
            fpn, "_swap_stack", functools.lru_cache(fpn._swap_stack.__wrapped__))
        want = self.raised(_bruhat_stack, p, E)
        assert want == (NoFactorization,
                        "no rank-2 pair subset factorizes the given matrix")
        assert self.raised(fpn.bruhat_cells, p, E) == want

    def test_cells_of_o4_plus_f5(self):
        p, E = matrix_closure(standard_generators(5, 2))
        assert np.bincount(fpn.bruhat_cells(p, E)).tolist() == [
            12000, 14400, 2400]

    @pytest.mark.parametrize("p,n", ORACLE_CONFIGS)
    def test_census_is_the_closure_census(self, p, n):
        # the chain lists each element once, in another order than the
        # breadth-first closure; the counts per cell agree
        gens = standard_generators(p, n)
        census = bruhat_census(gens)
        d = fpn.bruhat_cells(*matrix_closure(gens))
        assert census == dict(enumerate(np.bincount(d).tolist()))
        assert list(census) == sorted(census)
        assert all(type(k) is int and type(v) is int
                   for k, v in census.items())

    def test_census_certifies_every_element(self, monkeypatch):
        calls = TestBruhatCells.slices(monkeypatch)
        assert bruhat_census(standard_generators(3, 2)) == {
            0: 432, 1: 576, 2: 144}
        assert sum(calls) == closed_form_order(3, 2)

    def test_peak_memory_is_a_quarter_of_the_stack(self):
        # tracemalloc sees numpy's buffers; the bound is a ratio, so it
        # holds on any machine
        p, E = matrix_closure(standard_generators(5, 2))

        def peak(call):
            tracemalloc.start()
            try:
                call(p, E)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(fpn.bruhat_cells) <= peak(_bruhat_stack) / 4


class TestInt64Limit:
    P = 4294967291        # the largest prime below 2**32

    def test_overflowing_prime_is_rejected(self):
        # 2 (p - 1)^2 >= 2**63: the int64 product would silently wrap
        p = self.P
        with pytest.raises(BudgetExceeded, match="FPN_INT64_LIMIT"):
            FpMatrix(p, [[p - 1] * 2] * 2)

    @pytest.mark.parametrize("call", [
        _check_prime,
        lambda p: group_order_oracle(p, 1),
        lambda p: hyperbolic_form(p, 1),
    ], ids=["_check_prime", "group_order_oracle", "hyperbolic_form"])
    def test_overflowing_prime_is_refused_before_trial_division(
            self, monkeypatch, call):
        def refuse(n):
            pytest.fail(f"trial division of {n}")

        monkeypatch.setattr(zmodlin, "_factorize", refuse)
        monkeypatch.setattr(zmodlin, "_is_prime", refuse)
        monkeypatch.setattr(fpn, "_is_prime", refuse)
        with pytest.raises(BudgetExceeded, match="FPN_INT64_LIMIT"):
            call(2**61 - 1)

    def test_limit_counts_the_matrix_size(self):
        p = 2**31 - 1         # 2 (p - 1)^2 < 2**63 <= 4 (p - 1)^2
        M = FpMatrix(p, [[p - 1] * 2] * 2)
        assert (M @ M).tolist() == [[2, 2], [2, 2]]
        with pytest.raises(BudgetExceeded, match="FPN_INT64_LIMIT"):
            FpMatrix.identity(p, 2)


class TestCrossModule:
    def test_full_dualization_completions_split_by_cell(self):
        # Completing the full-subgroup dualization of Z/2 x Z/2 yields four
        # braided symmetries; translated to matrices, two land in the top
        # cell (honest dualizations) and two in the open cell.
        V4 = named_group("Z/2^2")
        partial = from_ev_lazy(V4.full_subgroup(), h2_classes(V4, 2)[1])
        ranks = sorted(
            bruhat_factorize(autoeq_to_matrix(F)).reflection_rank
            for F in complete_extensions(partial)
        )
        assert ranks == [0, 0, 2, 2]

    def test_braided_subgroup_order_3_1(self):
        # The four matrices at (3, 1) realize exactly the braided
        # symmetries of the center of Z/3 built from inversion and full
        # dualization.
        grp = full_group(3, 1)
        mats = {matrix_to_autoeq(M).mapping for M in grp}
        G = named_group("Z/3")
        v = GroupMorphism(G, G, (0, 2, 1))
        assert from_hopf_auto(v).mapping in mats
        assert identity_autoeq(G).mapping in mats
        assert len(mats) == 4


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(word=st.lists(st.integers(0, 10), min_size=0, max_size=8))
    def test_random_words_factorize_2_2(self, word):
        gens = standard_generators(2, 2)
        M = FpMatrix.identity(2, 2)
        for i in word:
            M = M @ gens[i % len(gens)]
        assert M.is_form_preserving()
        cell = bruhat_factorize(M)
        b, e, r = cell.factors
        assert b @ e @ r == M
        assert 0 <= cell.reflection_rank <= 2

    @settings(max_examples=30, deadline=None)
    @given(word=st.lists(st.integers(0, 10), min_size=0, max_size=8))
    def test_random_words_round_trip_3_2(self, word):
        gens = standard_generators(3, 2)
        M = FpMatrix.identity(3, 2)
        for i in word:
            M = M @ gens[i % len(gens)]
        cell = bruhat_factorize(M)
        b, e, r = cell.factors
        assert b @ e @ r == M

    @settings(max_examples=25, deadline=None)
    @given(word=st.lists(st.integers(0, 5), min_size=0, max_size=6))
    def test_random_dictionary_round_trip_3_1(self, word):
        gens = standard_generators(3, 1)
        M = FpMatrix.identity(3, 1)
        for i in word:
            M = M @ gens[i % len(gens)]
        assert autoeq_to_matrix(matrix_to_autoeq(M)) == M


class TestFpMatrixEntries:
    """Entries are int64 integers: nothing is cast into one, and a refused
    entry is named by its position."""

    @pytest.mark.parametrize("entries, at", [
        ([[1.5, 0], [0, 1]], "[0][0]"),
        ([[1, 0], [True, 1]], "[1][0]"),
        ([[1, 0], [0, "1"]], "[1][1]"),
        ([[None, 0], [0, 1]], "[0][0]"),
        ([[1, 0], [0, np.uint64(2**64 - 1)]], "[1][1]"),
        ([[1, 2**63], [0, 1]], "[0][1]"),
        ([[1, 0], [-2**63 - 1, 1]], "[1][0]"),
        ([[1, 0], [0, np.float64(1)]], "[1][1]"),
        ([[np.bool_(True), 0], [0, 1]], "[0][0]"),
        (np.eye(2), "[0][0]"),
        (np.eye(2, dtype=bool), "[0][0]"),
        (np.array([[1, 0], [0, 2**64 - 1]], dtype=np.uint64), "[1][1]"),
    ])
    def test_refused(self, entries, at):
        with pytest.raises(ValueError, match=re.escape(
                f"entry {at} is ") + ".*not an int64 integer"):
            FpMatrix(3, entries)

    @pytest.mark.parametrize("rows, text", [
        ([[1.5, 0], [0, 1]], "entry [0][0] is 1.5"),
        ([[True, 0], [0, 1]], "entry [0][0] is true"),
        ([[1, 0], [0, "1"]], 'entry [1][1] is "1"'),
        ([[1e30, 0], [0, 1]], "entry [0][0] is 1e+30"),
        ([[float("nan"), 0], [0, 1]], "entry [0][0] is NaN"),
        ([[None, 0], [0, 1]], "entry [0][0] is null"),
        ([[1, 0], [2**63, 1]], "entry [1][0] is 9223372036854775808"),
        ({"a": 1}, 'entry [0][0] is {"a": 1}'),
        ([[[1]]], "entry [0][0] is [1]"),
        ([[1, 0], 7.5], "entry [1][0] is 7.5"),
    ])
    def test_from_json_names_the_entry_as_json(self, rows, text):
        with pytest.raises(ValueError, match=re.escape(
                f"{text}, not an int64 integer")):
            FpMatrix.from_json(3, rows)

    @pytest.mark.parametrize("rows, text", [
        ([1], "entries must form a square matrix"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "matrix size must be even"),
        ([[1, 0], [0]], "inhomogeneous"),
    ])
    def test_from_json_refuses_a_non_square_shape(self, rows, text):
        with pytest.raises(ValueError, match=text):
            FpMatrix.from_json(3, rows)

    def test_from_json_reads_int64_exactly(self):
        rows = [[-2**63, 0], [5, 2**63 - 1]]
        M = FpMatrix.from_json(3, json.loads(json.dumps(rows)))
        assert M == FpMatrix(3, rows) and M.tolist() == [[1, 0], [2, 1]]

    @pytest.mark.parametrize("entries", [
        [[-2**63, 2**63 - 1], [np.int64(4), np.uint64(2**63 - 1)]],
        np.array([[-2**63, 2**63 - 1], [4, 2**63 - 1]], dtype=np.int64),
        np.array([[0, 2**63 - 1], [4, 2**63 - 1]], dtype=np.uint64),
        np.array([[-5, 7], [4, 1]], dtype=np.int8),
    ])
    def test_int64_range_read_exactly(self, entries):
        want = [[x % 3 for x in map(int, row)] for row in entries]
        M = FpMatrix(3, entries)
        assert M.tolist() == want and M.entries.dtype == np.int64

    def test_integer_array_is_checked_by_its_dtype(self):
        # 500 x 500 int64 entries past the small-int cache: read one by one
        # they would take an object array, a list and an int per entry
        # (over 5x the array); by dtype, a copy and its bytes for the hash
        arr = np.random.default_rng(3).integers(1000, 2000, size=(500, 500))
        tracemalloc.start()
        try:
            M = FpMatrix(3, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(M.entries, arr % 3)
        assert peak < 3 * arr.nbytes

    def test_ragged_and_deep_entries(self):
        for bad in ([[1, 0], [0]], [[[1]]], [1, 0]):
            with pytest.raises(ValueError, match="square matrix"):
                FpMatrix(3, bad)
