"""Center simple objects, modular data, and Verlinde fusion."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from brpic.center import (
    ModularData,
    SimpleObject,
    _certify_modular,
    _simple_layout,
    modular_data,
    simple_objects,
    verlinde_fusion,
)
from brpic.chars import centralizer_table
from brpic.cyclo import (
    CycloArray,
    from_rational,
    one,
    root_of_unity,
    zero,
)
from brpic.errors import CapExceeded, CertificationError, NonIntegralFusion
from brpic.groups import (
    conjugacy_classes,
    group_from_table,
    named_group,
    symmetric_group,
)

# ---------------------------------------------------------------------------
# simple-object enumeration
# ---------------------------------------------------------------------------

SIMPLE_COUNTS = [
    ("Z/1", 1),
    ("Z/2", 4),
    ("Z/3", 9),
    ("Z/2^2", 16),
    ("S3", 8),
    ("S4", 21),
    ("D4", 22),
    ("Q8", 22),
    ("A4", 14),
]


def commuting_pair_orbits(G):
    """Orbits of commuting ordered pairs under simultaneous conjugation.

    Independent oracle via Burnside's lemma: the orbit count equals the
    number of pairwise-commuting ordered triples divided by |G|.
    """
    total = 0
    for g in range(G.n):
        cent = [x for x in range(G.n) if G.mul(g, x) == G.mul(x, g)]
        total += sum(
            1 for a in cent for b in cent if G.mul(a, b) == G.mul(b, a)
        )
    assert total % G.n == 0
    return total // G.n


@pytest.mark.parametrize("name,count", SIMPLE_COUNTS)
def test_simple_object_counts(name, count):
    G = named_group(name)
    simples = simple_objects(G)
    assert len(simples) == count
    assert commuting_pair_orbits(G) == count


@pytest.mark.parametrize("name", [n for n, _ in SIMPLE_COUNTS])
def test_quantum_dimension_sum_rule(name):
    G = named_group(name)
    assert sum(s.qdim ** 2 for s in simple_objects(G)) == G.n * G.n


def test_enumeration_order_and_unit_object():
    G = named_group("S3")
    simples = simple_objects(G)
    assert simples[0] == SimpleObject(0, 0, 1)      # unit: identity class, trivial char
    keys = [(s.class_index, s.char_index) for s in simples]
    assert keys == sorted(keys)
    # identity class, transpositions, 3-cycles with centralizer irrep counts
    assert tuple(s.qdim for s in simples) == (1, 1, 2, 3, 3, 2, 2, 2)


# the groups of the center and symmetries benchmark workloads
WORKLOAD_GROUPS = ["S3", "D4", "Q8", "A4", "S4", "A5", "S3xZ/2", "Z/2^2",
                   "Z/3", "Z/5", "Z/6", "Z/2^3"]


def relabelled_d4():
    """D4 through ``group_from_table``, its nontrivial elements renumbered
    in reverse, so the class and simple orders differ from named_group's."""
    T = named_group("D4").table
    p = np.r_[0, np.arange(T.shape[0] - 1, 0, -1)]      # an involution
    return group_from_table(p[T[np.ix_(p, p)]], name="D4-relabelled")


@pytest.mark.parametrize("make", [*(lambda n=n: named_group(n)
                                   for n in WORKLOAD_GROUPS), relabelled_d4],
                         ids=[*WORKLOAD_GROUPS, "table"])
def test_identity_positions_and_simple_layout(make):
    """Class 0 is {identity}, simple 0 is (class 0, character 0) with S[0]
    the layout's quantum dimensions, and the simples over class c are
    exactly start[c] .. start[c+1] - 1."""
    G = make()
    classes = conjugacy_classes(G)
    assert classes[0].members == (0,)
    simples = simple_objects(G)
    start, qdims = _simple_layout(G)
    assert simples[0] == SimpleObject(0, 0, 1)
    assert [x.as_rational() for x in modular_data(G).S[0]] == qdims.tolist()
    assert qdims.tolist() == [s.qdim for s in simples]
    assert start[0] == 0 and start[-1] == len(simples)
    assert len(start) == len(classes) + 1
    for c in range(len(classes)):
        over = [i for i, s in enumerate(simples) if s.class_index == c]
        assert over == list(range(start[c], start[c + 1]))
        assert [simples[i].char_index for i in over] == list(range(len(over)))
    assert not start.flags.writeable and not qdims.flags.writeable


def test_simples_cap(monkeypatch):
    import brpic.center as center_mod

    monkeypatch.setattr(center_mod, "SIMPLES_CAP", 10)
    with pytest.raises(CapExceeded):
        simple_objects(symmetric_group(4))          # fresh instance, no memo


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------

def test_trivial_group_modular_data():
    md = modular_data(named_group("Z/1"))
    assert md.size == 1
    assert md.S[0, 0] == one()
    assert md.T == (one(),)


def test_z2_frozen_modular_data():
    md = modular_data(named_group("Z/2"))
    assert md.T == (one(), one(), one(), -one())
    sign = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    for i in range(4):
        for j in range(4):
            assert md.S[i, j] == one() * sign[i][j]


def test_s3_frozen_twists():
    md = modular_data(named_group("S3"))
    z = root_of_unity(3, 1)
    assert md.T == (
        one(), one(), one(),            # identity class: all twists 1
        one(), -one(),                  # transposition class: +-1
        one(), z, z * z,                # 3-cycle class: cube roots
    )


@pytest.mark.parametrize("name", ["Z/2", "S3", "D4"])
def test_unit_row_is_quantum_dimensions(name):
    G = named_group(name)
    md = modular_data(G)
    for j, s in enumerate(simple_objects(G)):
        assert md.S[0, j] == one() * s.qdim
        assert md.S[j, 0] == one() * s.qdim


def test_s_matrix_unitarity_recomputed_directly():
    # independent of the construction-time assertions: explicit loops
    G = named_group("S3")
    md = modular_data(G)
    n2 = 36
    for i in range(8):
        for j in range(8):
            acc = zero()
            for r in range(8):
                acc = acc + md.S[i, r] * md.S[j, r].conj()
            assert acc == (one() * n2 if i == j else zero())


def test_charge_conjugation_from_s_square():
    G = named_group("S3")
    md = modular_data(G)
    n2 = 36
    perm = []
    for i in range(8):
        hits = [
            j for j in range(8)
            if sum((md.S[i, r] * md.S[r, j] for r in range(8)), zero())
            == one() * n2
        ]
        assert len(hits) == 1
        perm.append(hits[0])
    assert sorted(perm) == list(range(8))
    assert all(perm[perm[i]] == i for i in range(8))
    # the same pairing falls out of fusion with the unit: N_i,dual(i)^0 = 1
    for i in range(8):
        duals = [j for j in range(8) if verlinde_fusion(md, i, j, 0) == 1]
        assert duals == [perm[i]]


def test_modular_data_memoized():
    G = named_group("D4")
    assert modular_data(G) is modular_data(G)


def test_twists_are_roots_of_unity_of_bounded_order():
    for name in ["S3", "S4", "Q8"]:
        G = named_group(name)
        bound = G.exponent() * G.n
        for th in modular_data(G).T:
            order, _ = th.as_root_of_unity()
            assert bound % order == 0


# ---------------------------------------------------------------------------
# Verlinde fusion
# ---------------------------------------------------------------------------

def test_unit_fusion_is_identity():
    md = modular_data(named_group("S3"))
    for j in range(8):
        for k in range(8):
            assert verlinde_fusion(md, 0, j, k) == (1 if j == k else 0)


def test_z2_fusion_is_klein_group_law():
    md = modular_data(named_group("Z/2"))
    table = []
    for i in range(4):
        row = []
        for j in range(4):
            hits = [k for k in range(4) if verlinde_fusion(md, i, j, k)]
            assert len(hits) == 1
            assert verlinde_fusion(md, i, j, hits[0]) == 1
            row.append(hits[0])
        table.append(row)
    assert table == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_s3_full_fusion_table_nonnegative_and_symmetric():
    md = modular_data(named_group("S3"))
    for i in range(8):
        for j in range(8):
            for k in range(8):
                n = verlinde_fusion(md, i, j, k)
                assert n >= 0
                assert n == verlinde_fusion(md, j, i, k)


@pytest.mark.parametrize("name", ["Z/2^2", "D4", "Q8"])
def test_sampled_fusion_nonnegative(name):
    md = modular_data(named_group(name))
    rng = random.Random(20260825)
    ns = md.size
    for _ in range(120):
        i, j, k = (rng.randrange(ns) for _ in range(3))
        assert verlinde_fusion(md, i, j, k) >= 0


@pytest.mark.parametrize("ijk", [(-1, 0, 7), (0, 8, 0), (0, 0, 8), (8, 0, 0)])
def test_fusion_index_outside_the_simples_is_refused(ijk):
    md = modular_data(named_group("S3"))
    bad = next(x for x in ijk if not 0 <= x < 8)
    with pytest.raises(ValueError, match=rf"index {bad} .*\(N = 8\)"):
        verlinde_fusion(md, *ijk)


def test_corrupted_s_matrix_raises_nonintegral():
    md = modular_data(named_group("S3"))
    bad = np.array(md.S, dtype=object, copy=True)
    bad[3, 4] = bad[3, 4] + one()
    broken = ModularData(md.group, bad, md.T)
    with pytest.raises(NonIntegralFusion):
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    verlinde_fusion(broken, i, j, k)


def assert_ids_match_entries(entries, ids):
    """Equal ids exactly where the entries are equal: every id stands for
    one value, and the values of distinct ids differ (compared with ==)."""
    assert ids.shape == entries.shape and ids.dtype.kind == "i"
    assert not ids.flags.writeable
    rep = {}
    for x, i in zip(entries.flat, ids.flat):
        assert rep.setdefault(int(i), x) == x
    values = [rep[i] for i in sorted(rep)]
    assert sorted(rep) == list(range(len(rep)))
    for a, x in enumerate(values):
        assert not any(x == y for y in values[a + 1:])


# the ids certify every BraidedAutoeq, so their exactness is checked on
# every group of the center and symmetries workloads
@pytest.mark.parametrize("name", WORKLOAD_GROUPS)
def test_entry_ids_equal_exactly_where_entries_are_equal(name):
    md = modular_data(named_group(name))
    assert_ids_match_entries(md.S, md.S_ids)
    assert_ids_match_entries(np.array(md.T, dtype=object), md.T_ids)
    assert md.S_ids is md.S_ids            # built once, on first use


def test_hand_built_modular_data_gets_its_own_ids():
    md = modular_data(named_group("S3"))
    bad = np.array(md.S, dtype=object, copy=True)
    bad[3, 4] = bad[3, 4] + one()
    broken = ModularData(md.group, bad, md.T)
    assert_ids_match_entries(bad, broken.S_ids)
    assert md.S_ids[3, 4] == md.S_ids[4, 3]
    assert broken.S_ids[3, 4] != broken.S_ids[4, 3]
    assert np.array_equal(broken.T_ids, md.T_ids)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def naive_s_matrix(G):
    """S straight from the definition in the center module docstring: one
    Cyclotomic term per x in G, no per-class-pair profile."""
    simples = simple_objects(G)
    classes = conjugacy_classes(G)
    ns = len(simples)
    S = np.empty((ns, ns), dtype=object)
    for i, si in enumerate(simples):
        a = classes[si.class_index].rep
        _, elems_a, table_a = centralizer_table(G, a)
        chi = table_a[si.char_index]
        for j, sj in enumerate(simples):
            b = classes[sj.class_index].rep
            _, elems_b, table_b = centralizer_table(G, b)
            psi = table_b[sj.char_index]
            acc = zero()
            for x in range(G.n):
                xi = G.inv_of(x)
                u = G.mul(G.mul(x, b), xi)
                if u not in elems_a:
                    continue
                v = G.mul(G.mul(xi, a), x)
                acc = acc + (chi.value_at_element(elems_a.index(u)).conj()
                             * psi.value_at_element(elems_b.index(v)).conj())
            S[i, j] = acc * G.n / (len(elems_a) * len(elems_b))
    return S


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "Z/2^2", "Z/3"])
def test_s_matrix_matches_naive_definition(name):
    G = named_group(name)
    naive = naive_s_matrix(G)
    S = modular_data(G).S
    for i in range(S.shape[0]):
        for j in range(S.shape[1]):
            assert S[i, j] == naive[i, j], (i, j)


def corrupted(name, edit_s=None, edit_t=None):
    """(G, simples, S, T) of a fresh group with S and T copied and edited."""
    G = named_group(name)
    md = modular_data(G)
    S = np.array(md.S, dtype=object, copy=True)
    T = list(md.T)
    if edit_s:
        S = edit_s(S)
    if edit_t:
        edit_t(T)
    return G, simple_objects(G), S, T


def bump(*cells):
    def edit(S):
        for i, j in cells:
            S[i, j] = S[i, j] + one()
        return S
    return edit


def householder(j, k, l):
    """Conjugate S by the rational reflection along e_j + e_k - 2 e_l.

    With equal quantum dimensions at j, k, l it keeps S symmetric, its unit
    row and S conj(S)^T, but S^2 = |G|^2 V C V is no longer a permutation
    when charge conjugation C moves these indices.
    """
    def edit(S):
        ns = S.shape[0]
        w = [0] * ns
        w[j], w[k], w[l] = 1, 1, -2
        V = np.array([[from_rational(Fraction(int(r == c)) - Fraction(w[r] * w[c], 3))
                       for c in range(ns)] for r in range(ns)], dtype=object)
        return V.dot(S).dot(V)
    return edit


def swap(a, b):
    def edit(T):
        T[a], T[b] = T[b], T[a]
    return edit


def set_twist(i, value):
    def edit(T):
        T[i] = value
    return edit


@pytest.mark.parametrize("check,name,edit_s,edit_t", [
    ("symmetry", "S3", bump((1, 2)), None),
    ("unit row", "S3", bump((0, 1), (1, 0)), None),
    ("gram", "S3", bump((1, 2), (2, 1)), None),
    ("square", "Z/3", householder(1, 2, 3), None),
    ("twist", "S3", None, set_twist(1, one() * 2)),
    # -1 has order 2: it divides exp(G)*|G| = 36 but not ord(1) = 1
    pytest.param("twist", "S3", None, set_twist(1, -one()),
                 id="twist-order-S3"),
    ("twist conjugation", "Z/3", None, swap(4, 5)),
    # T[5] = 1 <-> T[6] = z3 within the 3-cycle class, so the twist orders
    # still divide ord(g) = 3
    ("modular relation", "S3", None, swap(5, 6)),
])
def test_each_corruption_raises_its_check(check, name, edit_s, edit_t):
    with pytest.raises(CertificationError, match=rf"^{check}: .* at \(\d+, \d+\)$"):
        _certify_modular(*corrupted(name, edit_s, edit_t))


def test_corrupted_s_raises_under_python_O():
    # the same S3 corruption as the "symmetry" case above, in a process
    # where assert statements are compiled away
    code = (
        "import numpy as np\n"
        "from brpic.center import _certify_modular, modular_data, simple_objects\n"
        "from brpic.errors import CertificationError\n"
        "from brpic.groups import named_group\n"
        "G = named_group('S3')\n"
        "S = np.array(modular_data(G).S, dtype=object, copy=True)\n"
        "S[1, 2] = S[1, 2] + 1\n"
        "try:\n"
        "    _certify_modular(G, simple_objects(G), S, list(modular_data(G).T))\n"
        "except CertificationError as e:\n"
        "    print('rejected:', e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("rejected: symmetry")


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_int64_and_object_routes_agree(name):
    md = modular_data(named_group(name))
    L = lcm(*{v.n for v in md.S.flat}, *{t.n for t in md.T})
    S = CycloArray.lift(md.S, L)
    T = CycloArray.lift(np.array(md.T, dtype=object), L)
    assert S.A.dtype == T.A.dtype == np.int64 and L > 1

    def products(X, Y):
        st = X * Y
        return [X @ X.conj().transpose(), X @ X, st @ st]

    def exact(X):
        return CycloArray(X.L, X.den, X.A.astype(object))

    fast = products(S, T)
    slow = products(exact(S), exact(T))
    assert all(p.A.dtype == np.int64 for p in fast)
    assert all(p.A.dtype == object for p in slow)
    for f, e in zip(fast, slow):
        assert f.A.shape == e.A.shape
        assert [int(x) for x in f.A.flat] == [int(x) for x in e.A.flat]


def test_coefficients_past_int64_take_the_object_route():
    big = 2 ** 40
    z = root_of_unity(3, 1)
    values = np.array([[z * big, one() * big], [one() * big, z * z * big]],
                      dtype=object)
    X = CycloArray.lift(values, 3)
    assert X.den == 1 and X.A.dtype == np.int64
    P = X @ X
    assert P.A.dtype == object
    for i in range(2):
        for j in range(2):
            want = sum((values[i, r] * values[r, j] for r in range(2)), zero())
            got = sum(int(P.A[k, i, j]) * root_of_unity(3, k) for k in range(2))
            assert got == want
    huge = np.array([one() * 2 ** 70], dtype=object)
    H = CycloArray.lift(huge, 1)
    assert H.A.dtype == object and H.A[0, 0] == 2 ** 70


def test_certifies_z3_squared():
    G = named_group("Z/3^2")
    md = modular_data(G)
    assert md.size == 81
    assert isinstance(md.S[1, 2], type(one()))
    _certify_modular(G, simple_objects(G), md.S, list(md.T))


# sha256 of json.dumps of [[S[i, j].to_json()]] and of [T[i].as_root_of_unity()],
# recorded before S was built as a block tensor product
MODULAR_PINS = [
    ("S3", 8, "940603b2226b1498713f8f860bfb7d42376b6e5bd4480f7861f7016191ffd8ef",
     "171b15f5a6171492af9396f1ccd201249f715e1ba04e07387039c447e2ed4383"),
    ("D4", 22, "b43762307a79725543b3bb118ab49905cd329aa38ed6da60fce78e5351bc209f",
     "4cab5f756240581e928eca0d6a2e04d43b401397acbcecddf1a546c758bdc103"),
    ("Q8", 22, "e07342240da88ce4c4ba64f1865067a68ad3370abf7c25848651a79468846786",
     "b4d95c288a5f145d9cda5ba5826c50b79c12abcc698029df11b57e5760f8f1a7"),
    ("A4", 14, "5a370c68f07be7c6ef79c8ed4d34ce5f695ce8ed2de392fbb096e6758686c21d",
     "a28c1227dec9f937798d5628badc0ca9a0da40b9164505140c54773d56d9e1a0"),
    ("S4", 21, "83f4c19037d175c2e46bf0434fabb0cea10fcbf8e4342fdc018e911296367dd4",
     "fb0c9434f62e2cd8053f249bf1490deb125e5679a05af28eab7069909e471987"),
    ("A5", 22, "b04a1cce7d80ac91362019418dc888698dff329ce74f9be9c0e09acc36a5cd51",
     "a826824dbe8722fbc57ec5c2c0b66c6938c49edd35b67aeeb2c81b8e41d2e034"),
    ("S3xZ/2", 32, "5f66a81076796cd03e11ff7747a9fdb8341cfca0c220faee2788debbdd3020a5",
     "e17aca67e650bb0fdede843809e286c664efe8f3cf4c9a90e2196914b3cf1ccc"),
    ("Z/2^2", 16, "efccce97d210d05972e75ca8e0a4e15646bb9e68852ace12bae72e41bc9536fd",
     "5682121254c94c43781c7e1222332846a5b4b6d86a55e8ef3e95b13e6e8fc35e"),
    ("Z/3", 9, "609046b5c81d0a9eb2e88bddeebf1133a5cffb876162fcff3211da5439da3275",
     "4b07c0113717f475e3f976ab502b672539579d84405d54885baddc207ba3fb86"),
    ("Z/5", 25, "3eaee3ab90a234bddc125baef751b4b95878407f15b6777df7bddbb15dbbf181",
     "e480186795eae7c1f11cf90a768759d446376cc1216ce21785e87f580a05520e"),
    ("Z/6", 36, "d581a3ce00e4e8b9b3aa1126233e2be3e1773195c2802b6c7c9178a6822a6d63",
     "ff2c41161336a39b0cf724c955dc2dc20a0d5a1d37c4cfb62c81bf87725c8300"),
    ("Z/2^3", 64, "68d63aca9aa8d12256c8bc0daab9ca0865edeed1234859f0ac09d4229f3e6acd",
     "254b3af9fed0418e5d09db47d96681a1b9c4d270fc8967120b0092c94cb21d17"),
    ("Z/3^2", 81, "a91a4e13458e9aca6e5edba90309dc63637802b16fa54819168bfe324ba4510f",
     "7c096522e304c2b958252e90eaaefc9b83f1861eef9848e263c35473f86dfb03"),
    ("Z/7", 49, "4e8cb21cd67a448d8510cacbc4932fe25b0baabe5d88223ca0e1043a8f6c7d52",
     "770a1f4ca901ba76be40f215ad63817fe21e3fd4b73d7f333fc7984a60ddf9dd"),
    ("S3xZ/3", 72, "932734e772bf95202dc424b919e7dbd5326f3014abce49230f7d9ebdac15b97c",
     "1da84ac5d3926a6c473cf094a4f3969aec2698ccb2f7f0f27f0c0a8212dbad79"),
]


@pytest.mark.parametrize("name,size,s_digest,t_digest", MODULAR_PINS,
                         ids=[c[0] for c in MODULAR_PINS])
def test_modular_data_pinned(name, size, s_digest, t_digest):
    md = modular_data(named_group(name))
    S = md.S
    assert md.size == size
    entries = [[S[i, j].to_json() for j in range(size)] for i in range(size)]
    roots = [list(t.as_root_of_unity()) for t in md.T]
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == s_digest
    assert hashlib.sha256(json.dumps(roots).encode()).hexdigest() == t_digest
    # equal entries are one shared object
    assert len({id(x) for x in S.flat}) == len(set(S.flat))


@pytest.mark.parametrize("name", ["S3", "A5"])
def test_object_route_gives_the_same_modular_data(monkeypatch, name):
    """With the int64 limit at 1, every tensor step (the table certificates,
    the S build and its certification) runs on Python ints."""
    import brpic.cyclo as cyclo_mod

    md = modular_data(named_group(name))
    monkeypatch.setattr(cyclo_mod, "_INT64_MAX", 1)
    slow = modular_data(named_group(name))
    assert slow is not md and slow.T == md.T
    assert all(x == y for x, y in zip(slow.S.flat, md.S.flat))
