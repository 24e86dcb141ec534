"""Cocycle classes, pairings, and laziness, with brute-force cross-checks."""

import hashlib
import itertools
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brpic.chars import character_table
from brpic.cohom import (
    Cocycle2,
    _cocycle_equations,
    Pairing,
    antisymmetrize,
    coboundary,
    coboundary_witness,
    dual_element,
    h2_classes,
    is_lazy,
    is_nondegenerate,
    lazy_representative,
    sigma_from_eta,
)
from brpic.cyclo import one, root_of_unity, zero
from brpic.errors import (
    BrpicError,
    BudgetExceeded,
    CertificationError,
    Degenerate,
    NoSuchElement,
    NotAbelian,
    NotACocycle,
    NotASubgroup,
    NotNormal,
)
from brpic.groups import abelian_normal_subgroups, named_group
from brpic.zmodlin import (
    diagonalize_mod,
    elementary_divisor_chain,
    nullspace_mod,
    smith_normal_form,
)

# ---------------------------------------------------------------------------
# Cocycle2 basics
# ---------------------------------------------------------------------------


def test_cocycle_identity_witness():
    G = named_group("Z/2^2")
    bad = np.zeros((4, 4), dtype=int)
    bad[1, 2] = 1            # a lone nonzero value violates the identity
    with pytest.raises(NotACocycle):
        Cocycle2(G, 2, bad)


def test_normalization_subtracts_constant():
    G = named_group("Z/3")
    eta = coboundary(G, [5, 1, 2], 9)
    assert not eta.values[G.identity, :].any()
    assert not eta.values[:, G.identity].any()


def test_coboundary_is_valid_cocycle():
    G = named_group("S3")
    eta = coboundary(G, [0, 1, 2, 3, 4, 5], 6)
    Cocycle2(G, 6, eta.values)      # re-validates the identity


def test_cocycle_algebra_and_equality():
    G = named_group("Z/2^2")
    a = coboundary(G, [0, 1, 0, 1], 2)
    b = coboundary(G, [0, 0, 1, 1], 2)
    assert (a + b) - b == a
    assert (-a) + a == Cocycle2(G, 2, np.zeros((4, 4), dtype=int), check=False)
    assert hash(a) == hash(Cocycle2(G, 2, a.values))


@pytest.mark.parametrize("m", [0, -2, -3])
def test_cocycle_modulus_below_one_is_refused(m):
    G = named_group("Z/3")
    with pytest.raises(ValueError, match=f"modulus m = {m} must be at least 1"):
        Cocycle2(G, m, np.zeros((3, 3), dtype=int))


@pytest.mark.parametrize("m", [0, -2, -3])
def test_coboundary_modulus_below_one_is_refused(m):
    G = named_group("Z/3")
    with pytest.raises(ValueError, match=f"modulus m = {m} must be at least 1"):
        coboundary(G, [0, 1, 2], m)
    # only sums are formed: a modulus past the int64 product bound is valid
    assert coboundary(G, [0, 1, 2], 2**62).m == 2**62


# ---------------------------------------------------------------------------
# h2_classes counts against the classical multiplier tables
# ---------------------------------------------------------------------------

KNOWN_CLASS_COUNTS = [
    # (group, modulus, classes, divisors)
    ("Z/2", 2, 1, ()),
    ("Z/4", 4, 1, ()),
    ("Z/6", 6, 1, ()),
    ("Z/12", 12, 1, ()),
    ("Z/2^2", 2, 2, (2,)),
    ("Z/2^2", 4, 2, (2,)),
    ("Z/2^3", 2, 8, (2, 2, 2)),
    ("Z/3^2", 3, 3, (3,)),
    ("S3", 6, 1, ()),
    ("D4", 8, 2, (2,)),
    ("Q8", 8, 1, ()),
    ("A4", 12, 2, (2,)),
]


@pytest.mark.parametrize("name,m,count,divs", KNOWN_CLASS_COUNTS)
def test_h2_class_counts(name, m, count, divs):
    res = h2_classes(named_group(name), m)
    assert len(res) == count
    assert res.elementary_divisors == divs
    assert res[0].is_trivial()                      # trivial class first
    for i, rep in enumerate(res):
        assert res.class_index(rep) == i            # classification round-trip


def test_h2_default_modulus_is_group_order():
    G = named_group("Z/2^2")
    assert h2_classes(G).m == 4


def test_h2_memoized():
    G = named_group("D4")
    assert h2_classes(G, 8) is h2_classes(G, 8)


def test_h2_budget():
    with pytest.raises(BudgetExceeded):
        h2_classes(named_group("S5"), 120)


@pytest.mark.parametrize("m", [0, -2])
def test_h2_rejects_modulus_below_one(m):
    with pytest.raises(ValueError, match=f"m = {m}"):
        h2_classes(named_group("D4"), m)


def _full_cocycle_equations(G, m):
    """All (n-1)^3 rows F(a, b, c) = 0 with a, b, c != 1, one at a time."""
    nz = [g for g in range(G.n) if g != G.identity]
    col = {(x, y): i * len(nz) + j
           for i, x in enumerate(nz) for j, y in enumerate(nz)}
    rows = []
    for a, b, c in itertools.product(nz, repeat=3):
        row = np.zeros(len(col), dtype=np.int64)
        ab, bc = G.mul(a, b), G.mul(b, c)
        row[col[a, b]] += 1
        if ab != G.identity:
            row[col[ab, c]] += 1
        row[col[b, c]] -= 1
        if bc != G.identity:
            row[col[a, bc]] -= 1
        rows.append(row % m)
    return np.vstack(rows)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "Z/2^2", "Z/6",
                                  "S3xZ/2"])
def test_generator_rows_define_the_full_cocycle_module(name):
    G = named_group(name)
    for m in sorted({2, G.exponent(), G.n}):
        gen = _cocycle_equations(G, m)
        full = _full_cocycle_equations(G, m)
        assert gen.shape == (len(G.minimal_generators()) * (G.n - 1) ** 2,
                             (G.n - 1) ** 2)
        assert not (gen @ nullspace_mod(full, m) % m).any()
        assert not (full @ nullspace_mod(gen, m) % m).any()


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
@pytest.mark.parametrize("m", [2, 6, 255, 256, 257, 65537])
def test_generator_rows_are_built_in_the_narrow_dtype(name, m):
    # the generator rows of the full system, entry for entry, stored in the
    # smallest unsigned dtype holding [0, m)
    G = named_group(name)
    gen = _cocycle_equations(G, m)
    assert gen.dtype == np.min_scalar_type(m - 1)
    w = G.n - 1
    full = _full_cocycle_equations(G, m).reshape(w, w * w, w * w)
    nz = [g for g in range(G.n) if g != G.identity]
    first = [nz.index(s) for s in G.minimal_generators()]
    assert np.array_equal(gen, full[first].reshape(gen.shape))


def test_classify_ignores_coboundary_shifts():
    G = named_group("Z/2^2")
    res = h2_classes(G, 2)
    for phi in itertools.product(range(2), repeat=3):
        shift = coboundary(G, (0,) + phi, 2)
        for i, rep in enumerate(res):
            assert res.class_index(rep + shift) == i


# sha256 of each representative's little-endian int64 value table, and the
# class_index of rep[i] + rep[i+1] + d(phi) with phi(g) = 5g + 3 mod m,
# recorded before the sparse elimination replaced the dense sweep.
H2_PINS = [
    ("S4", 2, [
        "606f558e014930f9c1669f03c71c28945c4631568e39cd308c6c7f4077c7bfb9",
        "6edb3c36bbc703a7779265e950443b2c5ebf73fd6352bd2706f05e2ec31a841a",
    ], [1, 1]),
    ("Z/5:Z/4", 4, [
        "5a312281df4bd8dfbb4d4a94ad0bf44d01bb8cfced1206b90e21b4ca0568cdb1",
    ], [0]),
    ("S3xZ/3", 6, [
        "b2069f33fd956c79679b2e5a25c60cd0eab63b023d12111ff0242ae50896e9e1",
    ], [0]),
    ("D4xZ/2", 16, [
        "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
        "06457c43bc0cb51437f5c099c2421cd93370cc82fcdc6325ea4c54bde19109cc",
        "c7b0c7f9a25d3f9d81a40d8421c10dc7f1c6ab21e989b71b465bc66d001f1e6c",
        "4cc43a3d6c26172373675d2469675e2b65c9f434cf3a307dc83089f7d84adcd9",
        "88c13e8b3eb72619624b0d03617c3f685e55bc05e5cd3e8c0d21b745e10cd46d",
        "6ca2f385368c981df1e253cad90c0388791d871f4cc28cd9576e8043774ab134",
        "7a560b82141d37bf5ed5cf14b6a70cdb2d2e2d4fc4874e977e61fe53cc2a0165",
        "236412747ec4e9071fb6bb5f2354fe543d0053f7daefbfbde2a5f8bf7d63a63d",
    ], [1, 3, 1, 7, 1, 3, 1, 7]),
    ("A4", 12, [
        "4cf9816ed1062189ff0c8d427fba5e912cc68fc9af76cf7f08fd255977de3b33",
        "16a7e3da9ef363d1ca9c09ef3ec6ce11b0fdcd53a6e7832fddc84052d5b3973a",
    ], [1, 1]),
    ("D4", 8, [
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "affa0679bd0f5c9c572e565baab7c84bd5945eb6722ffccefe74f7ee9cbc82e9",
    ], [1, 1]),
    ("A4xZ/2", 2, [
        "606f558e014930f9c1669f03c71c28945c4631568e39cd308c6c7f4077c7bfb9",
        "79b2f31d5f75a0dccbb294d20ae9c71a0c096ca3ea15c395cd9eadbca54dbb62",
    ], [1, 1]),
    ("Q8xZ/2", 16, [
        "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
        "1f238437bb506a261f57cfb9d9b80e570ad30939283bd53e0b22050b032cfaa8",
        "28c5b5f6a133044484d09217865c34f1f03b31d9354827789e2cf8b33b56ab4e",
        "f3551229dc9e9dee734cec144f3b2926750f7116666daddb604834e15ded7c08",
    ], [1, 3, 1, 3]),
]


@pytest.mark.parametrize("name,m,digests,shifted", H2_PINS,
                         ids=[f"{c[0]}@{c[1]}" for c in H2_PINS])
def test_h2_representatives_pinned(name, m, digests, shifted):
    G = named_group(name)
    res = h2_classes(G, m)
    got = [hashlib.sha256(rep.values.astype("<i8").tobytes()).hexdigest()
           for rep in res]
    assert got == digests
    phi = np.array([(5 * g + 3) % m for g in range(G.n)])
    phi[G.identity] = 0
    d = coboundary(G, phi, m)
    k = len(res)
    assert [res.class_index(res[i] + res[(i + 1) % k] + d)
            for i in range(k)] == shifted


def test_h2_budget_names_the_entry_limit():
    with pytest.raises(BudgetExceeded, match="H2_ENTRY_BUDGET = 100000000"):
        h2_classes(named_group("S5"), 120)


def test_h2_peak_memory_is_that_of_a_narrow_system():
    # S4 at m = 2: a 1058 x 529 cocycle system, 4.5 MB in int64, whose int64
    # column-major copy and transforms took the traced peak to 12-15 MB; in
    # uint8 the system is 0.56 MB.  Widening the cocycle solver's whole
    # 529 x 529 U to int64 (2.2 MB) for the labeller's 24 pivot rows took
    # the peak to 3.1 MiB; with only those rows widened it is 2.1 MiB
    G = named_group("S4")
    tracemalloc.start()
    try:
        h2_classes(G, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20


def test_class_index_refuses_a_nonzero_identity_row_or_column():
    # the table is no cocycle: the checked constructor names the triple
    # (e, e, (1 2 3 4)); class_index reads the identity's row and column too
    G = named_group("D4")
    res = h2_classes(G, 8)
    for at in [(0, 3), (3, 0)]:
        v = res[1].values.copy()
        v[at] = 5
        with pytest.raises(NotACocycle, match="cocycle identity fails"):
            Cocycle2(G, 8, v)
        with pytest.raises(NotACocycle, match="not normalized"):
            res.class_index(Cocycle2(G, 8, v, check=False))


def _frozen_full_u_solve(system, b):
    """Reference: the solve that read all rows of U: None when U b is
    nonzero past the diagonal or g_i does not divide (U b)_i."""
    m = system.m
    d = np.diagonal(system.D)
    g = np.gcd(d, m)
    mg = m // g
    inv = np.array([pow(int(x), -1, int(n)) for x, n in zip(d // g, mg)],
                   dtype=np.int64)
    rhs = system.T.U @ (np.asarray(b, dtype=np.int64) % m) % m
    if rhs[g.size:].any() or (rhs[:g.size] % g).any():
        return None
    z = np.zeros(system.cols, dtype=np.int64)
    z[:g.size] = rhs[:g.size] // g * inv % mg
    return system.T.V @ z % m


def _frozen_full_u_label(G, m):
    """Reference: the class labeller that kept the cocycle solver's whole
    (n-1)^2-square U and the whole class-group transform U', built as
    h2_classes built them; returns label(eta), raising NotACocycle."""
    from brpic.cohom import (_carry_cocycle, _cocycle_basis, _coboundary_rows,
                             _hom_generators)
    from brpic.zmodlin import DiagonalizedSystem

    zsolver = DiagonalizedSystem(_cocycle_basis(G, m), m)
    span = list((_coboundary_rows(G) % m).T)
    span += [_carry_cocycle(G, h, m)[1:, 1:].ravel()
             for h in _hom_generators(G)]
    coords = [_frozen_full_u_solve(zsolver, v) for v in span]
    k = zsolver.cols
    Q = np.concatenate([np.stack(coords, axis=1), zsolver.nullspace()],
                       axis=1)
    D, T = diagonalize_mod(Q, m)
    gvec = np.gcd(np.pad(np.diagonal(D), (0, k - min(D.shape))), m)

    def label(eta):
        y = _frozen_full_u_solve(zsolver, eta.values[1:, 1:].ravel())
        if y is None:
            raise NotACocycle("value table solves no cocycle system")
        w = (T.U @ y) % m
        return tuple(int(w[i]) % g for i, g in enumerate(gvec) if g > 1)

    return label


# every H2_PINS pair (the cohomology benchmark's pairs), plus two groups
# with larger class groups
LABEL_PAIRS = [(name, m) for name, m, _, _ in H2_PINS] + [("Z/2^3", 2),
                                                         ("Z/3^2", 3)]


@pytest.mark.parametrize("name,m", LABEL_PAIRS,
                         ids=[f"{n}@{m}" for n, m in LABEL_PAIRS])
def test_labels_match_the_full_u_labeller(name, m):
    # seeded cocycles (representative j plus a random coboundary) and
    # one-entry perturbations of them off the identity's row and column:
    # the same label, or NotACocycle from both
    G = named_group(name)
    res = h2_classes(G, m)
    frozen = _frozen_full_u_label(G, m)
    rng = np.random.default_rng(sum(map(ord, name)) + m)

    def outcome(labeller, eta):
        try:
            return labeller(eta)
        except NotACocycle:
            return NotACocycle

    refused = 0
    for _ in range(12):
        j = int(rng.integers(len(res)))
        phi = rng.integers(0, m, size=G.n)
        phi[0] = 0
        eta = res[j] + coboundary(G, phi, m)
        assert outcome(res._label, eta) == frozen(eta)
        assert res.class_index(eta) == j
        v = eta.values.copy()
        a, b = (int(x) for x in rng.integers(1, G.n, size=2))
        v[a, b] = (v[a, b] + rng.integers(1, m)) % m
        bad = Cocycle2(G, m, v, check=False)
        got = outcome(res._label, bad)
        assert got == outcome(frozen, bad)
        refused += got is NotACocycle
    assert refused == 12


def _arrays(x, seen):
    """Record in ``seen`` every array reachable from x (through containers,
    attributes and slots) by the array owning its buffer."""
    if isinstance(x, np.ndarray):
        while isinstance(x.base, np.ndarray):
            x = x.base
        seen[id(x)] = x
    elif isinstance(x, (list, tuple)):
        for y in x:
            _arrays(y, seen)
    elif isinstance(x, dict):
        for y in x.values():
            _arrays(y, seen)
    elif hasattr(x, "__dict__") or hasattr(x, "__slots__"):
        for name in getattr(type(x), "__slots__", ()):
            _arrays(getattr(x, name), seen)
        for y in getattr(x, "__dict__", {}).values():
            _arrays(y, seen)


def labeller_bytes(res) -> int:
    """Bytes of the arrays an H2Classes holds for labelling: those reachable
    from its private fields.  The CI run of H^2(A5) at modulus 60 reads it."""
    seen = {}
    for name, value in vars(res).items():
        if name.startswith("_"):
            _arrays(value, seen)
    return sum(a.nbytes for a in seen.values())


def test_labeller_holds_no_square_transform():
    # S4 at m = 2: the labeller keeps the 24 pivot rows of the cocycle
    # solver's 529 x 529 U, not all of it (2.24 MB in int64)
    res = h2_classes(named_group("S4"), 2)
    assert 0 < labeller_bytes(res) < 0.5 * 2**20


def test_coboundary_witness_found_and_verified():
    G = named_group("D4")
    eta = h2_classes(G, 8)[1]
    shift = coboundary(G, [0, 3, 1, 4, 1, 5, 0, 2], 8)
    phi = coboundary_witness(eta, eta + shift)
    assert phi is not None
    assert coboundary(G, phi, 8) == shift


def test_coboundary_witness_rejects_a_wrong_solution(monkeypatch):
    import brpic.cohom as cohom

    G = named_group("D4")
    eta = h2_classes(G, 8)[1]
    shift = coboundary(G, [0, 3, 1, 4, 1, 5, 0, 2], 8)
    solve = cohom.solve_mod

    def wrong(A, b, m):
        x = solve(A, b, m)
        x[0] = (x[0] + 1) % m
        return x

    monkeypatch.setattr(cohom, "solve_mod", wrong)
    with pytest.raises(CertificationError, match="coboundary witness"):
        coboundary_witness(eta, eta + shift)


def test_coboundary_witness_none_between_distinct_classes():
    G = named_group("Z/2^2")
    res = h2_classes(G, 2)
    assert coboundary_witness(res[0], res[1]) is None


# ---------------------------------------------------------------------------
# exhaustive oracle: all cocycles of tiny groups, classified by brute force
# ---------------------------------------------------------------------------

def _all_cocycles(G, m):
    """Every normalized mu_m-valued cocycle, by direct enumeration."""
    n = G.n
    e = G.identity
    free = [(a, b) for a in range(n) for b in range(n) if a != e and b != e]
    out = set()
    for combo in itertools.product(range(m), repeat=len(free)):
        v = np.zeros((n, n), dtype=np.int64)
        for (a, b), val in zip(free, combo):
            v[a, b] = val
        ok = True
        for a in range(n):
            for b in range(n):
                ab = G.table[a, b]
                for c in range(n):
                    if (v[a, b] + v[ab, c] - v[b, c] - v[a, G.table[b, c]]) % m:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(v.tobytes())
    return out


def _trivializing_span(G, m):
    """Subgroup generated by coboundaries and character-root obstructions."""
    n, e = G.n, G.identity
    E = G.exponent()
    nz = [g for g in range(n) if g != e]
    gens = []
    for phi in itertools.product(range(m), repeat=n - 1):
        full = np.zeros(n, dtype=np.int64)
        full[nz] = phi
        gens.append(coboundary(G, full, m).values)
    for h in itertools.product(range(E), repeat=n - 1):
        full = np.zeros(n, dtype=np.int64)
        full[nz] = h
        raw = full[:, None] + full[None, :] - full[G.table]
        if np.any(raw % E):
            continue                      # not a homomorphism G -> Z/E
        gens.append((raw // E) % m)
    span = {np.zeros((n, n), dtype=np.int64).tobytes()}
    frontier = list(span)
    while frontier:
        cur = np.frombuffer(frontier.pop(), dtype=np.int64).reshape(n, n)
        for g in gens:
            nxt = ((cur + g) % m).tobytes()
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


@pytest.mark.parametrize("name,m,expected", [("Z/2^2", 2, 2), ("Z/4", 2, 1)])
def test_h2_against_exhaustive_enumeration(name, m, expected):
    G = named_group(name)
    Z = _all_cocycles(G, m)
    B = _trivializing_span(G, m)
    assert B <= Z
    assert len(Z) % len(B) == 0
    assert len(Z) // len(B) == expected
    res = h2_classes(G, m)
    assert len(res) == expected
    # representatives are genuine cocycles hitting pairwise-distinct cosets
    cosets = []
    for rep in res:
        assert rep.values.tobytes() in Z
        coset = frozenset(
            ((rep.values + np.frombuffer(b, dtype=np.int64).reshape(G.n, G.n))
             % m).tobytes()
            for b in B
        )
        assert coset not in cosets
        cosets.append(coset)
    covered = set().union(*cosets)
    assert covered == Z                             # cosets exhaust Z


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_antisymmetrize_zero_for_abelian_trivial_class():
    G = named_group("Z/4")
    eta = h2_classes(G, 4)[0]
    p = antisymmetrize(eta, G.full_subgroup())
    assert not p.values.any()
    assert not is_nondegenerate(p)


def test_antisymmetrize_nondegenerate_class_on_klein():
    G = named_group("Z/2^2")
    eta = h2_classes(G, 2)[1]
    p = antisymmetrize(eta, G.full_subgroup())
    assert is_nondegenerate(p)
    # any two distinct non-identity elements pair to the half-turn value
    e = G.identity
    for a in range(4):
        for b in range(4):
            want = 1 if a != b and a != e and b != e else 0
            assert p.values[a, b] == want


def test_antisymmetrize_coboundary_invariance_exhaustive():
    G = named_group("Z/2^2")
    S = G.full_subgroup()
    eta = h2_classes(G, 2)[1]
    base = antisymmetrize(eta, S)
    for phi in itertools.product(range(2), repeat=3):
        shifted = eta + coboundary(G, (0,) + phi, 2)
        assert antisymmetrize(shifted, S) == base


def test_antisymmetrize_rejects_nonabelian():
    G = named_group("S3")
    eta = h2_classes(G, 6)[0]
    with pytest.raises(NotAbelian):
        antisymmetrize(eta, G.full_subgroup())


def test_pairing_rejects_non_bimultiplicative():
    G = named_group("Z/2^2")
    bad = np.zeros((4, 4), dtype=int)
    bad[1, 1] = 1
    with pytest.raises(BrpicError):
        Pairing(G.full_subgroup(), 2, bad)


@pytest.mark.parametrize("m", [0, -2, -3])
def test_pairing_modulus_below_one_is_refused(m):
    G = named_group("Z/2^2")
    with pytest.raises(ValueError, match=f"modulus m = {m} must be at least 1"):
        Pairing(G.full_subgroup(), m, np.zeros((4, 4), dtype=int))


def test_dual_element_bijection_on_klein():
    G = named_group("Z/2^2")
    p = antisymmetrize(h2_classes(G, 2)[1], G.full_subgroup())
    table = character_table(G)
    duals = [dual_element(p, ch) for ch in table]
    assert sorted(duals) == [0, 1, 2, 3]
    assert duals[0] == G.identity              # trivial character -> identity
    # round-trip: the character cut out by column s maps back to s
    _, elems = G.full_subgroup().as_group()
    for s_pos, s in enumerate(elems):
        matches = [
            ch for ch in table
            if all(
                ch.value_at_element(elems[r])
                == root_of_unity(2, int(p.values[r, s_pos]))
                for r in range(4)
            )
        ]
        assert len(matches) == 1
        assert dual_element(p, matches[0]) == s


def test_dual_element_degenerate():
    G = named_group("Z/2^2")
    p = antisymmetrize(h2_classes(G, 2)[0], G.full_subgroup())
    with pytest.raises(Degenerate):
        dual_element(p, character_table(G)[0])


def test_dual_element_wrong_character_order():
    G = named_group("Z/2^2")
    p = antisymmetrize(h2_classes(G, 2)[1], G.full_subgroup())
    foreign = [
        ch for ch in character_table(named_group("Z/4"))
        if any(v.as_root_of_unity()[0] == 4 for v in ch.values)
    ][0]
    with pytest.raises(NoSuchElement):
        dual_element(p, foreign)


def test_dual_element_of_a_nonlinear_character():
    # S3's degree-2 character takes the value 2, which is no root of unity
    G = named_group("Z/2^2")
    p = antisymmetrize(h2_classes(G, 2)[1], G.full_subgroup())
    chi = next(ch for ch in character_table(named_group("S3")) if ch.degree == 2)
    with pytest.raises(NoSuchElement, match="value 2 is not a root of unity"):
        dual_element(p, chi)


def test_pairing_orthogonality_identity():
    """sum over s' s'' = s of <x,s'><y,s''> equals |S| delta_xy <x,s>."""
    G = named_group("Z/2^2")
    p = antisymmetrize(h2_classes(G, 2)[1], G.full_subgroup())
    n = 4
    for x in range(n):
        for y in range(n):
            for s in range(n):
                total = zero()
                for s1 in range(n):
                    s2 = G.mul(G.inv_of(s1), s)
                    total = total + (
                        root_of_unity(2, int(p.values[x, s1]))
                        * root_of_unity(2, int(p.values[y, s2]))
                    )
                want = (
                    root_of_unity(2, int(p.values[x, s])) * n
                    if x == y else zero()
                )
                assert total == want


# ---------------------------------------------------------------------------
# laziness
# ---------------------------------------------------------------------------

def test_central_subgroup_always_lazy():
    G = named_group("Q8")
    Z = G.subgroup(G.center_elements())
    Zgrp, _ = Z.as_group()
    eta = h2_classes(Zgrp, 2)[0]
    assert is_lazy(eta, G, Z)
    assert lazy_representative(eta, G, Z) is not None


def test_klein_in_s4_nondegenerate_class_not_lazy():
    G = named_group("S4")
    K = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    Kgrp, _ = K.as_group()
    res = h2_classes(Kgrp, 2)
    assert lazy_representative(res[0], G, K) is not None
    assert not is_lazy(res[1], G, K)
    assert lazy_representative(res[1], G, K) is None


def test_laziness_needs_a_normal_subgroup_of_the_given_group():
    G = named_group("A4")
    K = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    eta = h2_classes(K.as_group()[0], 2)[1]
    assert not is_lazy(eta, G, K)
    for check in (is_lazy, lazy_representative):
        # Z/12 has A4's order, so its generators would index K's table
        with pytest.raises(NotASubgroup):
            check(eta, named_group("Z/12"), K)
    H = G.subgroup([G.identity, 3])
    with pytest.raises(NotNormal):
        is_lazy(h2_classes(H.as_group()[0], 2)[0], G, H)


def test_lazy_representative_matches_exhaustive_shift_search():
    """Dual route: check all coboundary shifts directly, all conjugators."""
    G = named_group("S4")
    K = [s for s in abelian_normal_subgroups(G) if s.order == 4][0]
    Kgrp, elems = K.as_group()
    pos = {e: i for i, e in enumerate(elems)}
    for rep in h2_classes(Kgrp, 2):
        found = None
        for phi in itertools.product(range(2), repeat=3):
            cand = rep + coboundary(Kgrp, (0,) + phi, 2)
            invariant = True
            for g in range(G.n):
                ginv = G.inv_of(g)
                q = [pos[G.conj(s, ginv)] for s in elems]
                if not np.array_equal(cand.values[np.ix_(q, q)], cand.values):
                    invariant = False
                    break
            if invariant:
                found = cand
                break
        got = lazy_representative(rep, G, K)
        assert (got is None) == (found is None)
        if got is not None:
            assert is_lazy(got, G, K)
            assert coboundary_witness(rep, got) is not None


# ---------------------------------------------------------------------------
# the dual-side cocycle table
# ---------------------------------------------------------------------------

def test_sigma_trivial_subgroup_is_delta():
    G = named_group("S3")
    triv = G.trivial_subgroup()
    tg, _ = triv.as_group()
    eta = Cocycle2(tg, 6, np.zeros((1, 1), dtype=int), check=False)
    sigma = sigma_from_eta(triv, eta)
    for a in range(G.n):
        for b in range(G.n):
            want = one() if a == b == G.identity else zero()
            assert sigma[a, b] == want


def test_sigma_z2_degenerate_reduction():
    # forced trivial cocycle on Z/2: every entry over SxS is exactly 1
    G = named_group("Z/2")
    S = G.full_subgroup()
    eta = h2_classes(G, 2)[0]
    sigma = sigma_from_eta(S, eta, check_nondegenerate=False)
    for a in range(2):
        for b in range(2):
            assert sigma[a, b] == one()
    with pytest.raises(Degenerate):
        sigma_from_eta(S, eta)


def test_sigma_nondegenerate_klein_column_sums():
    # summing sigma(e_a, e_b) over a collapses the t-average to t = e,
    # leaving the plain character sum: 1 at b = e and 0 elsewhere
    G = named_group("Z/2^2")
    S = G.full_subgroup()
    eta = h2_classes(G, 2)[1]
    sigma = sigma_from_eta(S, eta)
    for b in range(4):
        total = zero()
        for a in range(4):
            total = total + sigma[a, b]
        assert total == (one() if b == G.identity else zero())


# ---------------------------------------------------------------------------
# mod-m diagonalization against the integer Smith form (dual route)
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=3, max_size=3,
    ),
    st.sampled_from([2, 4, 6, 8, 12, 24]),
)
def test_quotient_structure_matches_integer_smith_form(rows, m):
    """coker(A) tensor Z/m computed two independent ways."""
    A = np.array(rows, dtype=np.int64)
    r = A.shape[0]
    # route 1: integer Smith form of [A | mI] (quotient by columns + mZ^r)
    ext = np.concatenate([A, m * np.eye(r, dtype=np.int64)], axis=1)
    D, _, _ = smith_normal_form(ext)
    chain1 = elementary_divisor_chain([int(D[i][i]) for i in range(r)])
    # route 2: mod-m diagonalization of A itself
    Dm, _ = diagonalize_mod(A, m)
    gs = []
    for i in range(r):
        d = int(Dm[i, i]) if i < min(Dm.shape) else 0
        gs.append(gcd(d, m) if d else m)
    chain2 = elementary_divisor_chain(gs)
    assert chain1 == chain2
