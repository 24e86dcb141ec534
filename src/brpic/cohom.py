"""2-cocycles valued in roots of unity, their classes, pairings, laziness.

Values live in mu_m written additively as Z/m.  ``h2_classes`` computes one
representative per class of the image of H^2(G, mu_m) inside H^2(G, C*):
cocycles modulo coboundaries *and* modulo the connecting images of linear
characters (the part of H^2(G, mu_m) that dies once mu_m sits inside the
divisible group C*).  With m = |G| that image is the whole Schur multiplier,
so the class count matches the classical tables.

The identity is element 0, so the unknowns eta(a, b), a, b != 1, of every
system here are the ``[1:, 1:]`` block of a value table, row-major: unknown
(a, b) is (a-1)(n-1) + (b-1).  Those of a cochain phi are ``phi[1:]``.

Everything is exact linear algebra over Z/m; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .cyclo import CycloArray, zero
from .errors import (
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
from .groups import FiniteGroup, Subgroup
from .zmodlin import (
    DiagonalizedSystem,
    _PivotSolver,
    _check_modulus,
    _diagonalize,
    _echelon_rows,
    _factorize,
    _kernel_columns,
    _mod_dtype,
    _nullspace,
    _select_spanning_rows,
    diagonalize_mod,
    elementary_divisor_chain,
    nullspace_mod,
    solve_mod,
)

__all__ = [
    "Cocycle2",
    "coboundary",
    "h2_classes",
    "H2Classes",
    "coboundary_witness",
    "Pairing",
    "antisymmetrize",
    "is_nondegenerate",
    "dual_element",
    "is_lazy",
    "lazy_representative",
    "sigma_from_eta",
]

# ceiling on the entries (rows x cols) of the generator-row cocycle system,
# |gens| (n-1)^2 x (n-1)^2, that the class computation builds; it counts
# entries, not bytes (each entry takes the bytes of zmodlin._mod_dtype(m))
H2_ENTRY_BUDGET = 100_000_000
# ceiling on the number of class representatives enumerated
H2_CLASS_BUDGET = 4096


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

class Cocycle2:
    """A normalized 2-cocycle: values in Z/m with the standard identity.

    eta(a,b) + eta(ab,c) = eta(b,c) + eta(a,bc) for all triples, and
    eta(1,.) = eta(.,1) = 0.  Construction normalizes (subtracts the
    constant eta(1,1)) and verifies the identity, naming a witness triple
    on failure.
    """

    __slots__ = ("group", "m", "values")

    def __init__(self, group: FiniteGroup, m: int, values, check: bool = True):
        _check_modulus(m, 0)        # sums only: no product can overflow
        v = np.asarray(values, dtype=np.int64) % m
        if v.shape != (group.n, group.n):
            raise NotACocycle(f"value table must be {group.n}x{group.n}")
        v = (v - v[0, 0]) % m                  # the identity is element 0
        if check:
            tbl = group.table
            t1 = v[:, :, None] + v[tbl, :]       # eta(a,b) + eta(ab,c)
            t2 = v[None, :, :] + v[:, tbl]       # eta(b,c) + eta(a,bc)
            bad = np.argwhere((t1 - t2) % m != 0)
            if bad.size:
                a, b, c = (int(x) for x in bad[0])
                raise NotACocycle(
                    f"cocycle identity fails at ({group.names[a]}, "
                    f"{group.names[b]}, {group.names[c]})"
                )
            if v[0].any() or v[:, 0].any():
                raise NotACocycle("table cannot be normalized")
        self.group = group
        self.m = m
        self.values = v
        self.values.setflags(write=False)

    # -- algebra ------------------------------------------------------------
    def _like(self, other: "Cocycle2"):
        if self.group != other.group or self.m != other.m:
            raise ValueError("cocycles on different groups or moduli")

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        self._like(other)
        return Cocycle2(self.group, self.m, (self.values + other.values) % self.m,
                        check=False)

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        self._like(other)
        return Cocycle2(self.group, self.m, (self.values - other.values) % self.m,
                        check=False)

    def __neg__(self) -> "Cocycle2":
        return Cocycle2(self.group, self.m, (-self.values) % self.m, check=False)

    def is_trivial(self) -> bool:
        return not self.values.any()

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and self.group == other.group
            and self.m == other.m
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.m, self.values.tobytes()))

    def __repr__(self):
        tag = "trivial" if self.is_trivial() else "nontrivial"
        return f"Cocycle2({self.group.name}, m={self.m}, {tag})"

    # -- transport ----------------------------------------------------------
    def restrict(self, S: Subgroup) -> "Cocycle2":
        """The same cocycle on a subgroup, as a cocycle of S's own group."""
        if S.parent != self.group:
            raise ValueError("subgroup of a different group")
        Sgrp, elems = S.as_group()
        idx = np.asarray(elems, dtype=np.int64)
        return Cocycle2(Sgrp, self.m, self.values[np.ix_(idx, idx)], check=False)

    def to_json(self):
        return {"m": self.m, "values": self.values.tolist()}


def coboundary(G: FiniteGroup, phi, m: int) -> Cocycle2:
    """d(phi)(a,b) = phi(a) + phi(b) - phi(ab) as a normalized cocycle."""
    _check_modulus(m, 0)
    p = np.asarray(phi, dtype=np.int64) % m
    vals = (p[:, None] + p[None, :] - p[G.table]) % m
    return Cocycle2(G, m, vals, check=False)


# ---------------------------------------------------------------------------
# the class computation
# ---------------------------------------------------------------------------

def _cocycle_equations(G: FiniteGroup, m: int) -> np.ndarray:
    """Dense matrix of the cocycle identity over the (n-1)^2 unknowns.

    One row F(s, b, c) = 0 per s in ``G.minimal_generators()`` and b, c != 1,
    where F(a, b, c) = eta(a,b) + eta(ab,c) - eta(b,c) - eta(a,bc).  These
    |gens| (n-1)^2 rows span the same row module as all (n-1)^3 of them:
    F = delta(eta) is the coboundary of a 2-cochain, so delta(F) = 0, i.e.

        F(ab, c, d) = F(b, c, d) + F(a, bc, d) - F(a, b, cd) + F(a, b, c).

    Suppose F vanishes whenever its first argument is a generator.  Write
    any first argument as a word s x with s a generator and x shorter; with
    a = s and b = x, the identity gives F(sx, c, d) as F(x, c, d), zero by
    induction on word length, plus three terms with first argument s, zero
    by assumption.  F vanishes whenever an argument is 1 (eta is
    normalized), so rows with an identity argument are left out.  The rows
    come in the order of the full system, restricted to generator first
    arguments (the generators are ascending).  The matrix is built in
    ``_mod_dtype(m)`` from its at most four nonzero terms per row, with no
    wider copy.
    """
    n = G.n
    nz = np.arange(1, n)
    w = n - 1
    N = w * w
    gens = np.asarray(G.minimal_generators(), dtype=np.int64)
    a, b, c = np.meshgrid(gens, nz, nz, indexing="ij")
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    E = a.size
    if E * N > H2_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"cocycle system {E}x{N} = {E * N} entries exceeds"
            f" H2_ENTRY_BUDGET = {H2_ENTRY_BUDGET}"
        )
    rows = np.arange(E) * N
    ab = G.table[a, b]
    bc = G.table[b, c]
    k1, k2 = ab > 0, bc > 0                 # products off the identity
    # flat positions of the terms +eta(a,b) +eta(ab,c) -eta(b,c) -eta(a,bc);
    # a position may take two terms
    at = np.concatenate([
        rows + (a - 1) * w + b - 1,
        rows[k1] + (ab[k1] - 1) * w + c[k1] - 1,
        rows + (b - 1) * w + c - 1,
        rows[k2] + (a[k2] - 1) * w + bc[k2] - 1,
    ])
    sign = np.repeat([1, 1, -1, -1], [E, k1.sum(), E, k2.sum()])
    at, term = np.unique(at, return_inverse=True)
    coef = np.zeros(at.size, dtype=np.int64)
    np.add.at(coef, term, sign)
    A = np.zeros((E, N), dtype=_mod_dtype(m))
    A.reshape(-1)[at] = coef % m
    return A


def _coboundary_rows(G: FiniteGroup) -> np.ndarray:
    """Integer matrix of phi -> d(phi) on the nontrivial elements: row (a, b),
    a-major over a, b != 1, holds phi(a) + phi(b) - phi(ab)."""
    nz = np.arange(1, G.n)
    a, b = np.meshgrid(nz, nz, indexing="ij")
    a, b = a.ravel(), b.ravel()
    rows = np.arange(a.size)
    R = np.zeros((a.size, nz.size), dtype=np.int64)
    np.add.at(R, (rows, a - 1), 1)
    np.add.at(R, (rows, b - 1), 1)
    ab = G.table[a, b]
    keep = ab > 0
    np.add.at(R, (rows[keep], ab[keep] - 1), -1)
    return R


def _hom_generators(G: FiniteGroup) -> list[np.ndarray]:
    """Generators of Hom(G, Z/e), e = exp(G), as value vectors on G."""
    e = G.exponent()
    basis = nullspace_mod(_coboundary_rows(G) % e, e)
    h = np.zeros((basis.shape[1], G.n), dtype=np.int64)
    h[:, 1:] = basis.T % e
    return list(h)


def _carry_cocycle(G: FiniteGroup, h: np.ndarray, m: int) -> np.ndarray:
    """Connecting image of a linear character given by exponents h over Z/e.

    h(a)+h(b)-h(ab) is divisible by e = exp(G); the integer quotient (the
    "carry") is a mu_m-valued 2-cocycle representing the obstruction to
    taking an m-th root of the character inside mu_m.
    """
    e = G.exponent()
    lift = h % e
    raw = lift[:, None] + lift[None, :] - lift[G.table]
    if np.any(raw % e):
        raise BrpicError("character exponents are not a homomorphism")
    return (raw // e) % m


@dataclass(eq=False)
class H2Classes:
    """Representatives of H^2(G, mu_m) -> H^2(G, C*), plus classification.

    A cocycle's label is read off its coordinates y in the cocycle basis
    Z (the columns ``zbasis``), solved from Z y = eta over Z/m: w = U' y,
    reduced mod g at each position of the class-group diagonalization
    U' Q V' = D' with g = gcd(d', m) > 1.  The labeller keeps only what
    that reads: the ``_PivotSolver`` of Z, which takes y off the k pivot
    rows of Z's transform U (k = the columns of Z, not its (n-1)^2 rows)
    and checks membership by substitution, Z y = eta (see ``zmodlin``;
    a table that no y solves is no cocycle), and the rows of U' at the
    positions with g > 1, with their moduli.
    """

    group: FiniteGroup
    m: int
    representatives: list[Cocycle2]
    elementary_divisors: tuple[int, ...]
    _solver: _PivotSolver | None = field(default=None, repr=False)
    _urows: np.ndarray | None = field(default=None, repr=False)
    _moduli: np.ndarray | None = field(default=None, repr=False)
    _label_index: dict = field(default_factory=lambda: {(): 0}, repr=False)

    def __len__(self):
        return len(self.representatives)

    def __iter__(self):
        return iter(self.representatives)

    def __getitem__(self, i) -> Cocycle2:
        return self.representatives[i]

    def _label(self, eta: Cocycle2) -> tuple[int, ...]:
        if eta.group != self.group or eta.m != self.m:
            raise ValueError("cocycle on a different group or modulus")
        v = eta.values
        if v[0].any() or v[:, 0].any():
            raise NotACocycle("value table is not normalized: the identity's"
                              " row or column is nonzero")
        if self._solver is None:       # trivial group
            return ()
        y = self._solver.solve(v[1:, 1:].ravel())
        if y is None:
            raise NotACocycle("value table solves no cocycle system")
        return tuple((self._urows @ y % self.m % self._moduli).tolist())

    def class_index(self, eta: Cocycle2) -> int:
        """Which representative's class a cocycle belongs to."""
        return self._label_index[self._label(eta)]


def _cocycle_basis(G: FiniteGroup, m: int) -> np.ndarray:
    """int64 columns generating the cocycle module in the (n-1)^2 unknowns:
    the kernel of the rows spanning the cocycle system mod each p^k || m,
    after their echelon.  The system, the chosen rows, their echelon form
    and its diagonalization stay in ``_mod_dtype(m)``; the system is freed
    on return, before any solver is built."""
    A = _cocycle_equations(G, m)
    chosen: set[int] = set()
    for p, k in _factorize(m):
        chosen.update(_select_spanning_rows(A, p, k))
    small = _echelon_rows(A[sorted(chosen)], m)
    if not small.shape[0]:
        return np.eye(A.shape[1], dtype=np.int64)
    return _nullspace(small, m)


def h2_classes(G: FiniteGroup, m: int | None = None) -> H2Classes:
    """One normalized representative per class, trivial class first.

    The underlying group of classes is reported through
    ``elementary_divisors`` (empty for a trivial class group).
    """
    if m is None:
        m = G.n
    _check_modulus(m, G.n ** 2)     # every sum below has at most n^2 terms
    key = ("h2", m)
    if key in G._memo:
        return G._memo[key]
    n = G.n
    if n == 1:
        res = H2Classes(G, m, [Cocycle2(G, m, np.zeros((1, 1)), check=False)], ())
        G._memo[key] = res
        return res

    # the solver widens only the k pivot rows of Z's narrow transform U
    zbasis = _cocycle_basis(G, m)
    zsolver = _PivotSolver(zbasis, *_diagonalize(zbasis, m), m)

    # coboundary + connecting-image generators, in cocycle coordinates: the
    # coboundary of the indicator of x is column x of the coboundary rows
    span_vecs = list((_coboundary_rows(G) % m).T)
    for h in _hom_generators(G):
        span_vecs.append(_carry_cocycle(G, h, m)[1:, 1:].ravel())

    # express the spanning vectors in z-coordinates, add the coordinate
    # redundancy of the parametrization, and diagonalize the joint span
    coords = []
    for vec in span_vecs:
        y = zsolver.solve(vec)
        if y is None:
            raise BrpicError("coboundary escaped the cocycle module")
        coords.append(y)
    redundancy = _kernel_columns(zsolver.V, zsolver.mg, m)
    k = zbasis.shape[1]
    Q = np.concatenate(
        [np.stack(coords, axis=1)] + ([redundancy] if redundancy.size else []),
        axis=1,
    ) if coords else redundancy.reshape(k, -1)
    D, T = diagonalize_mod(Q, m)
    gvec = np.gcd(np.pad(np.diagonal(D), (0, k - min(D.shape))), m)
    count = prod(gvec.tolist())
    if count > H2_CLASS_BUDGET:
        raise BudgetExceeded(
            f"{count} classes exceed H2_CLASS_BUDGET = {H2_CLASS_BUDGET}"
        )

    # a label w (lexicographic over Z/g at each position with g > 1) has the
    # representative zbasis U^-1 w; U is invertible mod m, so column i of
    # U^-1 is the unique solution of U x = e_i
    positions = np.flatnonzero(gvec > 1)
    usolver = DiagonalizedSystem(T.U, m)
    cols = np.array(
        [usolver.solve(np.arange(k) == i) for i in positions], dtype=np.int64
    ).reshape(positions.size, k)
    labels = list(itertools.product(*map(range, gvec[positions].tolist())))
    y = np.array(labels, dtype=np.int64, ndmin=2) @ cols % m
    tables = np.zeros((len(labels), n, n), dtype=np.int64)
    tables[:, 1:, 1:] = (zbasis @ y.T % m).T.reshape(-1, n - 1, n - 1)
    reps = [Cocycle2(G, m, t) for t in tables]      # checked at construction
    label_index = {lab: j for j, lab in enumerate(labels)}
    divisors = elementary_divisor_chain(gvec[positions].tolist())
    res = H2Classes(
        G, m, reps, divisors,
        _solver=zsolver, _urows=T.U[positions],
        _moduli=gvec[positions], _label_index=label_index,
    )
    G._memo[key] = res
    return res


def coboundary_witness(e1: Cocycle2, e2: Cocycle2):
    """phi with e2 - e1 = d(phi), as a length-|G| array, or None.

    This is strict cohomology over mu_m (no connecting images), the
    equivalence under which pairings and autoequivalence constructions are
    invariant.
    """
    e1._like(e2)
    G, m = e1.group, e1.m
    diff = (e2.values - e1.values) % m
    sol = solve_mod(_coboundary_rows(G) % m, diff[1:, 1:].ravel(), m)
    if sol is None:
        return None
    phi = np.zeros(G.n, dtype=np.int64)
    phi[1:] = sol
    if coboundary(G, phi, m) != (e2 - e1):
        raise CertificationError(
            "coboundary witness: the solved phi does not satisfy"
            " delta(phi) = e2 - e1"
        )
    return phi


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

class Pairing:
    """A bimultiplicative Z/m-valued pairing on an abelian subgroup.

    ``values[i, j]`` pairs the i-th and j-th elements of ``subgroup``'s own
    group (element order inherited from the parent).  Bimultiplicativity is
    verified exhaustively at construction.
    """

    __slots__ = ("subgroup", "m", "values")

    def __init__(self, subgroup: Subgroup, m: int, values):
        _check_modulus(m, 0)
        if not subgroup.is_abelian():
            raise NotAbelian(f"{subgroup!r} is not abelian")
        Sgrp, _ = subgroup.as_group()
        V = np.asarray(values, dtype=np.int64) % m
        if V.shape != (Sgrp.n, Sgrp.n):
            raise ValueError(f"pairing table must be {Sgrp.n}x{Sgrp.n}")
        tbl = Sgrp.table
        left = (V[tbl, :] - V[:, None, :] - V[None, :, :]) % m
        right = (V[:, tbl] - V[:, :, None] - V[:, None, :]) % m
        if left.any() or right.any():
            raise BrpicError("pairing is not bimultiplicative")
        self.subgroup = subgroup
        self.m = m
        self.values = V
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Pairing)
            and self.subgroup == other.subgroup
            and self.m == other.m
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.m, self.values.tobytes()))

    def __repr__(self):
        return f"Pairing(|S|={self.size}, m={self.m})"


def antisymmetrize(eta: Cocycle2, S: Subgroup) -> Pairing:
    """<a, b> = eta(a,b) - eta(b,a) on an abelian subgroup."""
    if not S.is_abelian():
        raise NotAbelian(f"{S!r} is not abelian")
    Sgrp, _ = S.as_group()
    if eta.group == S.parent:
        R = eta.restrict(S).values
    elif eta.group == Sgrp:
        R = eta.values
    else:
        raise ValueError("cocycle lives on neither the parent nor the subgroup")
    return Pairing(S, eta.m, (R - R.T) % eta.m)


def is_nondegenerate(pairing: Pairing) -> bool:
    """True iff a -> <a, .> has trivial kernel: every row but row 0, the
    identity's, is nonzero."""
    return bool(pairing.values[1:].any(axis=1).all())


def dual_element(pairing: Pairing, linear_char) -> int:
    """The unique s in S with chi(r) = zeta_m^<r, s> for all r.

    ``linear_char`` is a degree-1 character of the subgroup's own group;
    the returned value is a parent-group element index.
    """
    if not is_nondegenerate(pairing):
        raise Degenerate("dual elements need a nondegenerate pairing")
    S, m = pairing.subgroup, pairing.m
    _, elems = S.as_group()
    target = []
    for val in linear_char.values:
        root = val.as_root_of_unity()
        if root is None:
            raise NoSuchElement(f"character value {val!r} is not a root of unity")
        order, k = root
        if m % order:
            raise NoSuchElement(
                f"character order {order} does not divide the modulus {m}"
            )
        target.append(k * (m // order) % m)
    target = np.asarray(target, dtype=np.int64)
    hits = [
        j for j in range(pairing.size)
        if np.array_equal(pairing.values[:, j] % m, target)
    ]
    if not hits:
        raise NoSuchElement("character is not in the image of the pairing")
    if len(hits) > 1:
        raise CertificationError(
            f"dual element: {len(hits)} elements realize the character under"
            " a nondegenerate pairing"
        )
    return elems[hits[0]]


# ---------------------------------------------------------------------------
# laziness
# ---------------------------------------------------------------------------

def _check_lazy_input(eta: Cocycle2, G: FiniteGroup, S: Subgroup) -> None:
    if eta.group != S.as_group()[0]:
        raise ValueError("cocycle must live on the subgroup's own group")
    if S.parent != G:
        raise NotASubgroup(f"{S!r} is not a subgroup of {G.name}")
    if not S.is_normal():
        raise NotNormal(f"{S!r} is not normal")


def is_lazy(eta: Cocycle2, G: FiniteGroup, S: Subgroup) -> bool:
    """Whether eta on S is invariant (as a cochain) under G-conjugation:
    row g^-1 of S's conjugation table, s -> g^-1 s g, fixes it for each
    generator g of G."""
    _check_lazy_input(eta, G, S)
    for g in G.minimal_generators():
        q = S.conjugation()[G.inv[g]]
        if not np.array_equal(eta.values[np.ix_(q, q)], eta.values):
            return False
    return True


def lazy_representative(eta: Cocycle2, G: FiniteGroup, S: Subgroup):
    """An invariant cocycle in eta's coboundary orbit on S, or None.

    Solves, over phi: S -> Z/m, the linear system requiring
    eta(g^-1 . g, g^-1 . g) - eta = d(phi - phi(g^-1 . g)) for each
    generator g of G; solvability is exactly the existence of a lazy
    representative, so None is a certificate of non-laziness for the class.
    With R = ``_coboundary_rows`` (rows (a, b), columns the nontrivial
    elements) and q the positions of s -> g^-1 s g, the block of g is
    R - R o q: R with its columns permuted by q, subtracted from R.
    """
    _check_lazy_input(eta, G, S)
    Sgrp, _ = S.as_group()
    m = eta.m
    gens = G.minimal_generators()
    if Sgrp.n == 1 or not gens:
        return eta
    R = _coboundary_rows(Sgrp)
    blocks, rhs = [], []
    for g in gens:
        q = S.conjugation()[G.inv[g]]
        blocks.append((R - R[:, np.argsort(q[1:])]) % m)
        diff = (eta.values[np.ix_(q, q)] - eta.values) % m
        rhs.append(diff[1:, 1:].ravel())
    sol = solve_mod(np.vstack(blocks), np.concatenate(rhs), m)
    if sol is None:
        return None
    phi = np.zeros(Sgrp.n, dtype=np.int64)
    phi[1:] = sol
    fixed = eta + coboundary(Sgrp, phi, m)
    if not is_lazy(fixed, G, S):
        raise CertificationError(
            "lazy representative: the corrected cocycle is not invariant"
            " under conjugation"
        )
    return fixed


# ---------------------------------------------------------------------------
# the dual-side cocycle
# ---------------------------------------------------------------------------

def sigma_from_eta(S: Subgroup, eta: Cocycle2, *,
                   check_nondegenerate: bool = True) -> np.ndarray:
    """The dual cocycle table sigma(e_a, e_b) over parent-element pairs.

    sigma(e_a, e_b) = [a, b in S] / |S|^2 * sum over (t, t') in S^2 of
    zeta^(eta(t,t') + <t,a> + <t',b>), returned as a |G| x |G| object array
    of exact cyclotomic numbers: the terms are counted per exponent, and
    ``CycloArray.from_roots`` builds the sums, decoded once.  The
    antisymmetrization pairing of eta is required to be nondegenerate unless
    explicitly waived (degenerate input raises Degenerate).
    """
    G = S.parent
    pairing = antisymmetrize(eta, S)
    if check_nondegenerate and not is_nondegenerate(pairing):
        raise Degenerate("dual cocycle needs a nondegenerate pairing")
    _, elems = S.as_group()
    m = eta.m
    if eta.group == G:
        table = eta.restrict(S).values
    else:
        table = eta.values
    ns = len(elems)
    # counts[a, b, k] = #{(t, t') : eta(t, t') + <t, a> + <t', b> = k mod m}
    P = pairing.values
    counts = np.zeros((ns, ns, m), dtype=np.int64)
    offset = np.arange(ns)[:, None, None] * m
    for a in range(ns):
        expo = (table + P[:, a][:, None] + P.T[:, None, :]) % m   # [b, t, t']
        counts[a] = np.bincount((offset + expo).ravel(),
                                minlength=ns * m).reshape(ns, m)
    sigma = np.full((G.n, G.n), zero(), dtype=object)
    sigma[np.ix_(elems, elems)] = (
        CycloArray.from_roots(counts, m) / (ns * ns)).decode()
    return sigma
