"""Matrix model for braided symmetries of elementary abelian centers.

For ``G`` the elementary abelian group of order ``p**n`` the simple objects
of the center are labelled by pairs (grading, character), and those labels
form the vector space F_p^{2n}.  A braided symmetry whose object mapping is
additive on labels therefore acts by a matrix ``M``, and exactness of the
S/T equivariance translates into the form equation ``M^T J M = J`` for the
hyperbolic Gram matrix ``J = [[0, I], [I, 0]]`` pairing grading coordinates
with character coordinates.  This module makes that dictionary executable:

* :func:`hyperbolic_form` -- the Gram matrix ``J``.
* :func:`autoeq_to_matrix` / :func:`matrix_to_autoeq` -- exact translation
  between label-additive braided symmetries and form-preserving matrices.
  The labels are one int array per group, read off the exponent rows of
  its characters: a character's coordinates are its exponents at the
  generators, an element's are the exponents of the dual characters.
* :func:`subgroup_generators` -- block generators for the four structural
  families: block-diagonal GL_n embeddings ("V"), lower and upper unipotent
  blocks ("BV", "EV"), and the coordinate-pair swaps r_0, ..., r_n ("R").
* :func:`matrix_closure` -- the closure of a generator list by the one
  search of ``groups``: the orbit of the basis vectors, then
  ``groups._closure`` of their index rows on the base of the basis vectors
  (a matrix is its columns' indices in that orbit; no words are decoded),
  decoded once into a uint8 stack ``E [N, 2n, 2n]`` (p < 257), each an
  FpMatrix in :func:`generate_matrix_group`.
* :func:`matrix_group_order` and :func:`bruhat_census` -- the stabilizer
  chain of ``groups`` on the same orbit, with base e_1 ... e_2n: the order
  as the product of the orbit lengths (``fpn P N orders``), and the cells of
  every element once as a product of transversal elements read at the basis
  (``fpn P N bruhat --all``).  Both raise CapExceeded where the closure
  does; the chain as soon as its orbit lengths pass the cap, holding no
  more than its generators' rows and [orbit, 2n] per level.
* :func:`group_order_oracle` -- an independent count of all form-preserving
  matrices by constrained column extension, used to cross-check the order of
  the group generated by the four families.
* :func:`bruhat_factorize` -- the rank-indexed triangular factorization
  ``M = b @ e @ r`` exhibiting the n + 1 cell partition; ``_bruhat_stack``
  factors exactly the stack it is given, and one matrix is a stack of one.
* :func:`bruhat_cells` -- the cell index of every matrix of a stack, from
  ``_bruhat_stack`` one slice at a time, keeping no witnesses.

Conventions.  At odd ``p`` the form is the split (plus-type) symmetric form
and the matrix group is O_{2n}^+(F_p).  At ``p = 2`` the same equation is
read symplectically: the unipotent generator blocks run over a basis of all
symmetric matrices, not just alternating ones, and the matrix group is
Sp_{2n}(F_2).  The symplectic group is strictly larger than the group of
label-additive braided symmetries at ``p = 2``: matrices whose unipotent
part carries a nonzero diagonal preserve the bilinear form but not its
quadratic refinement, so they fail the twist check and
:func:`matrix_to_autoeq` raises :class:`~brpic.errors.NotBraided` for them.

The cell index of :func:`bruhat_factorize` is ``d = n - rank(X)`` where
``X`` is the upper-left ``n x n`` block; it is constant on cells because
left and right multiplication by triangular factors replaces ``X`` by
``P @ X @ R`` with ``P`` and ``R`` invertible.  The reflection factor
returned for a given element swaps a ``d``-subset of hyperbolic coordinate
pairs chosen so that the remaining block-LU step is closed-form; it lies in
the same cell as the standard ``r_d``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

import numpy as np

from .autoeq import BraidedAutoeq, Provenance
from .chars import _exponent_rows
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    NoFactorization,
    NotAdditive,
    NotFormPreserving,
    NotPrime,
)
from .groups import (
    CLOSURE_CAP,
    FiniteGroup,
    _CLOSURE_SLICE,
    _closure,
    _extend_frames,
    _is_int,
    _orbit,
    _stabilizer_chain,
    named_group,
)
from .zmodlin import _check_int64, _inv_mod_p, _is_prime, _primitive_root, _rref_mod_p

__all__ = [
    "FpMatrix",
    "BruhatCell",
    "hyperbolic_form",
    "autoeq_to_matrix",
    "matrix_to_autoeq",
    "subgroup_generators",
    "standard_generators",
    "matrix_closure",
    "generate_matrix_group",
    "matrix_group_order",
    "group_order_oracle",
    "bruhat_factorize",
    "bruhat_cells",
    "bruhat_census",
]

# Exhaustive-oracle feasibility bounds (matrix size 2n and prime p).
_ORACLE_MAX_SIZE = 4
_ORACLE_MAX_P = 5
_BRUHAT_SLICE = 1024   # matrices factored at once: 3.3 MB scratch at n = 2


def _check_prime(p: int) -> int:
    p = int(p)
    if p > 1:
        _check_int64(2, p)      # before any trial division: 2n >= 2
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


@lru_cache(maxsize=None)
def hyperbolic_form(p: int, n: int) -> np.ndarray:
    """The 2n x 2n Gram matrix [[0, I], [I, 0]] over F_p (read-only, cached).

    Grading coordinates occupy the first n slots, character coordinates the
    last n; the form pairs each grading coordinate with its dual.  Symmetric
    for odd p, symplectic (alternating with zero diagonal) for p = 2.
    """
    _check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    J[:n, n:] = np.eye(n, dtype=np.int64)
    J[n:, :n] = np.eye(n, dtype=np.int64)
    J.setflags(write=False)
    return J


# -- matrices over F_p -----------------------------------------------------


_INT64 = np.iinfo(np.int64)


def _int64_entry(x) -> bool:
    """A matrix entry: an int by ``groups._is_int``, in the int64 range."""
    return _is_int(x) and _INT64.min <= x <= _INT64.max


class FpMatrix:
    """An immutable square matrix over F_p of even size 2n.

    Supports ``@`` (product mod p), equality and hashing by entries, and the
    form-preservation test against :func:`hyperbolic_form`.
    """

    __slots__ = ("p", "entries", "_hash")

    def __init__(self, p: int, entries) -> None:
        _check_prime(p)
        ints = isinstance(entries, np.ndarray) and entries.dtype.kind in "iu"
        arr = entries if ints else np.array(entries, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must form a square matrix")
        if arr.shape[0] % 2 or arr.shape[0] == 0:
            raise ValueError("matrix size must be even and positive")
        # no cast of a float, bool or string: an integer array is checked
        # by its dtype (uint64 also by value), anything else entry by entry
        if not ints:
            bad = [k for k, x in enumerate(arr.ravel().tolist())
                   if not _int64_entry(x)]
        elif arr.dtype == np.uint64:
            bad = np.flatnonzero(arr > _INT64.max)
        else:
            bad = []
        if len(bad):
            i, j = divmod(int(bad[0]), arr.shape[1])
            raise ValueError(f"entry [{i}][{j}] is {arr[i, j]!r},"
                             " not an int64 integer")
        _check_int64(arr.shape[0], int(p))
        arr = arr.astype(np.int64)
        arr %= p
        arr.setflags(write=False)
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_hash", hash((int(p), arr.tobytes())))

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def from_json(cls, p: int, rows) -> "FpMatrix":
        """The matrix whose rows ``json.loads`` read; ValueError names the
        first entry that is not an int64 integer, as JSON text."""
        for i, row in enumerate(rows if isinstance(rows, list) else [rows]):
            for j, x in enumerate(row if isinstance(row, list) else [row]):
                if not _int64_entry(x):
                    raise ValueError(f"entry [{i}][{j}] is {json.dumps(x)},"
                                     " not an int64 integer")
        return cls(p, np.array(rows, dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(2 * n, dtype=np.int64))

    @property
    def size(self) -> int:
        """Matrix size 2n."""
        return int(self.entries.shape[0])

    @property
    def half(self) -> int:
        """The block size n (half the matrix size)."""
        return self.size // 2

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            return NotImplemented
        if self.p != other.p or self.size != other.size:
            raise DomainMismatch("matrix product requires equal p and size")
        return FpMatrix(self.p, (self.entries @ other.entries) % self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.size == other.size
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.entries.tolist()!r})"

    def tolist(self) -> List[List[int]]:
        return self.entries.tolist()

    def is_form_preserving(self) -> bool:
        """True when M^T J M = J for the hyperbolic Gram matrix."""
        return bool(_preserves_form(self.p, self.entries[None])[0])

    def inverse(self) -> "FpMatrix":
        """The inverse matrix; raises ValueError when singular."""
        return FpMatrix(self.p, _inv_mod_p(self.entries, self.p))


def _preserves_form(p: int, E: np.ndarray) -> np.ndarray:
    """Which matrices of the stack E [N, 2n, 2n] satisfy M^T J M = J."""
    J = hyperbolic_form(p, E.shape[-1] // 2)
    lhs = np.matmul(E.swapaxes(1, 2), J @ E) % p
    return (lhs == J).all(axis=(1, 2))


# -- the label dictionary --------------------------------------------------


@lru_cache(maxsize=None)
def _label_group(p: int, n: int) -> FiniteGroup:
    """The elementary abelian group of order p**n (shared per (p, n))."""
    return named_group(f"Z/{p}" if n == 1 else f"Z/{p}^{n}")


def _labels(G: FiniteGroup):
    """(p, labels, simple_at) for an elementary abelian group of order p**n.

    Row s of the int array ``labels`` [p**2n, 2n] is the label of simple s:
    the digits of its class representative in a fixed minimal generating
    set, then its character's exponents at the generators, both read off the
    exponent rows of ``chars._exponent_rows`` (an element's digits are the
    exponents of the characters dual to the generators).  ``simple_at``
    inverts it on the base-p codes ``label @ p**arange(2n)``.  Raises
    NotAdditive when the group is not elementary abelian.  Memoized on G.
    """
    key = ("fpn_labels",)
    if key in G._memo:
        return G._memo[key]
    gens = list(G.minimal_generators())
    n = len(gens)
    p = G.exponent()
    try:
        _check_prime(p)
    except NotPrime:
        raise NotAdditive(
            f"{G.name} is not elementary abelian (exponent {p} is not prime)"
        ) from None
    if not G.is_abelian() or p**n != G.n:
        raise NotAdditive(f"{G.name} is not elementary abelian")
    _, expo = _exponent_rows(G)
    chars = expo[:, gens]
    char_at = np.zeros(G.n, dtype=np.int64)
    char_at[chars @ p ** np.arange(n)] = np.arange(G.n)
    elems = expo[char_at[p ** np.arange(n)]].T
    # G is abelian: class g is element g
    labels = np.hstack([elems.repeat(G.n, axis=0), np.tile(chars, (G.n, 1))])
    simple_at = np.full(p ** (2 * n), -1, dtype=np.int64)
    simple_at[labels @ p ** np.arange(2 * n)] = np.arange(len(labels))
    if (simple_at < 0).any():
        raise NotAdditive(f"{G.name} generators are not independent")
    G._memo[key] = (p, labels, simple_at)
    return G._memo[key]


def _simples_at(p: int, simple_at: np.ndarray, labels: np.ndarray):
    """The simples with the given labels (rows), read mod p."""
    return simple_at[labels % p @ p ** np.arange(labels.shape[1])]


def autoeq_to_matrix(F: BraidedAutoeq) -> FpMatrix:
    """The matrix of a label-additive braided symmetry.

    The underlying group must be elementary abelian of order p**n; the
    object mapping is read on labels (grading, character) in F_p^{2n} and
    must be additive there.  Raises NotAdditive otherwise, and
    NotFormPreserving if the extracted matrix failed the form equation
    (impossible for a verified braided symmetry; kept as a defensive
    cross-check).
    """
    p, labels, simple_at = _labels(F.group)
    m = labels.shape[1]
    images = np.array(F.mapping)
    M = labels[images[_simples_at(p, simple_at, np.eye(m, dtype=np.int64))]].T
    bad = np.flatnonzero(_simples_at(p, simple_at, labels @ M.T) != images)
    if len(bad):
        raise NotAdditive(
            f"object mapping is not additive on labels (simple {bad[0]})"
        )
    mat = FpMatrix(p, M)
    if not mat.is_form_preserving():
        raise NotFormPreserving(
            "label action does not preserve the hyperbolic form"
        )
    return mat


def matrix_to_autoeq(M: FpMatrix) -> BraidedAutoeq:
    """The braided symmetry acting on labels by the given matrix.

    Verifies form-preservation first (NotFormPreserving otherwise), then
    builds the object permutation on the center of the elementary abelian
    group of order p**n and runs the full construction checks.  At p = 2 a
    matrix may preserve the symplectic form but not its quadratic
    refinement; the twist check then raises NotBraided.
    """
    if not M.is_form_preserving():
        raise NotFormPreserving(
            "matrix does not preserve the hyperbolic form"
        )
    G = _label_group(M.p, M.half)
    p, labels, simple_at = _labels(G)
    mapping = _simples_at(p, simple_at, labels @ M.entries.T)
    return BraidedAutoeq(G, mapping.tolist(), Provenance("searched"))


# -- structural generator families ----------------------------------------


def _gl_generators(p: int, n: int) -> List[np.ndarray]:
    """Standard generators of GL_n(F_p) (at most two)."""
    if n == 1:
        if p == 2:
            return []
        return [np.array([[_primitive_root(p)]], dtype=np.int64)]
    trans = np.eye(n, dtype=np.int64)
    trans[0, 1] = 1
    cyc = np.eye(n, k=-1, dtype=np.int64)
    # Scale the wrap-around entry so det(cyc) is a primitive root: the two
    # generators then cover both SL_n and the determinant quotient.
    cyc[0, n - 1] = ((-1) ** (n - 1) * _primitive_root(p)) % p
    return [trans, cyc]


def _unipotent_basis(p: int, n: int) -> List[np.ndarray]:
    """Basis blocks A for the unipotent generators [[I, 0], [A, I]].

    Alternating matrices at odd p; all symmetric matrices at p = 2 (the
    symplectic convention -- see the module docstring).
    """
    out = []
    # the diagonal units (p = 2 only, where -1 = 1) come first
    diagonal = [(i, i) for i in range(n)] if p == 2 else []
    for i, j in diagonal + list(itertools.combinations(range(n), 2)):
        A = np.zeros((n, n), dtype=np.int64)
        A[i, j] = 1
        A[j, i] = (-1) % p
        out.append(A)
    return out


def _embed_gl(p: int, v: np.ndarray) -> FpMatrix:
    n = v.shape[0]
    M = np.zeros((2 * n, 2 * n), dtype=np.int64)
    M[:n, :n] = v % p
    M[n:, n:] = _inv_mod_p(v, p).T
    return FpMatrix(p, M)


def _pair_swap(n: int, subset: Iterable[int]) -> np.ndarray:
    """The dualization matrix swapping the listed hyperbolic pairs."""
    M = np.eye(2 * n, dtype=np.int64)
    for i in subset:
        M[i, i] = M[n + i, n + i] = 0
        M[i, n + i] = M[n + i, i] = 1
    return M


def subgroup_generators(p: int, n: int, which: str) -> List[FpMatrix]:
    """Generating matrices for one structural family.

    ``which`` selects: "V" -- standard GL_n generators embedded as
    diag(v, (v^T)^-1); "BV" -- lower unipotents [[I, 0], [A, I]] over the
    basis blocks A; "EV" -- the corresponding upper unipotents; "R" -- the
    pair swaps r_0 = identity, r_1, ..., r_n.  The unipotent blocks are
    alternating at odd p and run over all symmetric matrices at p = 2.
    """
    _check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if which == "V":
        return [_embed_gl(p, v) for v in _gl_generators(p, n)]
    if which in ("BV", "EV"):
        out = []
        for A in _unipotent_basis(p, n):
            M = np.eye(2 * n, dtype=np.int64)
            if which == "BV":
                M[n:, :n] = A
            else:
                M[:n, n:] = A
            out.append(FpMatrix(p, M))
        return out
    if which == "R":
        return [FpMatrix(p, _pair_swap(n, range(d))) for d in range(n + 1)]
    raise ValueError(f"unknown family {which!r}: expected V, BV, EV, or R")


def standard_generators(p: int, n: int) -> List[FpMatrix]:
    """The union of the V, BV, EV, and R families, duplicates removed."""
    return list(dict.fromkeys(M for which in ("V", "BV", "EV", "R")
                              for M in subgroup_generators(p, n, which)))


def generate_matrix_group(
    generators: Iterable[FpMatrix], cap: int = CLOSURE_CAP
) -> Tuple[FpMatrix, ...]:
    """Breadth-first closure of the group generated by the given matrices.

    Deterministic order: identity first, then products by generation.
    Raises CapExceeded past ``cap`` elements and DomainMismatch on mixed p
    or size; at least one generator is required (to fix p and the size).
    Each element becomes an FpMatrix once, after :func:`matrix_closure`.
    """
    p, E = matrix_closure(generators, cap)
    return tuple(FpMatrix(p, M) for M in E)


def _basis_action(generators, cap: int):
    """(p, points, act): the ``_orbit`` of the basis vectors (the rows
    ``points[:2n]``, in the smallest unsigned dtype that holds F_p) under
    the generators, and ``act[i, j]`` = index of ``G[i] @ points[j]``;
    CapExceeded past ``2n * cap`` points.  A matrix is fixed by its
    columns, so it is the row of their indices in ``points``."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    p, size = gens[0].p, gens[0].size
    if any(g.p != p or g.size != size for g in gens):
        raise DomainMismatch("generators live over different forms")
    dt = np.min_scalar_type(p - 1)
    G = np.array([g.entries for g in gens], dtype=dt)

    def step(X):
        prods = np.matmul(G[None], X[:, None, :, None], dtype=np.int64)
        return (prods[..., 0] % p).astype(dt)

    points, _ = _orbit(np.eye(size, dtype=dt), step, cap)
    # one more step over the points, ``_CLOSURE_SLICE`` at a time, each
    # product located by its bytes
    key = np.dtype((np.void, points[0].nbytes))
    keys = points.view(key).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    at = np.empty((len(points), len(G)), np.min_scalar_type(len(points) - 1))
    for s in range(0, len(points), _CLOSURE_SLICE):
        prods = step(points[s:s + _CLOSURE_SLICE]).view(key)[..., 0]
        at[s:s + _CLOSURE_SLICE] = order[np.searchsorted(keys, prods)]
    return p, points, np.ascontiguousarray(at.T)


def matrix_closure(generators, cap: int = CLOSURE_CAP):
    """(p, E): the closure as one stack E [N, 2n, 2n], in the points' dtype:
    ``groups._closure`` of ``act`` on the base of the basis vectors, the
    first 2n points, in the order of a matrix closure (rows are equal
    exactly when matrices are)."""
    p, points, act = _basis_action(generators, cap)
    rows, _ = _closure(act, range(points.shape[1]), cap)
    return p, points[rows].swapaxes(1, 2)


def matrix_group_order(generators, cap: int = CLOSURE_CAP) -> int:
    """The order of the generated group, listing no element: the product of
    the orbit lengths of ``groups._stabilizer_chain`` of ``_basis_action``
    on the base e_1 ... e_2n (whose pointwise stabilizer is trivial).
    CapExceeded where :func:`matrix_closure` raises it: past ``2n * cap``
    orbit points, then as soon as the orbit lengths pass ``cap``."""
    _, points, act = _basis_action(generators, cap)
    levels = _stabilizer_chain(act, range(points.shape[1]), cap)
    return math.prod(len(lv.orbit) for lv in levels)


def _chain_elements(generators, cap: int = CLOSURE_CAP):
    """(p, E): each element of :func:`matrix_group_order`'s chain once, as
    the base images of a product of transversal elements (level 0's after
    level 1's ...) decoded into a stack [N, 2n, 2n] in the points' dtype."""
    p, points, act = _basis_action(generators, cap)
    levels = _stabilizer_chain(act, range(points.shape[1]), cap)
    rows = levels[-1].B
    for lv in reversed(levels[:-1]):
        rows = lv.images(rows).reshape(-1, points.shape[1])
    return p, points[rows].swapaxes(1, 2)


# -- independent order oracle ----------------------------------------------


def group_order_oracle(p: int, n: int) -> int:
    """Count all matrices with M^T J M = J by constrained column extension.

    Independent of the generator machinery: ``groups._extend_frames`` picks
    the 2n columns among the nonzero isotropic vectors ``iso``, column k
    keeping the vectors whose Gram entries ``gram = iso J iso^T`` (mod p)
    against the columns before it equal row k of J.  M^T J M = J makes M
    invertible, so no full frame repeats a column.  Restricted to 2n <= 4
    and p <= 5, its one limit (it runs with no node budget); larger inputs
    raise BudgetExceeded.
    """
    _check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if 2 * n > _ORACLE_MAX_SIZE or p > _ORACLE_MAX_P:
        raise BudgetExceeded(
            f"oracle enumeration restricted to 2n <= {_ORACLE_MAX_SIZE},"
            f" p <= {_ORACLE_MAX_P}; got (p, n) = ({p}, {n})"
        )
    J = hyperbolic_form(p, n)
    m = 2 * n
    # the product starts at the zero vector
    vecs = np.array(list(itertools.product(range(p), repeat=m))[1:])
    # J has zero diagonal, so the self-constraint v^T J v = 0 is the same
    # for every column slot.
    iso = vecs[(np.einsum("ij,jk,ik->i", vecs, J, vecs) % p) == 0]
    gram = (iso @ J @ iso.T % p).astype(np.uint8)
    start = np.zeros((1, 0), dtype=np.min_scalar_type(len(iso) - 1))
    return len(_extend_frames(start, [np.arange(len(iso))] * m, gram, J,
                              math.inf))


# -- Bruhat factorization --------------------------------------------------


@dataclass(frozen=True)
class BruhatCell:
    """One cell of the rank-indexed triangular factorization.

    ``reflection_rank`` is the cell index d in {0, ..., n}; ``factors`` is
    the witness triple (b, e, r) with b lower block-triangular, e upper
    block-triangular, r a d-pair dualization, and b @ e @ r the factored
    element.
    """

    reflection_rank: int
    factors: Tuple[FpMatrix, FpMatrix, FpMatrix]


def bruhat_factorize(M: FpMatrix) -> BruhatCell:
    """Factor a form-preserving matrix as b @ e @ r.

    The cell index is d = n - rank(upper-left block).  The reflection r
    swaps a d-subset of hyperbolic coordinate pairs chosen so that M @ r
    has invertible upper-left block X; the triangular witnesses are then
    closed-form: b = [[X, 0], [Z, (X^T)^-1]] and e = [[I, X^-1 Y], [0, I]].
    Raises NotFormPreserving for an invalid input and NoFactorization if no
    coordinate subset works (a counterexample to the cell decomposition,
    reported rather than suppressed).
    """
    d, b, e, r = _bruhat_stack(M.p, M.entries[None])
    return BruhatCell(int(d[0]), tuple(FpMatrix(M.p, F[0]) for F in (b, e, r)))


def bruhat_cells(p: int, E: np.ndarray) -> np.ndarray:
    """The ``d`` of ``_bruhat_stack(p, E)`` for E [N, 2n, 2n], n >= 1, with
    its errors, one ``_BRUHAT_SLICE`` at a time: no witnesses are kept."""
    m = E.shape[-1] if E.ndim == 3 else 0
    if E.shape[1:] != (m, m) or m % 2 or not m:
        raise ValueError(f"stack shape {E.shape} is not [N, 2n, 2n], n >= 1")
    d = np.empty(len(E), dtype=np.int64)
    for s in range(0, len(E), _BRUHAT_SLICE):
        d[s:s + _BRUHAT_SLICE] = _bruhat_stack(p, E[s:s + _BRUHAT_SLICE])[0]
    return d


def bruhat_census(generators, cap: int = CLOSURE_CAP) -> dict:
    """{d: number of elements in cell d}, for the cells that hold one: each
    element once from the chain (``_chain_elements``), certified by
    :func:`bruhat_cells`; CapExceeded as :func:`matrix_group_order`."""
    d, counts = np.unique(bruhat_cells(*_chain_elements(generators, cap)),
                          return_counts=True)
    return dict(zip(d.tolist(), counts.tolist()))


@lru_cache(maxsize=None)
def _swap_stack(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(sizes, r): the pair swaps r [S, 2n, 2n] and their subset sizes, by
    size and then in ``itertools.combinations`` order, so r[0] = I."""
    subsets = [s for k in range(n + 1)
               for s in itertools.combinations(range(n), k)]
    return (np.array([len(s) for s in subsets]),
            np.array([_pair_swap(n, s) for s in subsets]))


def _bruhat_stack(p: int, E: np.ndarray):
    """(d, b, e, r) of :func:`bruhat_factorize` for each M of the stack E
    [N, 2n, 2n], as arrays.  One F_p sweep ranks and inverts the block X of
    M @ r for every pair swap r (r = I gives d); M keeps the first d-subset
    in combinations order whose witnesses preserve the form and give M.
    M's form check runs with the witnesses' but raises first."""
    N, n = len(E), E.shape[-1] // 2
    sizes, rs = _swap_stack(n)
    aug = np.zeros((N, len(rs), n, 2 * n), dtype=np.int64)     # [X | I]
    aug[..., :n] = E[:, None, :n] @ rs[:, :, :n] % p
    aug[..., n:] = np.eye(n, dtype=np.int64)
    R, pivots = _rref_mod_p(aug.reshape(-1, n, 2 * n), p, n)
    rank = pivots.sum(axis=1).reshape(N, -1)
    d = n - rank[:, 0]
    at, k = ((sizes == d[:, None]) & (rank == n)).nonzero()
    S, rs = E[at] @ rs[k] % p, rs[k]
    Xinv = R.reshape(N, -1, n, 2 * n)[at, k, :, n:]
    b, e = np.zeros_like(S), np.zeros_like(S)
    b[:, :, :n] = S[:, :, :n]
    b[:, n:, n:] = Xinv.swapaxes(1, 2)
    e[:, range(2 * n), range(2 * n)] = 1
    e[:, :n, n:] = Xinv @ S[:, :n, n:] % p
    form = _preserves_form(p, np.concatenate([E, b, e]))
    if not form[:N].all():
        raise NotFormPreserving("matrix does not preserve the hyperbolic form")
    ok = form[N:N + len(at)] & form[N + len(at):]
    ok &= (b @ e % p @ rs % p == E[at]).all(axis=(1, 2))
    found, first = np.unique(at[ok], return_index=True)
    if len(found) < N:
        bad = np.setdiff1d(np.arange(N), found)[0]
        raise NoFactorization(
            f"no rank-{d[bad]} pair subset factorizes the given matrix")
    pick = ok.nonzero()[0][first]
    return d, b[pick], e[pick], rs[pick]
