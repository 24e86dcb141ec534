"""Exception hierarchy for the toolkit.

Every domain failure raises a subclass of :class:`BrpicError` carrying a
human-readable witness (the offending elements/indices), so callers can
distinguish "the input is outside the domain of the construction" from
programming errors.  The CLI maps :class:`BrpicError` to exit code 1 and
usage problems to exit code 2.
"""

from __future__ import annotations


class BrpicError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# group construction / queries
# ---------------------------------------------------------------------------

class NotAssociative(BrpicError):
    """Multiplication table fails associativity; message names a witness triple."""


class NoIdentity(BrpicError):
    """Multiplication table has no two-sided identity element."""


class NoInverse(BrpicError):
    """Some element of the table has no two-sided inverse."""


class UnknownName(BrpicError):
    """Group mini-language string not recognized."""


class BadSemidirectAction(BrpicError):
    """The action supplied for N : Q is not a homomorphism Q -> Aut(N)."""


class NotNormal(BrpicError):
    """A quotient or a laziness question asked of a non-normal subgroup."""


class NotAnAutomorphism(BrpicError):
    """Map supplied where a group automorphism was required."""


class CapExceeded(BrpicError):
    """An enumeration (subgroups, automorphisms, closure) exceeded its cap."""


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

class DivisionByZero(BrpicError, ZeroDivisionError):
    """Division by the zero cyclotomic number."""


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class CharacterTableError(BrpicError):
    """Internal certification of a character table failed (orthogonality etc.)."""


class NoSuchCharacter(BrpicError):
    """No row of the character table matches the requested values."""


class NotASubgroup(BrpicError):
    """Restriction requested along something that is not a subgroup."""


class NotIrreducible(BrpicError):
    """Clifford decomposition requested for a reducible character."""


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

class NotACocycle(BrpicError):
    """Table violates the 2-cocycle identity; message names a witness triple."""


class NotAbelian(BrpicError):
    """Antisymmetrization pairing requested on a nonabelian group."""


class Degenerate(BrpicError):
    """A pairing required to be nondegenerate has a nontrivial radical."""


class NoSuchElement(BrpicError):
    """No group element realizes the requested character under the pairing."""


class NotLazy(BrpicError):
    """No conjugation-invariant representative exists in the cohomology class."""


# ---------------------------------------------------------------------------
# center / autoequivalences
# ---------------------------------------------------------------------------

class CertificationError(BrpicError):
    """Computed data fails one of its certificates; message names the check
    and a witness."""


class NonIntegralFusion(BrpicError):
    """A Verlinde fusion coefficient is not a nonnegative integer."""


class NotBraided(BrpicError):
    """A permutation of simple objects fails the S/T preservation test."""


class TwistNotCharacter(BrpicError):
    """The antisymmetrized cocycle twist is not a linear character of a centralizer."""


class NotAbelianNormal(BrpicError):
    """Subgroup supplied to an EV/R' construction is not abelian normal."""


class NotSelfDual(BrpicError):
    """No Q-equivariant nondegenerate self-pairing of N exists."""


class NoComplement(BrpicError):
    """No complement Q with G = N : Q was found."""


class NoExtension(BrpicError):
    """A partial braided map admits no completion to a braided autoequivalence."""


class BudgetExceeded(BrpicError):
    """A computation exceeded one of its work budgets; the message names the
    budget and its value.  The budgets are ``EXTENSION_NODE_BUDGET``
    (frame-extension nodes of the completion search, or the ``cap`` passed
    in), the H^2 computation's ``H2_ENTRY_BUDGET`` (entries of the cocycle
    system on generator rows, |gens| (n-1)^2 x (n-1)^2) and
    ``H2_CLASS_BUDGET`` (class representatives), the matrix-model oracle's
    (p, n) limits (2n and p; its frame extension has no node budget),
    ``FPN_INT64_LIMIT``, the int64 limit on the modulus of F_p matrix
    products and of Z/m elimination, and ``PERM_DEGREE_LIMIT``, the largest
    point a permutation group name may move."""


class ConditionFailed(BrpicError):
    """A bimodule-invariant condition (subgroup/pairing axioms) failed."""


class UnsupportedProvenance(BrpicError):
    """Bimodule data requested for an autoequivalence without construction data."""


class DomainMismatch(BrpicError):
    """Composition or comparison of autoequivalences over different groups."""


# ---------------------------------------------------------------------------
# F_p matrix model
# ---------------------------------------------------------------------------

class NotPrime(BrpicError):
    """The field characteristic supplied is not a prime number."""


class NotFormPreserving(BrpicError):
    """Matrix does not preserve the hyperbolic bilinear form."""


class NotAdditive(BrpicError):
    """Object permutation is not additive on (a, chi) labels."""


class NoFactorization(BrpicError):
    """Bruhat factorization failed; message carries the offending matrix."""


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class BadArguments(BrpicError):
    """Subcommand arguments are malformed or incomplete."""
