"""Exception hierarchy.

Parse failures map to CLI exit code 2, domain failures to exit 3, and
internal invariant breaches to exit 4.
"""


class GbfanError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GbfanError):
    """Malformed textual input: polynomials, field specs, or data files."""


class DomainError(GbfanError):
    """Mathematically invalid request on otherwise well-formed input."""


class FieldMismatch(DomainError):
    """Operands belong to different coefficient fields."""


class RingMismatch(DomainError):
    """Operands belong to different polynomial rings."""


class DimensionMismatch(DomainError):
    """Exponent vector or weight vector of the wrong length."""


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division by the zero element of a field."""


class ZeroPolynomial(DomainError):
    """The zero polynomial has no leading term."""


class InvalidOrdering(DomainError):
    """Weight matrix is not full rank or does not define a term ordering."""


class NotZeroDimensional(DomainError):
    """Operation requires a zero-dimensional ideal."""


class ZeroIdeal(DomainError):
    """Operation is undefined for the zero ideal."""


class ZeroIdealDivisor(DomainError):
    """Colon by the zero ideal is undefined."""


class InconsistentMarking(DomainError):
    """No strictly positive weight vector realizes the requested marking."""


class BoundExceeded(DomainError):
    """Multiplicity exceeds the configured enumeration bound."""


class EmptyPointSet(DomainError):
    """An operation requires at least one point."""


class DuplicatePoint(DomainError):
    """Points in a point set must be pairwise distinct."""


class RepeatedRoot(DomainError):
    """Grid points require pairwise distinct roots per variable."""


class SpecTooShort(DomainError):
    """Distraction tuple shorter than a required exponent."""


class RepeatedConstant(DomainError):
    """Distraction tuple entries must be pairwise distinct."""


class CharacteristicTooSmall(DomainError):
    """The field cannot embed the required natural numbers distinctly."""


class InfiniteOrderIdeal(DomainError):
    """The complement of the monomial ideal is infinite."""


class NotContaining(DomainError):
    """Complementary construction requires the grid ideal inside the input."""


class ComplementarityCertificateFailed(DomainError):
    """The complementary-ideal identities do not hold for this input."""


class NotSubset(DomainError):
    """Expected a nonempty subset of the given point set."""


class NotGrid(DomainError):
    """Expected a full grid (Cartesian product) of points."""


class FactorProductMismatch(DomainError):
    """Supplied factors do not multiply back to the grid generator."""


class RationalsNotFinite(DomainError):
    """Field equations exist only over finite fields."""


class InvariantViolation(GbfanError):
    """Internal inconsistency; indicates a bug, maps to CLI exit code 4."""
