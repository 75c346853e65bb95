"""Exception hierarchy for the algebroids package.

Every error raised by this package derives from :class:`AlgebroidError`, so
callers can catch one type at the boundary.  Structured errors (Jacobi /
anchor failures, Poisson failures) carry a machine-readable witness of the
violation so reports can replay it.
"""

from __future__ import annotations


class AlgebroidError(Exception):
    """Base class for all errors raised by this package."""


# --- polynomial ring -------------------------------------------------------

class PolySyntaxError(AlgebroidError):
    """Malformed polynomial expression (does not match the input grammar)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(AlgebroidError):
    """An identifier in a polynomial expression is not a chart coordinate."""


class NegativeExponent(AlgebroidError):
    """An exponent in a polynomial expression is negative."""


class MissingCoordinate(AlgebroidError):
    """A point passed to eval_at does not cover every chart coordinate."""


class EmptyChart(AlgebroidError):
    """The requested construction needs at least one coordinate."""


# --- algebroids ------------------------------------------------------------

class DimensionMismatch(AlgebroidError):
    """Anchor matrix or structure-function table has the wrong shape."""


class ChartMismatch(AlgebroidError):
    """Operands live over different charts or different algebroids.

    Every public operation checks each operand's type, then its owner, then
    its kind and degree; this is the owner step: a tensor over another
    algebroid than the operation's (or its other operands'), or an algebroid
    argument that does not own the tensors beside it.  Polynomials over
    another chart raise it too."""


class KindMismatch(AlgebroidError):
    """An operand of the wrong type, or a tensor of the wrong kind or degree.

    Every public operation checks each operand's type, then its owner, then
    its kind and degree; this is the type step (``None``, a number or a
    string where a tensor, a chart, an algebroid, a Poisson structure, a
    kind or a degree belongs) and the shape step."""


class StructureViolation(AlgebroidError):
    """Base class for algebroid-axiom failures.  Carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        #: Machine-readable description of the failing instance (indices and
        #: the nonzero residual, as strings).
        self.witness = witness or {}


class JacobiViolation(StructureViolation):
    """The structure functions fail the Jacobi identity on a basis triple."""


class AnchorNotMorphism(StructureViolation):
    """The anchor fails to intertwine the fiber bracket with vector fields."""


class NotPoisson(StructureViolation):
    """A candidate bivector has nonvanishing self-bracket."""


class NotInvertible(AlgebroidError):
    """The bundle map of a bivector is not a constant invertible matrix."""


class WrongProvenance(AlgebroidError):
    """A transport was applied to a tensor that is not over a lifted bundle."""


# --- model files / CLI -----------------------------------------------------

class ParseError(AlgebroidError):
    """A model file is not valid JSON or violates the model schema."""


class UnknownName(AlgebroidError):
    """A name referenced on the command line is not defined in the model."""


class BadPoint(AlgebroidError):
    """A malformed point: on the command line (``eval --at``), not a list
    of ``coord=rational`` pairs with bounded ASCII rationals; in the library
    (:meth:`~algebroids.ring.Poly.eval_at`), a point that is not a mapping
    or a coordinate value that is not an ``int`` or a ``Fraction``."""


class ValidationError(AlgebroidError):
    """A loaded model fails semantic validation."""
