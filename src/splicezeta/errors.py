"""Exception types shared across the package."""


class SpliceZetaError(Exception):
    """Base class for all errors raised by this package."""


class PoleAtOne(SpliceZetaError):
    """Denominator vanishes at L = 1 after full cancellation."""


class DegenerateDenominator(SpliceZetaError):
    """A zeta denominator pair (nu, N) = (0, 0) was produced."""


class ValidationError(SpliceZetaError):
    """A diagram violates one or more structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DecoratedArrowPresent(SpliceZetaError):
    """Linking-number formulas require all arrowhead decorations to be 1."""


class CacheMismatch(SpliceZetaError):
    """Stored node multiplicities disagree with the computed ones."""


class MissingCache(SpliceZetaError):
    """An operation needs node multiplicities that are neither cached nor computable."""


class NonIntegralInterpolation(SpliceZetaError):
    """Multiplicity interpolation on a subdivided cone left the integer lattice."""


class NonPrimitiveInput(SpliceZetaError):
    """A cone generator is not a primitive integer vector."""


class NegativeDeterminant(SpliceZetaError):
    """Cone generators are not positively oriented."""


class RefinementTooLarge(SpliceZetaError):
    """A refinement would have more nodes than refine.MAX_REFINED_NODES."""


class ExpansionTooLarge(SpliceZetaError):
    """A zeta comparison would exceed zeta.MAX_PROGRESSIONS or zeta.MAX_SUPPORT."""


class NotAnEdge(SpliceZetaError):
    """The requested node pair is not an edge of the diagram."""


class NoFArrow(SpliceZetaError):
    """Monodromy data needs at least one arrowhead with positive f-multiplicity."""


class NonPolynomialDelta1(SpliceZetaError):
    """The h1 characteristic polynomial came out with a negative root multiplicity."""


class DegenerateBranch(SpliceZetaError):
    """A builder was asked for a branch with (N, nu) = (0, 0)."""


class ParseError(SpliceZetaError):
    """Syntax error in a diagram document, with position information."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
