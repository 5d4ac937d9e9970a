"""Exception types shared across the library.

Most errors are ValueError subclasses so callers can catch broadly; the
names mirror the failure they report.
"""


class GHFPError(ValueError):
    """Base class for all library errors."""


# -- finite field -------------------------------------------------------------

class NotPrime(GHFPError):
    pass


class NotMonic(GHFPError):
    pass


class NotIrreducible(GHFPError):
    pass


class DivisionByZero(GHFPError, ZeroDivisionError):
    pass


class FieldMismatch(GHFPError):
    pass


# -- groups and permutations --------------------------------------------------

class NotAGroup(GHFPError):
    pass


class NotAssociative(NotAGroup):
    """Carries a triple (g, h, k) with (gh)k != g(hk), g a generator."""

    def __init__(self, g, h, k):
        self.triple = (g, h, k)
        super().__init__(f"associativity fails at ({g},{h},{k})")


class LengthMismatch(GHFPError):
    pass


class NotAbelian(GHFPError):
    """Raised by abelian_invariants; carries an (order, exponent) descriptor."""

    def __init__(self, order, exponent, center_size=None):
        self.order = order
        self.exponent = exponent
        self.center_size = center_size
        msg = f"group is not abelian (order={order}, exponent={exponent}"
        if center_size is not None:
            msg += f", center={center_size}"
        super().__init__(msg + ")")


# -- cocycles ------------------------------------------------------------------

class NotNormalized(GHFPError):
    pass


class CocycleIdentityViolated(GHFPError):
    """Carries a violating triple (g, h, k) of group indices as .triple; g is
    a generator of the group, the only g the identity is checked at."""

    def __init__(self, g, h, k):
        self.triple = (g, h, k)
        super().__init__(f"cocycle identity fails at triple (g,h,k)={self.triple}")


class NotOrthogonal(GHFPError):
    pass


# -- matrices ------------------------------------------------------------------

class NotSquare(GHFPError):
    pass


class DivisibilityViolated(GHFPError):
    pass


class OrderMismatch(GHFPError):
    pass


class NotMonomial(GHFPError):
    pass


class AutomorphismCheckFailed(GHFPError):
    pass


# -- codes ---------------------------------------------------------------------

class DuplicateRows(GHFPError):
    pass


class ZeroNotInCode(GHFPError):
    pass


class NotACodeword(GHFPError):
    pass


# -- extensions / difference sets ------------------------------------------------

class NotNormal(GHFPError):
    pass


class SizeMismatch(GHFPError):
    pass


# -- planar family ---------------------------------------------------------------

class InadmissibleParams(GHFPError):
    pass


# -- file formats -----------------------------------------------------------------

class ParseError(GHFPError):
    """Carries the 1-based line number (and column when known) of the failure."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if column is not None:
                loc += f", column {column}"
        super().__init__(message + loc)
