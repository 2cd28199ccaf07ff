"""Exception types shared across the package."""


class LiftbankError(Exception):
    """Base class for all library errors."""


class EmptySupport(LiftbankError):
    """Support/order/radius queried on the zero polynomial."""


class NotUnimodular(LiftbankError):
    """Operation requires determinant identically 1."""


class NotIrreducible(LiftbankError):
    """Operation requires an irreducible lifting cascade."""


class NotAdmissible(LiftbankError):
    """Cascade does not belong to the required group lifting structure."""


class NotWSDelayMinimized(LiftbankError):
    """Input bank is not whole-sample symmetric with delays (0, -1)."""


class NotHSConcentric(LiftbankError):
    """Input bank is not concentric half-sample symmetric."""


class FactorizationStuck(LiftbankError):
    """Internal-logic breach: a peel step could not be solved on input
    that passed the preconditions."""


class DCZero(LiftbankError):
    """Base lowpass DC response is zero; DC normalization impossible."""


class NotDyadic(LiftbankError):
    """Reversible mode requires dyadic lifting filters and K = 1."""


class NonIntegerInput(LiftbankError):
    """Reversible mode requires integer-valued signals."""


class BaseNotIdentity(LiftbankError):
    """Operation requires a fully factored cascade (base = I)."""


class InvalidArgument(LiftbankError):
    """An argument is out of range or of the wrong kind: zero trials, a
    policy, update characteristic or generator index that does not exist,
    a tap index or shift that is not an integer, a coefficient that is not
    a finite number, a step filter, cascade step, base or scale of the
    wrong type, or a signal that is not a LaurentPoly."""


class WorkBudget(LiftbankError):
    """The work an input asks for grows with a number in it, not with its
    length, past a documented limit: refused before anything is allocated."""


class ParseError(LiftbankError):
    """Malformed bank or cascade file."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line


class DuplicateTap(ParseError):
    """Same tap index listed twice in one filter block."""


class ZeroTap(ParseError):
    """Explicit zero coefficient; canonical files store no zeros."""
