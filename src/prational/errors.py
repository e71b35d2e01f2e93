"""Shared exception types.  The class sets the exit code of a run that an
error ends: a ValueError is a usage error (exit 2), an ArithmeticError a
compute limit (exit 3); no class here is both."""


class NotSquarefreeError(ValueError):
    """Polynomial (or integer) has a repeated factor where a squarefree one is required."""


class NotAUnitError(ValueError):
    """Minimal polynomial does not define an algebraic unit (|constant term| != 1)."""


class NonConvergenceError(ArithmeticError):
    """Certified refinement failed to separate/decide below the precision cap."""


class RamifiedUnsupportedError(ValueError):
    """Operation requested at a ramified prime; ramified primes are excluded."""


class PartialFactorizationError(ArithmeticError):
    """A complete factorization was required but the engine gave up on a cofactor."""


class TooLargeDiscriminantError(ArithmeticError):
    """Class-number search exceeded its certified bound; supply the class number explicitly."""


class InsufficientRecordsError(ArithmeticError):
    """Scan records do not cover the window required by the count report."""
