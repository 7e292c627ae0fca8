"""Exception types shared across the package.

Everything raised deliberately by this package derives from PairglueError,
so callers (and the command line driver) can catch one base class.
"""

__all__ = ["CapacityError", "DomainError", "EliminationError", "PairglueError",
           "ParseError", "StructureError", "UnsupportedQuotientError"]


class PairglueError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PairglueError):
    """An argument lies outside the supported domain (bad n, unknown id, ...)."""


class StructureError(PairglueError):
    """A paired complex failed structural validation.

    The validator's full violation list is kept in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid complex")


class EliminationError(PairglueError):
    """No defining relator exists for a requested Tietze elimination."""


class CapacityError(PairglueError):
    """An exhaustive search would exceed the supported problem size."""


class UnsupportedQuotientError(PairglueError):
    """The automorphism does not induce a legal quotient complex."""


class ParseError(PairglueError):
    """A text document could not be parsed.

    ``line`` is the 1-based line number of the offending input line and
    ``message`` the bare reason; str() combines both.
    """

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")
