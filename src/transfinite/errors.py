"""Exception types shared across the package."""


class TransfiniteError(Exception):
    """Base class for all errors raised by this package."""


class _SampledError(TransfiniteError):
    """An error that may keep the sample run it was concluded from."""

    def __init__(self, message: str, samples=None):
        super().__init__(message)
        self.samples = tuple(samples) if samples is not None else None


class NotRepresentable(_SampledError):
    """The exact value of an expression is epsilon_0 or larger.

    Values at or above epsilon_0 have no Cantor normal form built from
    naturals and omega, so the engine refuses to produce one.  When the
    conclusion was reached from a sample sequence, the samples are kept
    on the exception for inspection.
    """


class BudgetExceeded(_SampledError):
    """An evaluation hit its depth, bit, or work budget before finishing."""


class NoPatternError(_SampledError):
    """A sample sequence matched none of the least-upper-bound rules."""


class OrdinalDomainError(TransfiniteError, ValueError):
    """An operation was applied outside its domain (e.g. predecessor of 0)."""


class ParseError(TransfiniteError, ValueError):
    """Rejected input text; `position` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
