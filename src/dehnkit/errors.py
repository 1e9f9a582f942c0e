"""Exception hierarchy.

All library errors derive from DehnkitError so callers can catch one type.
"""

from __future__ import annotations


class DehnkitError(Exception):
    """Base class for all dehnkit errors."""


class ValidationError(DehnkitError):
    """Malformed input data: bad cell structure, bad itinerary, bad JSON."""


class PreconditionError(DehnkitError):
    """Structurally valid input that violates an operation's precondition."""


class TerminalPairError(PreconditionError):
    """A curve pair is already terminal: no reduction step applies."""


class ComputationError(DehnkitError):
    """An internal invariant failed mid-computation.

    Raised when a certificate check fails or a result does not satisfy
    its own postcondition.  Always a bug or a genuinely unreachable case.
    """


class BudgetExceededError(DehnkitError):
    """A bounded search ran out of budget before finding a witness."""

    def __init__(self, message: str, budget: int | None = None):
        super().__init__(message)
        self.budget = budget
