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


class ComputationError(DehnkitError):
    """An internal invariant failed mid-computation.

    Raised when a certificate check fails or a result does not satisfy
    its own postcondition.  Always a bug or a genuinely unreachable case.

    `surface` and `curves`, when set, are the inputs of the computation
    that failed; `replay_json` serializes them so the failure can be
    reproduced.  They are kept as references and serialized only on demand.
    """

    def __init__(self, message: str, surface=None, curves=()):
        super().__init__(message)
        self.surface = surface
        self.curves = tuple(curves)

    def replay_json(self) -> dict | None:
        """{"surface": ..., "curves": [...]} of the failed inputs, or None."""
        if self.surface is None:
            return None
        return {
            "surface": self.surface.to_json(),
            "curves": [c.to_json() for c in self.curves],
        }


class BudgetExceededError(DehnkitError):
    """A bounded search ran out of budget before finding a witness."""

    def __init__(self, message: str, budget: int | None = None):
        super().__init__(message)
        self.budget = budget
