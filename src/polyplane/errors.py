"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search was asked to do more work than its budget allows."""


class VerificationError(RuntimeError):
    """A computed answer failed the independent re-check run before it is
    returned; this is an internal fault, not bad input."""
