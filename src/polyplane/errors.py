"""Shared error types, and the step budget every exhaustive search spends
from."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search was asked to do more work than its budget allows."""


class VerificationError(RuntimeError):
    """A computed answer failed the independent re-check run before it is
    returned; this is an internal fault, not bad input."""


class StepBudget:
    """Step counter shared by every phase of one search.  Running out raises
    BudgetExceededError naming the search, the phase that spent the last
    steps, and how many steps were used."""

    __slots__ = ("limit", "search", "used")

    def __init__(self, limit: int, search: str = "search"):
        self.limit = limit
        self.search = search
        self.used = 0

    def spend(self, steps: int, phase: str) -> None:
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceededError(
                f"{self.search} budget exhausted in {phase} "
                f"({self.used} of {self.limit} steps)")
