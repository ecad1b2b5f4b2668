"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes: DomainError -> 1,
UsageError -> 2, ResourceBudgetError -> 3, InternalError -> 4.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_BUDGET = 10**8
ENUM_BUDGET_ENV = "SYMCHEB_ENUM_BUDGET"


class UsageError(ValueError):
    """A call that violates an argument contract (wrong arity, bad range)."""


class DomainError(ValueError):
    """Mathematically well-formed input outside the operation's domain.

    ``witness`` optionally carries the exponent vector (or scalar) that
    demonstrates why the request is undefined, e.g. the location of a
    negative coefficient where a probability distribution was requested.
    """

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class ResourceBudgetError(RuntimeError):
    """An enumeration whose size exceeds the configured budget."""


class InternalError(RuntimeError):
    """Two of the package's own routes disagree: a defect, never a bad input."""


def resolve_enum_budget(budget: int | None = None) -> int:
    """Explicit argument, else the SYMCHEB_ENUM_BUDGET variable, else 10^8."""
    if budget is None:
        raw = os.environ.get(ENUM_BUDGET_ENV, str(DEFAULT_ENUM_BUDGET))
        try:
            budget = int(raw)
        except ValueError as exc:
            raise UsageError(f"{ENUM_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise UsageError(f"the enumeration budget must be positive, got {budget}")
    return budget
