"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes: DomainError -> 1,
UsageError -> 2, ResourceBudgetError -> 3, InternalError -> 4.
"""

from __future__ import annotations


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
