"""Chebyshev machinery with exact integer coefficients.

Both kinds satisfy the same three-term recurrence f_{n+1} = 2x f_n - f_{n-1};
they differ in the degree-1 seed (T_1 = x, U_1 = 2x).  Coefficients are exact
Python ints; evaluation is generic Horner, so it works with floats
and Fractions alike.  ``scaled_rows`` runs the same recurrence on integer
Laurent polynomials in k variables; every construction in the package uses it.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import (
    ENUM_BUDGET_ENV,
    DomainError,
    InternalError,
    ResourceBudgetError,
    UsageError,
    resolve_enum_budget,
)


class ChebKind(enum.Enum):
    """First kind (T, cosine family) or second kind (U, sine family)."""

    FIRST = "T"
    SECOND = "U"


def check_kind(kind: ChebKind) -> None:
    """Reject anything but a ChebKind, such as the letter "T"."""
    if not isinstance(kind, ChebKind):
        raise UsageError(f"kind must be a ChebKind, got {kind!r}")


def check_arity(k: int) -> None:
    """Reject an arity k that is not a positive int."""
    if not isinstance(k, int) or k < 1:
        raise UsageError(f"k must be a positive integer, got {k!r}")


class ChebCoeffVector(NamedTuple):
    """Dense coefficient vector of T_n or U_n; index j = coefficient of x^j."""

    n: int
    coeffs: tuple[int, ...]

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction inputs, float for floats."""
        acc = x * 0  # zero of the input's type
        for coeff in reversed(self.coeffs):
            acc = acc * x + coeff
        return acc


@lru_cache(maxsize=None)
def cheb_coeffs(kind: ChebKind, n: int) -> ChebCoeffVector:
    """Exact coefficients of T_n (FIRST) or U_n (SECOND) via the recurrence."""
    check_kind(kind)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"degree must be a nonnegative integer, got {n!r}")
    if n == 0:
        return ChebCoeffVector(0, (1,))
    prev = [1]
    cur = [0, 1] if kind is ChebKind.FIRST else [0, 2]
    for _ in range(n - 1):
        nxt = [0] * (len(cur) + 1)
        for j, coeff in enumerate(cur):
            nxt[j + 1] += 2 * coeff
        for j, coeff in enumerate(prev):
            nxt[j] -= coeff
        prev, cur = cur, nxt
    return ChebCoeffVector(n, tuple(cur))


def coeff_formula_T(n: int, m: int) -> Fraction:
    """Coefficient of x^(n-2m) in T_n by the closed formula.

    (-1)^m * (n/(n-m)) * C(n-m, m) * 2^(n-2m-1), exact rational arithmetic
    throughout: the last factor is 2^-1 for the constant term of an even n,
    and the product is checked to be integral at the end.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"the coefficient formula needs n >= 1, got {n!r}")
    if not isinstance(m, int) or m < 0 or m > n // 2:
        raise UsageError(f"m must lie in [0, n//2] = [0, {n // 2}], got {m!r}")
    value = (
        Fraction(-1) ** m
        * Fraction(n, n - m)
        * math.comb(n - m, m)
        * Fraction(2) ** (n - 2 * m - 1)
    )
    if value.denominator != 1:
        raise InternalError(f"non-integer Chebyshev coefficient at n={n}, m={m}")
    return value


def eval_closed_T(n: int, x: float) -> float:
    """T_n(x) for |x| >= 1 via the square-root closed form.

    sign(x)^n (rho^n + rho^-n) / 2 with rho = |x| + sqrt(x^2-1); where that
    exceeds the float range the result is sign(x)^n inf.  Callers needing
    |x| < 1 should evaluate the coefficient vector instead.
    """
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"degree must be a nonnegative integer, got {n!r}")
    x = float(x)
    if abs(x) < 1.0:
        raise DomainError(f"closed form requires |x| >= 1, got x = {x}")
    rho = abs(x) + math.sqrt(x * x - 1.0)
    sign = -1.0 if x < 0 and n % 2 else 1.0
    try:
        return sign * 0.5 * (rho**n + rho**-n)
    except OverflowError:
        return sign * math.inf


def row_size(k: int, n: int) -> int:
    """The number of keys of row n of ``scaled_rows`` in k variables.

    Row n has a key for every e in Z^k with |e|_1 <= n and |e|_1 = n (mod 2).
    That is half of sum_i 2^i C(k, i) C(n, i), the count of all e with
    |e|_1 <= n, plus sum_i C(k-1, i) C(n-i+k-1, k-1), the coefficient of x^n
    in (1 + x)^(k-1) / (1 - x)^k, which counts them with sign (-1)^(n-|e|_1).
    """
    within = sum(2**i * math.comb(k, i) * math.comb(n, i) for i in range(min(k, n) + 1))
    signed = sum(
        math.comb(k - 1, i) * math.comb(n - i + k - 1, n - i) for i in range(min(k - 1, n) + 1)
    )
    return (within + signed) // 2


def _check_row_size(k: int, n_max: int) -> None:
    """Raise ResourceBudgetError when row n_max has more keys than the
    enumeration budget allows, before any row is allocated."""
    budget = resolve_enum_budget()
    m = min(k, n_max)
    if m >= budget.bit_length():  # row n_max has at least 2^m keys (i = m above)
        size = f"at least 2^{m}"
    else:
        count = row_size(k, n_max)
        if count <= budget:
            return
        size = str(count) if count.bit_length() <= 128 else f"more than 2^{count.bit_length() - 1}"
    raise ResourceBudgetError(
        f"row {n_max} of the recurrence has {size} terms, over the budget of {budget} "
        f"(raise {ENUM_BUDGET_ENV})"
    )


def scaled_rows(a: int, g: int, q0: int, k: int, n_max: int) -> Iterator[dict[int, int]]:
    """Yield Q_0..Q_{n_max} of Q_0 = q0, Q_1 = a S, Q_{m+1} = a S Q_m - g Q_{m-1},
    S = sum_i (x_i + 1/x_i), over the ints.

    With c = p/q, a = p and g = (kq)^2, Q_m is 2 (kq)^m T_m(A) for q0 = 2
    and (kq)^m U_m(A) for q0 = 1; a = 1, g = 2r - 1, q0 = 2 gives the
    free-group count polynomials.  A row maps each exponent vector, packed
    into one int (Kronecker substitution: digits e_i + n_max in radix
    2 n_max + 1, e_1 most significant, so key order is lexicographic order),
    to its coefficient; coefficients that cancel may stay as zeros.  Raises
    ResourceBudgetError when row n_max would exceed the enumeration budget.
    """
    _check_row_size(k, n_max)
    radix = 2 * n_max + 1
    shifts = [radix**i for i in range(k)]
    origin = n_max * sum(shifts)
    prev = {origin: q0}
    cur = {origin + sign * shift: a for shift in shifts for sign in (1, -1)}
    yield prev
    if n_max:
        yield cur
    for _ in range(n_max - 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, coeff in cur.items():
            coeff *= a
            for shift in shifts:
                up, down = key + shift, key - shift
                nxt[up] = get(up, 0) + coeff
                nxt[down] = get(down, 0) + coeff
        for key, coeff in prev.items():
            nxt[key] = get(key, 0) - g * coeff
        prev, cur = cur, nxt
        yield cur


def unpack_exponents(key: int, k: int, n_max: int) -> tuple[int, ...]:
    """The exponent vector of a key of ``scaled_rows(..., k, n_max)``."""
    radix = 2 * n_max + 1
    return tuple(key // radix**i % radix - n_max for i in range(k - 1, -1, -1))
