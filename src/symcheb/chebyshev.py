"""Chebyshev machinery with exact integer coefficients.

Both kinds satisfy the same three-term recurrence f_{n+1} = 2x f_n - f_{n-1};
they differ in the degree-1 seed (T_1 = x, U_1 = 2x).  Coefficients are exact
Python ints; evaluation is generic Horner, so it works with floats
and Fractions alike.  ``orbit_rows`` runs the same recurrence on integer
Laurent polynomials in k variables, one entry per orbit of the sign flips and
permutations of the variables (``orbit``), on an orbit graph that each walk
builds one level per row it reads (``_orbit_levels``) and nothing caches;
every construction in the package uses it but one: a single row at k = 1,
which ``univariate_row`` reads off the Chebyshev differential equation
instead, a recurrence in the exponent j of O(n) steps rather than O(n^2),
each a checked exact division.

The module is arithmetic only: the kernel, the orbits and the oracles
(``cheb_coeffs``, ``coeff_formula_T``, ``eval_closed_T``).  Term text is
the command line's, written from the orbits by ``cli._orbit_lines``.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product, repeat, zip_longest
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

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


def _root_x2_minus_1(x: float) -> float:
    """sqrt(x^2 - 1) for x >= 1, finite wherever x is: sqrt((x - 1)(x + 1))
    below 2^27, where x - 1 is exact up to x = 2, so nothing cancels near
    x = 1; from 2^27 on it rounds to x, and is x."""
    return x if x >= 2.0**27 else math.sqrt((x - 1.0) * (x + 1.0))


def eval_closed_T(n: int, x: float) -> float:
    """T_n(x) for |x| >= 1 via the square-root closed form.

    sign(x)^n (rho^n + rho^-n) / 2 with rho = |x| + sqrt(x^2-1), formed as
    p + 1 / (4p) with p = rho^n / 2 = h rho^a rho^b, h = rho / 2 and
    a + b = n - 1, a = b or b - 1.  h is finite wherever x is; rho is
    infinite only from |x| = 2^1023 on, where T_n(x) overflows for n >= 2.
    rho^(n-1) whole would overflow before p does when rho < 2, but rho^a
    and rho^b overflow only where p does.  Where T_n(x) exceeds the float
    range the result is sign(x)^n inf.  Callers needing |x| < 1 should
    evaluate the coefficient vector instead.
    """
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"degree must be a nonnegative integer, got {n!r}")
    x = float(x)
    if abs(x) < 1.0:
        raise DomainError(f"closed form requires |x| >= 1, got x = {x}")
    if n == 0:
        return 1.0
    half = 0.5 * abs(x) + 0.5 * _root_x2_minus_1(abs(x))
    sign = -1.0 if x < 0 and n % 2 else 1.0
    a = (n - 1) // 2
    try:
        power = half * (2.0 * half) ** a * (2.0 * half) ** (n - 1 - a)
        return sign * (power + 0.25 / power)
    except OverflowError:
        return sign * math.inf


def row_size(k: int, n: int) -> int:
    """The number of terms of row n of the recurrence in k variables.

    Row n has a term for every e in Z^k with |e|_1 <= n and |e|_1 = n (mod 2).
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
    """Raise ResourceBudgetError when row n_max has more terms than the
    enumeration budget allows, or else terms of more coordinates than it
    (row 0 has one term at any k), before any row or index is allocated."""
    budget = resolve_enum_budget()
    m = min(k, n_max)
    if m >= budget.bit_length():  # row n_max has at least 2^m terms (i = m above)
        what = f"at least 2^{m} terms"
    else:
        count = row_size(k, n_max)
        if count > budget:
            low = (count - 1).bit_length() - 1  # 2^low < count, also at a power of two
            size = str(count) if low < 128 else f"more than 2^{low}"
            what = f"{size} terms"
        elif k > budget:  # each term is a tuple of k coordinates
            what = f"terms of {k} coordinates"
        else:
            return
    raise ResourceBudgetError(
        f"row {n_max} of the recurrence has {what}, over the budget of {budget} "
        f"(raise {ENUM_BUDGET_ENV})"
    )


def _orbit_levels(k: int) -> Iterator[tuple[tuple[list, list], tuple[list, list]]]:
    """Yield (reps, pulls) at levels m = 0, 1, 2, ...: reps[p] lists the
    e_1 >= ... >= e_k >= 0 with |e|_1 <= m, |e|_1 = p (mod 2) by |e|_1, and
    pulls[p][i] indexes each canon(e +- u_j) of e = reps[p][i] with
    |e +- u_j|_1 <= m in reps[1 - p], as often as it occurs.  Each next()
    raises level m to m + 1, in place: it appends the new reps to
    reps[1 - m % 2] and their pulls, and adds the raised pulls of level m.
    Raising the first copy of v in e keeps it sorted (count(v) ways, twice
    for v = 0); lowering the last copy of v + 1 undoes it.  The caller owns
    what is yielded: nothing else keeps it."""
    reps, pulls, start = ([(0,) * k], []), ([[]], []), 0  # level m starts at reps[m % 2][start]
    for m in count():
        yield reps, pulls
        low, high, down, up = reps[m % 2], reps[1 - m % 2], pulls[m % 2], pulls[1 - m % 2]
        top, index = len(high), {}  # level m + 1 starts at high[top]
        for i in range(start, len(low)):
            e = low[i]
            for v in set(e):
                first = e.index(v)
                f = e[:first] + (v + 1,) + e[first + 1 :]
                j = index.get(f)
                if j is None:
                    j = index[f] = len(high)
                    high.append(f)
                    up.append([])
                down[i] += [j] * (e.count(v) << (not v))
                up[j] += [i] * f.count(v + 1)
        start = top


def orbit_rows(
    a: int, g: int, q0: int, k: int, n_max: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """Yield (reps, Q_m) for Q_0..Q_{n_max} of Q_0 = q0, Q_1 = a S,
    Q_{m+1} = a S Q_m - g Q_{m-1}, S = sum_i (x_i + 1/x_i), over the ints.

    With c/k = a/d and g = d^2, Q_m is 2 d^m T_m(A) for q0 = 2 and
    d^m U_m(A) for q0 = 1 (``symmetrized._kernel_args``); a = 1,
    g = 2r - 1, q0 = 2 gives the free-group counts.  Q_m is invariant
    under B_k, the sign flips and permutations of the variables, so
    Q_m[i] is the coefficient at every member of the ``orbit`` of reps[i]
    = (e_1 >= ... >= e_k >= 0), |e|_1 <= m, |e|_1 = m (mod 2); cancelled
    entries may stay as zeros.  Rows run in pull form,
    Q_{m+1}[f] = a sum_j Q_m[canon(f +- u_j)] - g Q_{m-1}[f], and the
    walk raises its own ``_orbit_levels`` to level m + 1 just before row
    m + 1, so a reader that stops early builds only the levels it read.
    Raises ResourceBudgetError when row n_max has too many terms, at the
    call, before any level is built.
    """
    _check_row_size(k, n_max)

    def rows() -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
        prev, cur = [], [q0]
        for m, (reps, pulls) in zip(range(n_max + 1), _orbit_levels(k)):
            if m == 1:  # Q_1 = a S, the seed of both kinds
                prev, cur = cur, [a]
            elif m:  # every pull is in cur; prev ends below level m, where it is zero
                get = cur.__getitem__
                pulled = zip_longest(pulls[m % 2], prev, fillvalue=0)
                prev, cur = cur, [a * sum(map(get, pull)) - g * q for pull, q in pulled]
            yield tuple(reps[m % 2]), cur

    return rows()


def univariate_row(a: int, g: int, q0: int, n: int) -> list[int]:
    """The last row of ``orbit_rows(a, g, q0, 1, n)`` for q0 = 2 or 1: Q_n[j]
    for j = n % 2, n % 2 + 2, ..., n, in O(n) big-int steps, not O(n^2).

    Q_n = s P_n(c u / 2) with P = T (q0 = 2) or U (q0 = 1), c^2 = a^2 / g,
    u = x + 1/x, v = x - 1/x and a constant s.  With theta = x d/dx, the
    Chebyshev equation of P_n reads, times g,

        T: 4 (g - a^2) (v theta^2 - u theta) Q = a^2 v^3 (theta^2 - n^2) Q,
        U: 4 (g - a^2) (v theta^2 - u theta) Q
               = a^2 v^2 (v (theta^2 - n (n + 2)) + 2 u theta) Q,

    and at x^(i+3) it gives Q_n[i] from Q_n[i+2], Q_n[i+4], Q_n[i+6] over
    the divisor a^2 (i^2 - n^2) or a^2 ((i + 1)^2 - (n + 1)^2), nonzero for
    0 <= i < n; the row runs down from Q_n[n] = a^n, zero above it.  Every
    division must be exact, so a remainder raises InternalError.  At a = 0
    the row is q0 (-g)^(n/2) at j = 0 for even n, zeros elsewhere.  Raises
    ResourceBudgetError as ``orbit_rows`` does, at the call.
    """
    _check_row_size(1, n)
    if q0 not in (1, 2):
        raise UsageError(f"q0 must be 2 (first kind) or 1 (second kind), got {q0!r}")
    if not a:
        row = [0] * (n // 2 + 1)
        if n % 2 == 0:
            row[0] = q0 * (-g) ** (n // 2)
        return row
    return _univariate_descent(a, g, q0, n, a**n if n else q0)


def _univariate_descent(a: int, g: int, q0: int, n: int, top: int) -> list[int]:
    """Q_n[j] for j = n % 2, ..., n from Q_n[n] = top down, for a != 0, by
    the relation of ``univariate_row`` at x^(i+3):

        a^2 d Q_i = (G (i+1)(i+2) + a^2 w_2) Q_(i+2)
                    - (G (i+4)(i+5) + a^2 w_4) Q_(i+4) + a^2 w_6 Q_(i+6),

    G = 4 (g - a^2), with (d, w_2, w_4, w_6) = (r_i, 3 r_(i+2), 3 r_(i+4),
    r_(i+6)), r_t = t^2 - n^2, for T, and (h_(i+1), h_(i+1) + 2 h_(i+3),
    2 h_(i+3) + h_(i+5), h_(i+5)), h_t = t^2 - (n+1)^2, for U."""
    a2, g4 = a * a, 4 * (g - a * a)
    m = n * n if q0 == 2 else (n + 1) ** 2
    down, q2, q4, q6 = [top], top, 0, 0  # Q_n, Q_(n-2), ...; Q_(i+2), Q_(i+4), Q_(i+6)
    for i in range(n - 2, -1, -2):
        if q0 == 2:
            r2, r4 = (i + 2) ** 2 - m, (i + 4) ** 2 - m
            d, w2, w4, w6 = i * i - m, 3 * r2, 3 * r4, (i + 6) ** 2 - m
        else:
            d, h3, h5 = (i + 1) ** 2 - m, (i + 3) ** 2 - m, (i + 5) ** 2 - m
            w2, w4, w6 = d + 2 * h3, 2 * h3 + h5, h5
        total = (
            (g4 * (i + 1) * (i + 2) + a2 * w2) * q2
            - (g4 * (i + 4) * (i + 5) + a2 * w4) * q4
            + a2 * w6 * q6
        )
        entry, rest = divmod(total, a2 * d)
        if rest:
            raise InternalError(
                f"inexact step at j = {i} of the k = 1 row n = {n} (a = {a}, g = {g}, q0 = {q0})"
            )
        down.append(entry)
        q2, q4, q6 = entry, q2, q4
    return down[::-1]


def orbit(e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orbit of e under B_k, each member once: the nonzero entries in
    every distinct order on every choice of positions, in every sign.

    The orders are walked from the sorted entries: each next order swaps
    the last ascent's left entry with the least larger entry to its right
    and reverses the tail, so equal entries are never exchanged and k
    copies of one entry cost one order, not k!."""
    items = sorted(filter(None, e))
    orders = [tuple(items)]
    while True:
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            break
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = items[:i:-1]
        orders.append(tuple(items))
    members = []
    for positions in combinations(range(len(e)), len(items)):
        for order in orders:
            factors = [(0,)] * len(e)
            for i, v in zip(positions, order):
                factors[i] = (v, -v)
            members += product(*factors)
    return members


def orbit_terms(
    reps: Sequence[tuple[int, ...]], row: Sequence[int], value: Callable[[int], object]
) -> list[tuple]:
    """(member, value(entry)) for every member of the orbit of each
    representative in reps with a nonzero entry in the kernel row, sorted
    lexicographically by member.  Cancelled zeros are skipped; value is
    called once per representative, and its orbit shares the result."""
    terms = []
    for e, entry in zip(reps, row):
        if entry:
            terms += zip(orbit(e), repeat(value(entry)))
    return sorted(terms, key=itemgetter(0))


def orbit_size(e: tuple[int, ...]) -> int:
    """len(orbit(e)), as k! 2^(nonzero entries) / prod_v (copies of v)!."""
    size = math.factorial(len(e)) << sum(map(bool, e))
    return size // math.prod(math.factorial(e.count(v)) for v in set(e))
