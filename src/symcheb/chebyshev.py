"""Chebyshev machinery with exact integer coefficients.

Both kinds satisfy the same three-term recurrence f_{n+1} = 2x f_n - f_{n-1};
they differ in the degree-1 seed (T_1 = x, U_1 = 2x).  Coefficients are exact
Python ints; evaluation is generic Horner, so it works with floats
and Fractions alike.  ``orbit_rows`` runs the same recurrence on integer
Laurent polynomials in k variables, one entry per orbit of the sign flips and
permutations of the variables (``orbit``); every construction in the package
uses it.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product, repeat
from operator import itemgetter, neg
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
    enumeration budget allows, before any row or index is allocated."""
    budget = resolve_enum_budget()
    m = min(k, n_max)
    if m >= budget.bit_length():  # row n_max has at least 2^m terms (i = m above)
        size = f"at least 2^{m}"
    else:
        count = row_size(k, n_max)
        if count <= budget:
            return
        low = (count - 1).bit_length() - 1  # 2^low < count, also at a power of two
        size = str(count) if low < 128 else f"more than 2^{low}"
    raise ResourceBudgetError(
        f"row {n_max} of the recurrence has {size} terms, over the budget of {budget} "
        f"(raise {ENUM_BUDGET_ENV})"
    )


@lru_cache(maxsize=8)
def _orbit_graph(k: int, n_max: int) -> tuple:
    """(reps, ends, pulls): reps[p] lists the e_1 >= ... >= e_k >= 0 with
    |e|_1 <= n_max, |e|_1 = p (mod 2) by |e|_1, row m is on the first ends[m]
    of reps[m % 2], and pulls[p][i] indexes each canon(e +- u_j) of e =
    reps[p][i] in reps[1 - p], as often as it occurs.  Raising the first copy
    of v in e keeps it sorted (count(v) ways, twice for v = 0); lowering the
    last copy of v + 1 undoes it."""
    origin = (0,) * k
    reps, pulls, index, ends = ([origin], []), ([[]], []), {origin: 0}, [1]
    for level in range(n_max):
        p = level % 2
        for i in range(ends[level - 2] if level > 1 else 0, len(reps[p])):
            e = reps[p][i]
            for v in set(e):
                first = e.index(v)
                f = e[:first] + (v + 1,) + e[first + 1 :]
                if f not in index:
                    index[f] = len(reps[1 - p])
                    reps[1 - p].append(f)
                    pulls[1 - p].append([])
                pulls[p][i] += [index[f]] * (e.count(v) << (not v))
                pulls[1 - p][index[f]] += [i] * f.count(v + 1)
        ends.append(len(reps[1 - p]))
    return tuple(map(tuple, reps)), ends, pulls  # callers share reps: immutable


def orbit_rows(
    a: int, g: int, q0: int, k: int, n_max: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """Yield (reps, Q_m) for Q_0..Q_{n_max} of Q_0 = q0, Q_1 = a S,
    Q_{m+1} = a S Q_m - g Q_{m-1}, S = sum_i (x_i + 1/x_i), over the ints.

    With c = p/q, a = p and g = (kq)^2, Q_m is 2 (kq)^m T_m(A) for q0 = 2
    and (kq)^m U_m(A) for q0 = 1; a = 1, g = 2r - 1, q0 = 2 gives the
    free-group counts.  Q_m is invariant under B_k, the sign flips and
    permutations of the variables, so Q_m[i] is the coefficient at every
    member of the ``orbit`` of reps[i] = (e_1 >= ... >= e_k >= 0), |e|_1 <=
    m, |e|_1 = m (mod 2); cancelled entries may stay as zeros.  Rows run in
    pull form, Q_{m+1}[f] = a sum_j Q_m[canon(f +- u_j)] - g Q_{m-1}[f].
    Raises ResourceBudgetError when row n_max has too many terms, at the
    call, before any row is made.
    """
    _check_row_size(k, n_max)
    reps, ends, pulls = _orbit_graph(k, n_max)

    def rows() -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
        prev, cur = [q0], [a]
        yield reps[0], prev
        if n_max:
            yield reps[1], cur
        for m in range(1, n_max):
            # zeros stand for the levels above rows m and m - 1 that row m + 1
            # reads; level n_max has no pulls from above, so no padding there
            get = (cur + [0] * (ends[min(m + 2, n_max)] - len(cur))).__getitem__
            pulled = zip(pulls[(m + 1) % 2], prev + [0] * (ends[m + 1] - len(prev)))
            prev, cur = cur, [a * sum(map(get, pull)) - g * q for pull, q in pulled]
            yield reps[(m + 1) % 2], cur

    return rows()


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


# A zero level of ``orbit_lines`` with at most this many coordinates is a
# shared block like any other; nested, such blocks copy a line at most this
# many times.
_ZERO_BLOCK_LENGTH = 8


def orbit_lines(
    reps: Sequence[tuple[int, ...]], row: Sequence[int], value: Callable[[int], str], layout: tuple
) -> Iterator[str]:
    """The terms of ``orbit_terms(reps, row, value)`` as text, in order, one
    piece per run of terms that share a prefix of their coordinates.  With
    layout (head, sep, tail, end, joint), a term is head e_1 sep ... sep e_k
    tail text end, and a piece joins its terms by joint.

    The members with e_1 = -v or v of a representative holding v are
    (e_1, *f), f in the orbit of the representative with one copy of v taken
    off.  So the lines of coordinates j..k are made once per multiset of
    entries taken off, as one "\\n"-joined block, and one str.replace puts
    the coordinates before j on each of its lines.  Each block is made
    once; the e_1 = -v slice keeps its blocks until e_1 = v, and no slice
    is joined whole.  A long run of zero coordinates is walked in a loop
    rather than nested into blocks, so stack depth and memory follow the
    nonzero entries, not k."""
    head, sep, tail, end, joint = layout
    zero, blocks = f"0{sep}", {}

    def parts(taken, items, v):
        """(prefix, block of the lines after it) for the members of the orbits
        of the items with one copy of v taken off, ascending; taken is the
        sorted tuple of the nonzero entries taken off, v included.  The lines
        of the last coordinate are one block.  A zero level with more than
        _ZERO_BLOCK_LENGTH coordinates is walked in the loop, not recursed
        into: each level's negatives, then the next zero level, then the
        positives in reverse level order; the item that is all zeros waits
        for the first shorter level, or is one line at the turn."""
        later, flat, depth = [], None, 0
        while True:
            zeros = zero * depth
            buckets = {}
            for rest, text in items:
                i = rest.index(v)
                rest = rest[:i] + rest[i + 1 :]
                if rest[0]:
                    for w in set(rest):
                        buckets.setdefault(w, []).append((rest, text))
                else:  # all zeros, as rest is sorted descending
                    flat = text
            short = len(rest) <= _ZERO_BLOCK_LENGTH
            if short and flat is not None:
                buckets.setdefault(0, []).append(((0,) * len(rest), flat))
                flat = None
            if len(rest) == 1:
                lines = []  # a loop: a comprehension adds GC-tracked objects at start-up
                for x in sorted({*buckets, *map(neg, buckets)}):
                    lines.append(f"{x}{tail}{buckets[abs(x)][0][1]}")
                yield zeros, "\n".join(lines)
                break
            level = []
            for w in sorted(buckets):
                if w or short:
                    inner = tuple(sorted((*taken, w))) if w else taken
                    key = (len(rest), *inner)  # len(rest) fixes how many zeros were taken off
                    if key not in blocks:
                        lines = []
                        for p, block in parts(inner, buckets[w], w):
                            lines.append(p + block.replace("\n", "\n" + p))
                        blocks[key] = "\n".join(lines)
                    level.append((w, blocks[key]))
            for w, block in reversed(level):
                if w:
                    yield f"{zeros}-{w}{sep}", block
            later.append((depth, level))
            if short or 0 not in buckets:
                break
            items, v, depth = buckets[0], 0, depth + 1
        if flat is not None:
            yield f"{zeros}{sep.join(['0'] * len(rest))}{tail}", flat
        for depth, level in reversed(later):
            zeros = zero * depth
            for w, block in level:
                yield f"{zeros}{w}{sep}", block

    buckets = {}  # each nonzero representative under each of its entries
    for e, entry in zip(reps, row):
        if entry:
            item = (e, value(entry))
            for v in set(e):
                buckets.setdefault(v, []).append(item)
    kept = {}  # the parts of e_1 = -v, until e_1 = v
    for x in sorted({*buckets, *map(neg, buckets)}):
        sub = buckets[abs(x)]
        if len(sub[0][0]) == 1:  # k = 1
            yield f"{head}{x}{tail}{sub[0][1]}{end}"
            continue
        pairs = kept.pop(x, None) or parts((abs(x),) if x else (), sub, abs(x))
        if x < 0:
            kept[-x] = pairs = list(pairs)
        for p, block in pairs:
            prefix = f"{head}{x}{sep}{p}"
            block = block.replace("\n", f"{end}{joint}{prefix}")
            yield f"{prefix}{block}{end}"


def orbit_size(e: tuple[int, ...]) -> int:
    """len(orbit(e)), as k! 2^(nonzero entries) / prod_v (copies of v)!."""
    size = math.factorial(len(e)) << sum(map(bool, e))
    return size // math.prod(math.factorial(e.count(v)) for v in set(e))
