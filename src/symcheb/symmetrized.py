"""Symmetrized Chebyshev Laurent polynomials and their coefficient signs.

For a rational parameter c and arity k, let

    A = (c / 2k) * sum_i (x_i + 1/x_i).

The symmetrized polynomials are T_n(A) (first kind) and U_n(A) (second
kind): Laurent polynomials in k variables, symmetric under every x_i -> 1/x_i
and under permutations of the variables.  The canonical construction is the
three-term recurrence P_{m+1} = 2A P_m - P_{m-1}, run on integers by
``chebyshev.scaled_rows``: with c = p/q it computes Q_m = s_m P_m(A) for
the scale s_m = 2 (kq)^m (first kind) or (kq)^m (second kind), and only the
rows a caller reads are divided by s_m into Fractions.

For k = 1 and c > 1 all coefficients on the parity support (|j| <= n,
n - j even) are strictly positive; for c < -1 every coefficient has sign
(-1)^n; for |c| < 1 neither pattern survives.  For k > 1 nonnegativity can
fail for c slightly above 1 -- the coefficient of x_1 at n = 3, k = 2 is
(3c/4)(3c^2/4 - 1), negative for 1 < c < 2/sqrt(3).  That bound is the
paper's parameter point c_k = k/sqrt(2k-1), and from it up every
coefficient of T_n(A) off the origin is nonnegative at every n:

(a) At c = c_k, 2 (2k-1)^(n/2) T_n(A) is the count polynomial W_n of
    cyclically reduced words in the rank-k free group, tallied by homology
    class; only its constant term carries the trivial-class correction, so
    its other coefficients are counts, hence >= 0 (``freegroup``).
(b) Dilation: T_n(ax) = sum_j beta_{n,j}(a) T_j(x) with every beta_{n,j}(a)
    >= 0 for a >= 1.  Expand T_n(ax) = sum_i T_n^(i)(x) x^i (a-1)^i / i!:
    each derivative of T_n is a nonnegative combination of T's, since
    T_j' = j U_{j-1} and U_m is a nonnegative sum of T's; x^i = T_1^i; and
    products of nonnegative T-combinations stay nonnegative, by
    T_m T_n = (T_{m+n} + T_{|m-n|}) / 2.
(c) With B = S / 2k, S = sum_i (x_i + 1/x_i), T_n(c B) = sum_j
    beta_{n,j}(c/c_k) T_j(c_k B), a nonnegative combination of polynomials
    whose off-origin coefficients are >= 0 by (a) for c >= c_k.

Odd n has no constant term, so its whole row is nonnegative; at even n the
constant term must still be checked (it is c^2/k - 1 at n = 2, negative for
c < sqrt(k)).  ``cltstats`` certifies signs this way; ``sign_survey`` maps
the threshold below c_k empirically.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .chebyshev import ChebKind, check_arity, check_kind, scaled_rows, unpack_exponents
from .errors import UsageError
from .laurent import Exponents, LaurentPoly, Scalar, as_scalar

_ZERO = Fraction(0)


class _SymChebSpecFields(NamedTuple):
    kind: ChebKind
    n: int
    c: Fraction
    k: int


class SymChebSpec(_SymChebSpecFields):
    """Which polynomial to build: kind, degree n, parameter c, arity k."""

    __slots__ = ()

    def __new__(cls, kind: ChebKind, n: int, c: Scalar, k: int):
        check_kind(kind)
        if not isinstance(n, int) or n < 0:
            raise UsageError(f"n must be a nonnegative integer, got {n!r}")
        check_arity(k)
        return super().__new__(cls, kind, n, as_scalar(c), k)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class PositivityReport(NamedTuple):
    """Sign scan of one polynomial's coefficients.

    ``pattern_ok`` (univariate only, None for k > 1) additionally demands
    strict positivity at every j with |j| <= n and n - j even, and exact
    zero elsewhere.  ``witness`` is the lexicographically first exponent
    with a negative coefficient, absent when all are nonnegative.
    """

    all_nonnegative: bool
    pattern_ok: bool | None
    min_coefficient: Fraction
    witness: Exponents | None


class UnivariateCoeffTable(NamedTuple):
    """Rows 0..n_max of coefficient vectors of T_n(A) or U_n(A) at k = 1.

    Row n holds 2n+1 entries for j = -n..n; ``value`` returns exact zero
    outside that range.  Rows are symmetric (a_n^j = a_n^{-j}) and vanish
    when n - j is odd.
    """

    kind: ChebKind
    c: Fraction
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, j: int) -> Fraction:
        if not 0 <= n <= self.n_max:
            raise UsageError(f"row {n} not in table (0..{self.n_max})")
        if abs(j) > n:
            return _ZERO
        return self.rows[n][j + n]

    def row_poly(self, n: int) -> LaurentPoly:
        """Row n as a univariate Laurent polynomial."""
        row = self.rows[n] if 0 <= n <= self.n_max else None
        if row is None:
            raise UsageError(f"row {n} not in table (0..{self.n_max})")
        return LaurentPoly(1, {(j - n,): coeff for j, coeff in enumerate(row) if coeff})


class SignClass(enum.Enum):
    ALL_NONNEG = "ALL_NONNEG"
    ALTERNATING = "ALTERNATING"
    MIXED = "MIXED"


class SurveyWitness(NamedTuple):
    """First coefficient incompatible with every remaining sign pattern."""

    n: int
    exponents: Exponents
    value: Fraction


class SurveyRow(NamedTuple):
    c: Fraction
    classification: SignClass
    witness: SurveyWitness | None


def _check_rows_args(kind: ChebKind, k: int, n_max: int) -> None:
    check_kind(kind)
    check_arity(k)
    if not isinstance(n_max, int) or n_max < 0:
        raise UsageError(f"n_max must be a nonnegative integer, got {n_max!r}")


def _scaled(kind: ChebKind, c: Scalar, k: int, n_max: int) -> Iterator[tuple[int, dict, int]]:
    """(m, Q_m, s_m) for m = 0..n_max, where P_m(A) = Q_m / s_m."""
    _check_rows_args(kind, k, n_max)
    c = as_scalar(c)
    kq = k * c.denominator
    q0 = 2 if kind is ChebKind.FIRST else 1
    rows = scaled_rows(c.numerator, kq * kq, q0, k, n_max)
    return ((m, row, q0 * kq**m) for m, row in enumerate(rows))


def _fractions(row: dict[int, int], divisor: int, k: int, n_max: int) -> dict[Exponents, Fraction]:
    """The nonzero entries of a kernel row over divisor, by exponents in lexicographic order."""
    keys = filter(row.get, sorted(row))
    return {unpack_exponents(key, k, n_max): Fraction(row[key], divisor) for key in keys}


def _first_negative(row: dict[int, int], k: int, n_max: int) -> tuple[Exponents, int] | None:
    """(exponents, entry) at the smallest negative key, which is the
    lexicographically first, or None."""
    key = min((key for key, coeff in row.items() if coeff < 0), default=None)
    return None if key is None else (unpack_exponents(key, k, n_max), row[key])


def build_sequence(kind: ChebKind, c: Scalar, k: int, n_max: int) -> list[LaurentPoly]:
    """The polynomials for n = 0..n_max, sharing one recurrence pass."""
    rows = _scaled(kind, c, k, n_max)
    return [LaurentPoly._raw(k, _fractions(row, scale, k, n_max)) for _, row, scale in rows]


def build(spec: SymChebSpec) -> LaurentPoly:
    """Construct T_n(A) or U_n(A) exactly."""
    for _, row, scale in _scaled(spec.kind, spec.c, spec.k, spec.n):
        pass
    return LaurentPoly._raw(spec.k, _fractions(row, scale, spec.k, spec.n))


def univariate_table(kind: ChebKind, c: Scalar, n_max: int) -> UnivariateCoeffTable:
    """Rows 0..n_max of the k = 1 coefficient table, read off the kernel.

    Row n holds the coefficients of x^-n..x^n of T_n(A) or U_n(A) and agrees
    exactly with the coefficients of build().
    """
    c = as_scalar(c)
    rows = []
    for m, row, scale in _scaled(kind, c, 1, n_max):
        fractions = _fractions(row, scale, 1, n_max)
        rows.append(tuple(fractions.get((j,), _ZERO) for j in range(-m, m + 1)))
    return UnivariateCoeffTable(kind=kind, c=c, rows=tuple(rows))


def fullform_coeff(n: int, c: Scalar, j: int) -> Fraction:
    """Coefficient of x^j in T_n(A) at k = 1 by the explicit expansion.

    (c^n / 2) * sum_m (-1/c^2)^m (n/(n-m)) C(n-m, m) C(n-2m, (n-2m-j)/2),
    binomials vanishing on negative, excessive, or half-integer lower index.
    The overall factor 1/2 is required: without it the x^2 coefficient at
    n = 2, c = 2 would come out 4 instead of the true 2.
    """
    c = as_scalar(c)
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"the expansion needs n >= 1 (n = 0 is the constant 1), got {n!r}")
    if c == 0:
        raise UsageError("the expansion needs a nonzero c")
    if not isinstance(j, int) or abs(j) > n:
        raise UsageError(f"exponent j must satisfy |j| <= n = {n}, got {j!r}")
    ratio = Fraction(-1) / (c * c)
    total = _ZERO
    for m in range(n // 2 + 1):
        width = n - 2 * m
        lower2 = width - j
        if lower2 < 0 or lower2 % 2 or lower2 > 2 * width:
            continue
        total += (
            ratio**m * Fraction(n, n - m) * math.comb(n - m, m) * math.comb(width, lower2 // 2)
        )
    return c**n / 2 * total


def positivity_report(spec: SymChebSpec) -> PositivityReport:
    """Sign scan of T_n(A) or U_n(A), read off its integer kernel row (scale
    s_n > 0).  Rows keep cancelled zeros, so the minimum is taken over
    nonzero entries; it is the only Fraction made."""
    for _, row, scale in _scaled(spec.kind, spec.c, spec.k, spec.n):
        pass
    negative = _first_negative(row, spec.k, spec.n)
    pattern_ok = None if spec.k > 1 else all(  # x^j has key j + n: n - j even iff key even
        row.get(key, 0) > 0 if key % 2 == 0 else not row.get(key, 0)
        for key in range(2 * spec.n + 1)
    )
    return PositivityReport(
        all_nonnegative=negative is None,
        pattern_ok=pattern_ok,
        min_coefficient=Fraction(min((v for v in row.values() if v), default=0), scale),
        witness=None if negative is None else negative[0],
    )


def sign_survey(
    kind: ChebKind, k: int, n_max: int, c_grid: Sequence[Scalar]
) -> list[SurveyRow]:
    """Classify each c by the joint sign behaviour of P_0..P_{n_max}.

    ALL_NONNEG: every coefficient of every P_n is >= 0.  ALTERNATING: every
    coefficient of P_n has sign (-1)^n or is zero.  MIXED: neither pattern
    holds; the witness records the first (n, exponent) ruling out the last
    surviving pattern, scanning n upward and exponents lexicographically.
    """
    _check_rows_args(kind, k, n_max)
    out = []
    for c in c_grid:
        c = as_scalar(c)
        nonneg_ok, alternating_ok = True, True
        witness = None
        for n, row, scale in _scaled(kind, c, k, n_max):
            positive_wanted = n % 2 == 0
            for key in sorted(row):
                coeff = row[key]
                if not coeff:
                    continue
                nonneg_ok = nonneg_ok and coeff > 0
                alternating_ok = alternating_ok and (coeff > 0) == positive_wanted
                if not nonneg_ok and not alternating_ok:
                    exponents = unpack_exponents(key, k, n_max)
                    witness = SurveyWitness(n, exponents, Fraction(coeff, scale))
                    break
            if witness is not None:
                break
        if nonneg_ok:
            classification = SignClass.ALL_NONNEG
        elif alternating_ok:
            classification = SignClass.ALTERNATING
        else:
            classification = SignClass.MIXED
        out.append(SurveyRow(c=c, classification=classification, witness=witness))
    return out
