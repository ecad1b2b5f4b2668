"""Symmetrized Chebyshev Laurent polynomials and their coefficient signs.

For a rational parameter c and arity k, let

    A = (c / 2k) * sum_i (x_i + 1/x_i).

The symmetrized polynomials are T_n(A) (first kind) and U_n(A) (second
kind): Laurent polynomials in k variables, symmetric under every x_i -> 1/x_i
and under permutations of the variables.  The canonical construction is the
three-term recurrence P_{m+1} = 2A P_m - P_{m-1}, run on integers by
``chebyshev.orbit_rows`` on one representative e_1 >= ... >= e_k >= 0 per
orbit of those symmetries: with c = p/q it computes Q_m = s_m P_m(A) for
the scale s_m = 2 (kq)^m (first kind) or (kq)^m (second kind).  Only rows a
caller reads become Fractions, one per representative, shared by its orbit.
Signs and witnesses need no orbit: the lexicographically first member of
the orbit of e is (-e_1, ..., -e_k).

For k = 1 and c > 1 all coefficients on the parity support (|j| <= n,
n - j even) are strictly positive; for c < -1 every coefficient has sign
(-1)^n; for |c| < 1 neither pattern survives.  For k > 1 the coefficient of
x_1 at n = 3 is 3 (c/2k) ((2k-1) c^2/k^2 - 1), negative for 0 < c < c_k =
k/sqrt(2k-1), the paper's parameter point; ``sign_survey`` maps that region
empirically.  From c_k up, every coefficient off the origin is >= 0:

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

Odd n has no constant term CT.  At n = 2 it is c^2/k - 1, negative iff
c^2 < k, and at even n >= 4 it is >= 0 from c_k up:

(i) For a >= 1 and n >= 3, the coefficient [U_0] of U_0 in T_n(ax) is
    >= 0: in the expansion of (b) the i = 0 term T_n = (U_n - U_{n-2})/2
    has no U_0; for i >= 1, T_n^(i) = n U_{n-1}^(i-1) is a nonnegative
    U-combination, as is x = U_1/2, and so are products of such, by
    U_m U_n = sum_{l=0}^{min(m,n)} U_{m+n-2l}.
(ii) Only T_0 = U_0 and T_2 = (U_2 - U_0)/2 have a U_0 part, so
    [U_0] T_n(ax) = beta_{n,0}(a) - beta_{n,2}(a)/2 >= 0 by (i).
(iii) CT(T_2(c_k B)) = c_k^2/k - 1 = -(k-1)/(2k-1) > -1/2.  For even
    j >= 4, CT(W_j) = N_j - 2(k-1), N_j the trivial-class words of length
    j, and N_j >= 2(k-1): for j = 2m + 2 and i = 2..k, a_1^m a_i a_1^-m
    a_i^-1 and a_i a_1^m a_i^-1 a_1^-m are distinct such words.  So
    CT(T_j(c_k B)) >= 0.
(iv) By (c), CT(T_n(c B)) = sum_j beta_{n,j}(c/c_k) CT(T_j(c_k B)) >=
    beta_{n,0} - beta_{n,2}/2 >= 0 for even n >= 4, by CT(T_0) = 1, (b),
    (iii) and (ii).

So for c >= c_k only n = 2 with c^2 < k has a negative coefficient, which
is how ``cltstats`` certifies signs there in O(1).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .chebyshev import ChebKind, check_arity, check_kind, orbit_rows, orbit_terms
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
        if not 0 <= n <= self.n_max:
            raise UsageError(f"row {n} not in table (0..{self.n_max})")
        return LaurentPoly(1, {(j - n,): coeff for j, coeff in enumerate(self.rows[n]) if coeff})


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


def _scaled(
    kind: ChebKind, c: Scalar, k: int, n_max: int
) -> Iterator[tuple[Sequence[Exponents], list[int], int]]:
    """(reps, Q_m, s_m) for m = 0..n_max, P_m(A) = Q_m / s_m on reps; the
    arguments and the budget are checked at the call."""
    _check_rows_args(kind, k, n_max)
    c = as_scalar(c)
    kq = k * c.denominator
    q0 = 2 if kind is ChebKind.FIRST else 1
    rows = orbit_rows(c.numerator, kq * kq, q0, k, n_max)
    return ((reps, row, q0 * kq**m) for m, (reps, row) in enumerate(rows))


def _scaled_row(spec: SymChebSpec) -> tuple[Sequence[Exponents], list[int], int]:
    """(reps, Q_n, s_n): the last row of ``_scaled`` for one polynomial."""
    for reps, row, scale in _scaled(spec.kind, spec.c, spec.k, spec.n):
        pass
    return reps, row, scale


def _fractions(
    reps: Sequence[Exponents], row: list[int], divisor: int
) -> dict[Exponents, Fraction]:
    """The nonzero entries of a row over divisor on their orbits, in
    lexicographic order: one Fraction per representative."""
    return dict(orbit_terms(reps, row, lambda entry: Fraction(entry, divisor)))


def _univariate_rows(
    kind: ChebKind, c: Fraction, n_max: int, value: Callable[[int, int], object]
) -> Iterator[tuple]:
    """Rows 0..n_max at k = 1 for j = -m..m: value(entry, s_m) once per
    nonzero kernel entry at j >= 0, mirrored to -j, and value(0, 1) elsewhere.
    The arguments and the budget are checked at the call; each row is made
    as it is read."""
    rows, zero = _scaled(kind, c, 1, n_max), value(0, 1)

    def mirrored() -> Iterator[tuple]:
        for m, (_, row, scale) in enumerate(rows):
            half = [zero] * (m + 1)  # j = 0..m; row holds j = m % 2, m % 2 + 2, ..., m
            half[m % 2 :: 2] = [value(entry, scale) if entry else zero for entry in row]
            yield (*half[:0:-1], *half)

    return mirrored()


def _first(reps: Sequence[Exponents], row: list[int], sign: int) -> tuple[Exponents, int] | None:
    """(exponents, entry) at the lexicographically first term with the sign
    of ``sign``, or None: (-e_1, ..., -e_k) for the largest such e."""
    found = max(((e, entry) for e, entry in zip(reps, row) if entry * sign > 0), default=None)
    return None if found is None else (tuple(-x for x in found[0]), found[1])


def build_sequence(kind: ChebKind, c: Scalar, k: int, n_max: int) -> list[LaurentPoly]:
    """The polynomials for n = 0..n_max, sharing one recurrence pass."""
    rows = _scaled(kind, c, k, n_max)
    return [LaurentPoly._raw(k, _fractions(reps, row, scale)) for reps, row, scale in rows]


def build(spec: SymChebSpec) -> LaurentPoly:
    """Construct T_n(A) or U_n(A) exactly."""
    return LaurentPoly._raw(spec.k, _fractions(*_scaled_row(spec)))


def univariate_table(kind: ChebKind, c: Scalar, n_max: int) -> UnivariateCoeffTable:
    """Rows 0..n_max of the k = 1 coefficient table, read off the kernel.

    Row n holds the coefficients of x^-n..x^n of T_n(A) or U_n(A) and agrees
    exactly with the coefficients of build().
    """
    c = as_scalar(c)
    rows = tuple(_univariate_rows(kind, c, n_max, Fraction))
    return UnivariateCoeffTable(kind=kind, c=c, rows=rows)


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
    s_n > 0) without expanding an orbit.  Rows keep cancelled zeros, so the
    minimum is taken over nonzero entries; it is the only Fraction made."""
    reps, row, scale = _scaled_row(spec)
    negative = _first(reps, row, -1)
    # at k = 1 the row holds exactly the j = 0..n with n - j even
    pattern_ok = None if spec.k > 1 else all(entry > 0 for entry in row)
    return PositivityReport(
        all_nonnegative=negative is None,
        pattern_ok=pattern_ok,
        min_coefficient=Fraction(min((v for v in row if v), default=0), scale),
        witness=None if negative is None else negative[0],
    )


def sign_survey(
    kind: ChebKind, k: int, n_max: int, c_grid: Sequence[Scalar]
) -> list[SurveyRow]:
    """Classify each c by the joint sign behaviour of P_0..P_{n_max}.

    ALL_NONNEG: every coefficient of every P_n is >= 0.  ALTERNATING: every
    coefficient of P_n has sign (-1)^n or is zero.  MIXED: neither pattern
    holds; the witness records the first (n, exponent) ruling out the last
    surviving pattern, scanning n upward and exponents lexicographically:
    in its row, the later of the first term that breaks each pattern.
    """
    _check_rows_args(kind, k, n_max)
    out = []
    for c in c_grid:
        c = as_scalar(c)
        nonneg_ok, alternating_ok = True, True
        witness = None
        for n, (reps, row, scale) in enumerate(_scaled(kind, c, k, n_max)):
            negative = _first(reps, row, -1) if nonneg_ok or n % 2 == 0 else None
            off_sign = (_first(reps, row, 1) if n % 2 else negative) if alternating_ok else None
            nonneg_ok = nonneg_ok and negative is None
            alternating_ok = alternating_ok and off_sign is None
            if not nonneg_ok and not alternating_ok:
                exponents, entry = max(hit for hit in (negative, off_sign) if hit is not None)
                witness = SurveyWitness(n, exponents, Fraction(entry, scale))
                break
        classification = (
            SignClass.ALL_NONNEG if nonneg_ok else
            SignClass.ALTERNATING if alternating_ok else SignClass.MIXED
        )
        out.append(SurveyRow(c=c, classification=classification, witness=witness))
    return out
