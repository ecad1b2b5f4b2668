"""Symmetrized Chebyshev Laurent polynomials and their coefficient signs.

For a rational parameter c and arity k, let

    A = (c / 2k) * sum_i (x_i + 1/x_i).

The symmetrized polynomials are T_n(A) (first kind) and U_n(A) (second
kind): Laurent polynomials in k variables, symmetric under every x_i -> 1/x_i
and under permutations of the variables.  The canonical construction is the
three-term recurrence P_{m+1} = 2A P_m - P_{m-1}, run on integers by
``chebyshev.orbit_rows`` on one representative e_1 >= ... >= e_k >= 0 per
orbit of those symmetries: it computes Q_m = s_m P_m(A) for the scale
s_m = 2 d^m (first kind) or d^m (second kind), c/k = a/d in lowest terms
(``_kernel_args``).  ``_rows`` is every caller's row source.  One row at
k = 1 (``build``, ``positivity_report``, ``cltstats.distribution`` and
the command line's ``coeffs``) comes from ``chebyshev.univariate_row``
instead: the Chebyshev equation of P_n, run as a recurrence in the
exponent j from x^n down, in O(n) steps with one exact division each, a
remainder raising InternalError.
``table`` and ``build_sequence`` read every row and keep the kernel;
``sign_survey`` reads rows only where ``_first_negative`` needs them.
Only rows a caller reads become Fractions, one per representative, shared
by its orbit.  Signs and witnesses need no orbit:
the lexicographically first member of the orbit of e is (-e_1, ..., -e_k).

For k = 1 and c > 1 all coefficients on the parity support (|j| <= n,
n - j even) are strictly positive; for c < -1 every coefficient has sign
(-1)^n; for |c| < 1 neither pattern survives.  For k > 1 the coefficient of
x_1 at n = 3 is 3 (c/2k) ((2k-1) c^2/k^2 - 1), negative for 0 < c < c_k =
k/sqrt(2k-1), the paper's parameter point, below which only rows decide
signs.  From c_k up, every coefficient off the origin is >= 0:

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

So for c >= c_k only n = 2 with c^2 < k has a negative coefficient.
``_first_negative`` is the one place that applies this, for ``sign_survey``
and ``cltstats``: for T_n at c > 0 it reads no row where it decides.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .chebyshev import ChebKind, _check_row_size, check_arity, check_kind, orbit_rows
from .chebyshev import orbit_terms, univariate_row
from .errors import DomainError, UsageError
from .laurent import Exponents, LaurentPoly, Scalar, as_scalar

_ZERO = Fraction(0)
FULL_TABLE_CEILING = 32  # how far ``_first_negative`` reads rows of T below c_k


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


def _row_range(kind: ChebKind, k: int, n_max: int) -> range:
    """The rows 0..n_max, after the kind, k and n_max are checked."""
    check_kind(kind)
    check_arity(k)
    if not isinstance(n_max, int) or n_max < 0:
        raise UsageError(f"n_max must be a nonnegative integer, got {n_max!r}")
    return range(n_max + 1)


def _kernel_args(kind: ChebKind, c: Scalar, k: int) -> tuple[int, int, int, int]:
    """(a, g, q0, d) of the kernel rows Q_m = q0 d^m P_m(A), the only map
    from (c, k) to kernel integers: A = (a/2d) S with c/k = a/d in lowest
    terms, so Q_{m+1} = a S Q_m - g Q_{m-1}, g = d^2, from Q_0 = q0 = 2
    (first kind) or 1 (second kind).  A depends on c and k only through
    c/k, and a, d coprime keep a common factor out of every entry and
    scale; the kind and k are checked."""
    check_kind(kind)
    check_arity(k)
    ratio = as_scalar(c) / k
    d = ratio.denominator
    return ratio.numerator, d * d, 2 if kind is ChebKind.FIRST else 1, d


def _rows(
    kind: ChebKind, c: Scalar, k: int, ns: Sequence[int]
) -> Iterator[tuple[Sequence[Exponents], list[int], int]]:
    """(reps, Q_n, s_n) for each n of the increasing ns, P_n(A) = Q_n / s_n
    on reps: the one row source.  One row at k = 1 comes from
    ``univariate_row``, without rows 0..n - 1; anything else from one
    kernel walk to ns[-1].  The arguments and the budget are checked at
    the call, before anything is built; ns may be a range of any length."""
    a, g, q0, d = _kernel_args(kind, c, k)
    if k == 1 and ns[0] == ns[-1]:
        n = ns[0]
        row = univariate_row(a, g, q0, n)  # checks the budget before reps is listed
        reps = [(j,) for j in range(n % 2, n + 1, 2)]
        return iter([(reps, row, q0 * d**n)])
    walk = enumerate(orbit_rows(a, g, q0, k, ns[-1]))
    return ((reps, row, q0 * d**m) for m, (reps, row) in walk if m in ns)


def _fractions(
    reps: Sequence[Exponents], row: list[int], divisor: int
) -> dict[Exponents, Fraction]:
    """The nonzero entries of a row over divisor on their orbits, in
    lexicographic order: one Fraction per representative."""
    return dict(orbit_terms(reps, row, lambda entry: Fraction(entry, divisor)))


def _univariate_rows(
    kind: ChebKind, c: Fraction, n_max: int, values: Callable[[int], Callable[[int], object]]
) -> Iterator[tuple]:
    """Rows 0..n_max at k = 1 for j = -m..m: values(s_m)(entry) once per
    nonzero kernel entry at j >= 0, mirrored to -j, and values(1)(0)
    elsewhere.  The arguments and the budget are checked at the call; each
    row is made as it is read."""
    rows, zero = _rows(kind, c, 1, _row_range(kind, 1, n_max)), values(1)(0)

    def mirrored() -> Iterator[tuple]:
        for m, (_, row, scale) in enumerate(rows):
            value = values(scale)
            half = [zero] * (m + 1)  # j = 0..m; row holds j = m % 2, m % 2 + 2, ..., m
            half[m % 2 :: 2] = [value(entry) if entry else zero for entry in row]
            yield (*half[:0:-1], *half)

    return mirrored()


def _first(reps: Sequence[Exponents], row: list[int]) -> tuple[Exponents, int] | None:
    """(exponents, entry) at the lexicographically first negative term, or
    None: (-e_1, ..., -e_k) for the largest such e."""
    found = max(((e, entry) for e, entry in zip(reps, row) if entry < 0), default=None)
    return None if found is None else (tuple(-x for x in found[0]), found[1])


def _first_negative(
    kind: ChebKind, c: Fraction, k: int, ns: Sequence[int],
    rows: Callable[[], Iterable] | None = None,
) -> SurveyWitness | None:
    """The lexicographically first negative coefficient of the first P_n,
    n in the increasing ns, that has one, or None: the one place where the
    theorem of the module docstring decides signs.  For the first kind at
    c > 0, with no row read, n = 2 has the constant term c^2/k - 1 < 0
    wherever c^2 < k (its witness is a term of k coordinates, so a k over
    the budget is refused first), and from c_k up nothing else is negative;
    below c_k, an n above FULL_TABLE_CEILING is refused as uncertified.
    Where the theorem does not decide, rows() (default ``_rows``), giving
    (reps, Q_n, s_n, ...) per n in ns, is read up to the first negative
    entry."""
    p, q = c.numerator, c.denominator
    if kind is ChebKind.FIRST and p > 0:
        if 2 in ns and p * p < k * q * q:
            _check_row_size(k, 0)
            return SurveyWitness(2, (0,) * k, Fraction(p * p - k * q * q, k * q * q))
        if p * p * (2 * k - 1) >= k * k * q * q:
            return None
        if ns[-1] > FULL_TABLE_CEILING:
            n = next(n for n in ns if n > FULL_TABLE_CEILING)
            raise DomainError(
                f"the distribution at n = {n} is uncertified: for c < k/sqrt(2k-1) "
                f"(k = {k}) coefficient signs are certified row by row only up to "
                f"n = {FULL_TABLE_CEILING}"
            )
    for n, (reps, row, scale, *_) in zip(ns, rows() if rows else _rows(kind, c, k, ns)):
        negative = _first(reps, row)
        if negative is not None:
            return SurveyWitness(n, negative[0], Fraction(negative[1], scale))
    return None


def build_sequence(kind: ChebKind, c: Scalar, k: int, n_max: int) -> list[LaurentPoly]:
    """The polynomials for n = 0..n_max, sharing one recurrence pass."""
    rows = _rows(kind, c, k, _row_range(kind, k, n_max))
    return [LaurentPoly._raw(k, _fractions(reps, row, scale)) for reps, row, scale in rows]


def build(spec: SymChebSpec) -> LaurentPoly:
    """Construct T_n(A) or U_n(A) exactly."""
    ((reps, row, scale),) = _rows(spec.kind, spec.c, spec.k, [spec.n])
    return LaurentPoly._raw(spec.k, _fractions(reps, row, scale))


def univariate_table(kind: ChebKind, c: Scalar, n_max: int) -> UnivariateCoeffTable:
    """Rows 0..n_max of the k = 1 coefficient table, read off the kernel.

    Row n holds the coefficients of x^-n..x^n of T_n(A) or U_n(A) and agrees
    exactly with the coefficients of build().
    """
    c = as_scalar(c)
    rows = tuple(_univariate_rows(kind, c, n_max, lambda s: partial(Fraction, denominator=s)))
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
    ((reps, row, scale),) = _rows(spec.kind, spec.c, spec.k, [spec.n])
    negative = _first(reps, row)
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
    P_n(-A) = (-1)^n P_n(A), so a term breaks the alternating pattern at c
    where it is negative at -c: each pattern is one ``_first_negative``.
    """
    ns = _row_range(kind, k, n_max)
    out = []
    for c in map(as_scalar, c_grid):
        _check_row_size(k, n_max)  # the rows that the theorem spares are refused too
        negative = _first_negative(kind, c, k, ns)
        flipped = negative and _first_negative(kind, -c, k, ns)
        off_sign = flipped and flipped._replace(value=flipped.value * (-1) ** flipped.n)
        broken = (negative is not None) + (off_sign is not None)  # SignClass is in this order
        out.append(SurveyRow(c, list(SignClass)[broken], off_sign and max(negative, off_sign)))
    return out
