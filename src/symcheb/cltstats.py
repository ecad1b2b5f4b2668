"""Coefficient distributions of symmetrized Chebyshev polynomials and their
Gaussian limit.

Where the coefficients of T_n(A), A = (c/2k) sum_i (x_i + 1/x_i), c > 1,
are nonnegative, dividing by the normalizer T_n(c) (the value at
x = (1, ..., 1)) turns them into a probability distribution on the integer
lattice Z^k.  This module computes exact moments of those distributions,
evaluates the characteristic function T_n((c/k) sum_j cos theta_j) / T_n(c),
and adjudicates the variance constant of the n -> infinity Gaussian limit.

Two candidate constants for the per-coordinate variance of z/sqrt(n) ship
side by side:

* ``sigma2_reported``  -- (c/k) [1 + sqrt((c+1)/(c-1))], the constant as
  originally reported for this family of distributions;
* ``sigma2_rederived`` -- c / (k sqrt(c^2-1)), obtained by redoing the
  characteristic-function limit (the cosine Taylor expansion enters with a
  minus sign, and the division by c + sqrt(c^2-1) is applied exactly once).

Exact computation sides with the rederived constant: the second moment
satisfies m2(n) = n (c/k) U_{n-1}(c) / T_n(c) identically, so m2(n)/n
increases to c/(k sqrt(c^2-1)) at a geometric rate.  ``convergence_report``
carries exact values and distances to both constants, so the adjudication
is reproducible rather than assumed.

Moment engines
--------------

Marginal reduction: the distribution of one coordinate l_1 is the
coefficient distribution of the univariate Laurent polynomial obtained by
setting every other variable to 1, i.e. of

    T_n((c/2k)(x + 1/x) + c(k-1)/k).

Rescaled as in ``chebyshev.orbit_rows(a, g, 2, k, n)``, its rows obey
P_{m+1} = (a(x + 1/x) + b) P_m - g P_{m-1} over the ints from P_0 = 2,
b = 2(k-1)a (c/k = a/d in lowest terms and g = d^2, from
``symmetrized._kernel_args``; a = 1, g = 2r-1, k = r for rank-r word
counts), so row n is the Lucas polynomial
V_n(a(x + 1/x) + b, g).  Applying x d/dx at x = 1 gives its moments
M_d = sum_j j^d P_n[j] from the Lucas pair (U_n, V_n) of (P, g), with
P = 2a + b = 2ka and D = P^2 - 4g:

    M0 = V_n,  M2 = 2a n U_n,  M4 = M2 + 12 a^2 n (n V_n - P U_n) / D,

the division exact; for c, M0 = 2 d^n T_n(c), and the scale cancels in
every moment ratio.  The pair steps from one requested n to the next:
O(log n) multiplications for a sparse n list, a short step per n for a
dense one.  Checked: the division at every n, V_n^2 - D U_n^2 = 4 g^n at
the last, and M0 against the word total, or against the kernel's row sum
wherever a row is walked.

Signs are certified once, by ``_certify``, in both modes, at the c given
(a float at its exact value), through ``symmetrized._first_negative``,
where the theorem of ``symmetrized`` is applied: n = 2 is refused wherever
c^2 < k, nothing else fails from c_k = k/sqrt(2k-1) up, and below c_k the
kernel's rows certify n <= 32, each row sum checked against M0, while a
larger n is refused as uncertified.  Off-diagonal covariances
vanish at every n, since each coordinate can be mirrored independently.

Float-normalized mode evaluates the same closed form in floats.  With
t = sqrt(D)/P = tanh y and lambda = 2a/P (t = sqrt(c^2 - 1)/c, lambda = 1/k
for c; t = (r-1)/r, lambda = 1/r for rank r), U_n / V_n = tanh(n y)/sqrt(D)
turns it into

    m2 = lambda n tau_n / t,  m4 = m2 + 3 lambda^2 n w_n / t^3,

with tau_n = tanh(n y) and w_n = n t - tau_n >= 0, found in O(log n) steps
that add nonnegative terms only (``_float_moments``): within 16 ulp of the
exact moments of the same binary c, whatever c and n.  Exact mode is
capped at n = 1024 by default, for every k and for word counts
(``DEFAULT_EXACT_CEILING``); it is a parameter.

Both families are one family here, so one body, ``_convergence``, serves
``convergence_report`` and ``freegroup_convergence_report``: it checks the
mode and the ceiling once, and each front end gives it only its parameter
check, its limit constants and its exact and float rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

from .chebyshev import ChebKind, _root_x2_minus_1, check_arity, orbit_size
from .errors import DomainError, InternalError, UsageError
from .freegroup import check_rank, total_count, trivial_class_correction
from .laurent import Exponents, Scalar, as_scalar
from .symmetrized import _first, _first_negative, _fractions, _kernel_args, _rows

DEFAULT_EXACT_CEILING = 1024

_ZERO = Fraction(0)

MODE_EXACT = "exact"
MODE_FLOAT = "float_normalized"


class LatticeDistribution(NamedTuple):
    """Normalized coefficient distribution of one T_n(A) on Z^k."""

    arity: int
    n: int
    probabilities: dict[Exponents, Fraction]


class MomentReport(NamedTuple):
    """Exact moments of a lattice distribution, with float summaries."""

    n: int
    mean: tuple[Fraction, ...]
    covariance: tuple[tuple[Fraction, ...], ...]
    fourth_moment_diag: tuple[Fraction, ...]
    m2_over_n: tuple[float, ...]
    kurtosis: tuple[float, ...]


class ConvergenceRow(NamedTuple):
    """One n of a convergence report.

    In exact mode ``m2_over_n``, ``kurtosis`` and ``max_offdiag`` are
    Fractions (suitable for exact monotonicity comparisons); in
    float-normalized mode they are floats.  Distances are always floats:
    the absolute gaps |m2/n - sigma2| to the two candidate constants.
    """

    n: int
    m2_over_n: Fraction | float
    kurtosis: Fraction | float
    max_offdiag: Fraction | float
    dist_reported: float
    dist_rederived: float


class ConvergenceReport(NamedTuple):
    c: float
    k: int
    mode: str
    sigma2_reported: float
    sigma2_rederived: float
    rows: tuple[ConvergenceRow, ...]


def distribution(n: int, c: Scalar, k: int) -> LatticeDistribution:
    """The exact coefficient distribution of T_n(A) on Z^k.

    Requires c > 1.  Read off the integer kernel row Q_n = s_n T_n(A), at
    k = 1 made alone by ``univariate_row``: a negative entry raises
    DomainError carrying the witness exponent (the distribution is
    undefined there), the row sum is checked against the exact s_n T_n(c),
    and each probability is one entry over that sum.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    c = as_scalar(c)
    if c <= 1:
        raise DomainError(f"coefficient distributions need c > 1, got c = {c}")
    ((reps, row, _, total),) = _certified_rows(c, k, [n])
    return LatticeDistribution(arity=k, n=n, probabilities=_fractions(reps, row, total))


def moments(dist: LatticeDistribution) -> MomentReport:
    """Exact mean, covariance, and diagonal fourth moments."""
    k = dist.arity
    mean = [_ZERO] * k
    second = [[_ZERO] * k for _ in range(k)]
    fourth = [_ZERO] * k
    for exponents, prob in dist.probabilities.items():
        for i in range(k):
            e_i = exponents[i]
            if e_i:
                mean[i] += e_i * prob
                fourth[i] += e_i**4 * prob
                second[i][i] += e_i * e_i * prob
                for j in range(i + 1, k):
                    if exponents[j]:
                        term = e_i * exponents[j] * prob
                        second[i][j] += term
                        second[j][i] += term
    covariance = tuple(
        tuple(second[i][j] - mean[i] * mean[j] for j in range(k)) for i in range(k)
    )
    return MomentReport(
        n=dist.n,
        mean=tuple(mean),
        covariance=covariance,
        fourth_moment_diag=tuple(fourth),
        m2_over_n=tuple(float(second[i][i] / dist.n) for i in range(k)),
        kurtosis=tuple(float(fourth[i] / second[i][i] ** 2) for i in range(k)),
    )


def char_fn(n: int, c: Scalar | float, k: int, theta: Sequence[float]) -> float:
    """Characteristic function T_n((c/k) sum cos theta_j) / T_n(c).

    Evaluated as a ratio, without cancellation or overflow at any n: with
    rho(x) = |x| + sqrt(x^2 - 1), T_n(x) = sign(x)^n (rho^n + rho^-n) / 2 for
    |x| >= 1 and cos(n acos x) for |x| < 1, so the result is assembled from
    (rho_y / rho_c)^n and powers of 1/rho_c, all at most about 1.  rho/2 is
    formed as x/2 + sqrt(x^2 - 1)/2, exactly half the float of rho(x).
    """
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    check_arity(k)
    c_float = _above_one(c, "characteristic function needs c > 1")
    if len(theta) != k:
        raise UsageError(f"theta has length {len(theta)}, expected k = {k}")
    y = (c_float / k) * sum(math.cos(t) for t in theta)
    half_c = 0.5 * c_float + 0.5 * _root_x2_minus_1(c_float)
    inv_c = (0.5 / half_c) ** n
    if abs(y) < 1.0:
        return math.cos(n * math.acos(y)) * 2.0 * inv_c / (1.0 + inv_c * inv_c)
    half_y = 0.5 * abs(y) + 0.5 * _root_x2_minus_1(abs(y))
    sign = -1.0 if y < 0 and n % 2 else 1.0
    inv_y = (0.5 / half_y) ** n
    return sign * (half_y / half_c) ** n * (1.0 + inv_y * inv_y) / (1.0 + inv_c * inv_c)


def _to_float(value: Scalar | float, name: str) -> float:
    try:
        result = float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for float arithmetic") from None
    if not math.isfinite(result):  # nan would pass every "c <= 1" test
        raise DomainError(f"{name} must be a finite number, got {result}")
    return result


def _above_one(c: Scalar | float, message: str) -> float:
    """c as a float, after checking that c > 1 at its exact value (else
    DomainError ``message``) and that its float is not 1.0."""
    c_float = _to_float(c, "c")
    if c <= 1:
        raise DomainError(f"{message}, got c = {c_float}")
    if c_float == 1.0:
        raise DomainError(
            f"c = {c} is above 1 but rounds to the float 1.0, "
            "where the float variance constants diverge"
        )
    return c_float


def _variance_args(c: Scalar | float, k: int) -> tuple[float, float]:
    """(c, k) as floats; an exact c is tested at its exact value."""
    check_arity(k)
    return _above_one(c, "variance constant is defined for c > 1 only"), _to_float(k, "k")


def sigma2_reported(c: Scalar | float, k: int) -> float:
    """(c/k) [1 + sqrt((c+1)/(c-1))]: the originally reported variance constant."""
    c_float, k_float = _variance_args(c, k)
    sigma2 = (c_float / k_float) * (1.0 + math.sqrt((c_float + 1.0) / (c_float - 1.0)))
    if sigma2 == math.inf:
        raise DomainError(
            f"the reported variance constant at c = {c_float}, k = {k} "
            "is too large for float arithmetic"
        )
    return sigma2


def sigma2_rederived(c: Scalar | float, k: int) -> float:
    """c / (k sqrt(c^2-1)): the variance constant the exact moments converge to."""
    c_float, k_float = _variance_args(c, k)
    if c_float < 2.0**27:
        return c_float / (k_float * _root_x2_minus_1(c_float))
    # sqrt(c^2 - 1) rounds to c: c / (k c), scaled into [1/2, 1) so that k c stays finite
    mantissa = math.frexp(c_float)[0]
    return mantissa / (k_float * mantissa)


def _lucas(big_p: int, g: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of x_{m+1} = P x_m - g x_{m-1}, U_0, U_1 = 0, 1 and
    V_0, V_1 = 2, P, by doubling."""
    big_d = big_p * big_p - 4 * g
    u, v = 0, 2
    for bit in bin(n)[2:]:
        u, v = u * v, (v * v + big_d * u * u) >> 1  # m -> 2m
        if bit == "1":
            u, v = (big_p * u + v) >> 1, (big_d * u + big_p * v) >> 1  # 2m -> 2m + 1
    return u, v


def _moments(a: int, g: int, k: int, ns: list[int], where: str) -> Iterator[tuple]:
    """(n, M0, M2, M4) per n in ns by the closed form of the module docstring,
    for the marginal rows of ``orbit_rows(a, g, 2, k, n)`` (b = 2(k-1)a);
    InternalError ``where`` unless its checks hold."""
    big_p = 2 * k * a  # 2a + b
    big_d = big_p * big_p - 4 * g
    m, u, v, d, du, dv = 0, 0, 2, 0, 0, 2
    for n in ns:
        if n - m != d:  # equal gaps, as in a dense list, reuse (U_d, V_d)
            d = n - m
            du, dv = _lucas(big_p, g, d)
        m, u, v = n, (u * dv + du * v) >> 1, (v * dv + big_d * u * du) >> 1  # addition formulas
        quotient, rest = divmod(n * v - big_p * u, big_d)
        if rest or n == ns[-1] and v * v - big_d * u * u != 4 * g**n:
            raise InternalError(f"moment identity mismatch at n = {n} {where}")
        m2 = 2 * a * n * u
        yield n, v, m2, m2 + 12 * a * a * n * quotient


def _float_moments(lam: float, t: float, ns: list[int]) -> list[tuple[int, float, float]]:
    """(n, m2, m4) per n in ns by the closed form of the module docstring,
    (tau_n, w_n) by binary powering from (0, 0) with the addition formula of
    tanh; DomainError at the first n where m4 or m2^2 is not a finite float."""
    out = []
    for n in ns:
        tau = w = 0.0
        for bit in bin(n)[2:]:
            square = tau * tau
            tau, w = 2 * tau / (1 + square), 2 * w + 2 * tau * square / (1 + square)  # m -> 2m
            if bit == "1":
                s, p = tau + t, tau * t
                tau, w = s / (1 + p), w + s * p / (1 + p)  # m -> m + 1
        try:
            m2 = lam * n * tau / t
            m4 = m2 + 3 * lam * lam * n * w / (t * t * t)
        except OverflowError:  # n itself is past the float range
            m2 = m4 = math.inf
        if max(m4, m2 * m2) == math.inf:
            raise DomainError(f"the float moments at n = {n} are past the float range")
        out.append((n, m2, m4))
    return out


def _check_n_list(n_list: Sequence[int]) -> list[int]:
    ns = list(n_list)
    if not ns:
        raise UsageError("n list must not be empty")
    if any(not isinstance(n, int) or n < 1 for n in ns):
        raise UsageError(f"n values must be positive integers, got {ns!r}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError(f"n values must be strictly increasing, got {ns!r}")
    return ns


# ---------------------------------------------------------------------------
# Sign certification
# ---------------------------------------------------------------------------


def _negative(exponents: Exponents, value: Fraction) -> DomainError:
    return DomainError(
        f"coefficient at {list(exponents)} is negative ({value}); "
        "the coefficient distribution is undefined",
        witness=exponents,
    )


def _certified_rows(c: Fraction, k: int, ns: list[int]) -> Iterator[tuple[tuple, list, int, int]]:
    """(reps, Q_n, s_n, sum of Q_n) per n in ns for the kernel rows Q_n =
    s_n T_n(A) of ``_rows``.  Raises the DomainError of ``distribution``
    at the first negative coefficient, and InternalError unless the row
    sum, sum_e |orbit(e)| Q_n[e], is M0 = 2 d^n T_n(c)."""
    a, g, _, _ = _kernel_args(ChebKind.FIRST, c, k)
    rows, moments = _rows(ChebKind.FIRST, c, k, ns), _moments(a, g, k, ns, f"for c = {c}, k = {k}")
    for (reps, row, scale), (_, m0, _, _) in zip(rows, moments):
        negative = _first(reps, row)
        if negative is not None:
            raise _negative(negative[0], Fraction(negative[1], scale))
        if sum(orbit_size(e) * entry for e, entry in zip(reps, row)) != m0:
            raise InternalError("normalizer mismatch between build and direct evaluation")
        yield reps, row, scale, m0


def _certify(c: Fraction, k: int, ns: list[int]) -> None:
    """Certify that every coefficient of T_n(A) is nonnegative at each n in
    ns, or raise DomainError; c > 1 (a float c enters at its exact value).
    ``symmetrized._first_negative`` decides, by the theorem where it
    applies and else by the rows of ``_certified_rows``."""
    witness = _first_negative(ChebKind.FIRST, c, k, ns, partial(_certified_rows, c, k, ns))
    if witness is not None:
        raise _negative(witness.exponents, witness.value)


def marginal_moments_exact(
    c: Scalar, k: int, n_list: Sequence[int]
) -> list[tuple[int, Fraction, Fraction]]:
    """Exact (n, m2, m4) of one coordinate of the distribution, per n.

    Closed form in the Lucas pair of the integer marginal rows (module
    docstring); a failed check raises InternalError.  Joint nonnegativity
    is certified first by ``_certify`` (the theorem for c >= c_k, kernel
    rows below), which raises DomainError with the witness exponent, or
    with "uncertified" beyond the rows it can afford.
    """
    check_arity(k)
    ns = _check_n_list(n_list)
    c = as_scalar(c)
    if c <= 1:
        raise DomainError(f"coefficient distributions need c > 1, got c = {c}")
    _certify(c, k, ns)
    a, g, _, _ = _kernel_args(ChebKind.FIRST, c, k)
    moments = _moments(a, g, k, ns, f"for c = {c}, k = {k}")
    return [(m, Fraction(m2, m0), Fraction(m4, m0)) for m, m0, m2, m4 in moments]


def marginal_moments_float(
    c: Scalar | float, k: int, n_list: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Float-normalized (n, m2, m4) of one coordinate, per n.

    The closed form in tanh(n acosh c), O(log n) float steps per n, with t
    formed to keep its bits near c = 1 and not overflow.  Signs are certified
    as in ``marginal_moments_exact``, at the c given (a float at its value)."""
    check_arity(k)
    ns = _check_n_list(n_list)
    c_float = _above_one(c, "coefficient distributions need c > 1")
    _certify(Fraction(c), k, ns)
    t = math.sqrt(c_float - 1.0) * math.sqrt(c_float + 1.0) / c_float
    return _float_moments(1 / k, t, ns)


def fg_marginal_moments_exact(
    r: int, n_list: Sequence[int]
) -> list[tuple[int, Fraction, Fraction]]:
    """Exact (n, m2, m4) of one coordinate of the cyclically-reduced-word
    count distribution in rank r, trivial-class correction included.

    Closed form in the Lucas pair of the rescaled count recurrence's
    integer marginal, V_{m+1} = (x + 1/x + 2(r-1)) V_m - (2r-1) V_{m-1},
    with M0 = (2r-1)^n + 1 checked against the total count, divided by the
    corrected total (2r-1)^n + 1 + (r-1)(1 + (-1)^n).
    """
    ns = _check_n_list(n_list)
    check_rank(r)
    out = []
    for m, m0, m2, m4 in _moments(1, 2 * r - 1, r, ns, f"for rank {r}"):
        total = total_count(r, m)
        if m0 + trivial_class_correction(r, m) != total:
            raise InternalError(f"count total mismatch at n = {m} for rank {r}")
        out.append((m, Fraction(m2, total), Fraction(m4, total)))
    return out


def fg_marginal_moments_float(
    r: int, n_list: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Float-normalized counterpart of fg_marginal_moments_exact."""
    ns = _check_n_list(n_list)
    check_rank(r)
    out = []
    for m, m2, m4 in _float_moments(1 / r, (r - 1) / r, ns):
        # Trivial-class correction, applied as the correctly rounded ratio
        # (total - correction) / total.  It is 1.0 once total > (2r-1)^m >=
        # 2^54 correction, which m (bit_length(2r-1) - 1) bits certify without
        # the O(m)-bit total; odd m has no correction.
        correction = trivial_class_correction(r, m)
        if correction and m * ((2 * r - 1).bit_length() - 1) < 54 + correction.bit_length():
            total = total_count(r, m)
            factor = (total - correction) / total
            m2, m4 = m2 * factor, m4 * factor
        out.append((m, m2, m4))
    return out


# ---------------------------------------------------------------------------
# Convergence reports
# ---------------------------------------------------------------------------


def _convergence(
    mode: str,
    k: int,
    check: Callable[[int], None],
    n_list: Sequence[int],
    exact_ceiling: int | None,
    constants: Callable[[], tuple[float, float, float]],
    exact_rows: Callable[[list[int]], list[tuple]],
    float_rows: Callable[[list[int]], list[tuple]],
) -> ConvergenceReport:
    """The report of one family, for both report functions.  Checks, in
    this order: the mode, ``check(k)``, the n list, the ceiling argument,
    ``constants()`` = (c, sigma2_reported, sigma2_rederived) and, in exact
    mode, that no n is above the ceiling.  Then ``exact_rows(ns)`` or
    ``float_rows(ns)`` gives (n, m2, m4) per n, with the structural zero of
    the mode as every max_offdiag."""
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise UsageError(f"mode must be {MODE_EXACT!r} or {MODE_FLOAT!r}, got {mode!r}")
    check(k)
    ns = _check_n_list(n_list)
    if exact_ceiling is not None and (not isinstance(exact_ceiling, int) or exact_ceiling < 1):
        raise UsageError(f"the exact-mode ceiling must be a positive integer, got {exact_ceiling!r}")
    c, s2_reported, s2_rederived = constants()
    ceiling = DEFAULT_EXACT_CEILING if exact_ceiling is None else exact_ceiling
    if mode == MODE_EXACT and ns[-1] > ceiling:
        raise UsageError(
            f"n = {ns[-1]} exceeds the exact-mode ceiling of {ceiling}; "
            f"use mode={MODE_FLOAT!r} or raise the ceiling"
        )
    rows = (exact_rows if mode == MODE_EXACT else float_rows)(ns)
    max_offdiag = _ZERO if mode == MODE_EXACT else 0.0
    out = []
    for n, m2, m4 in rows:
        m2_over_n = m2 / n
        out.append(
            ConvergenceRow(
                n=n,
                m2_over_n=m2_over_n,
                kurtosis=m4 / (m2 * m2),
                max_offdiag=max_offdiag,
                dist_reported=abs(float(m2_over_n) - s2_reported),
                dist_rederived=abs(float(m2_over_n) - s2_rederived),
            )
        )
    return ConvergenceReport(c, k, mode, s2_reported, s2_rederived, tuple(out))


def convergence_report(
    c: Scalar | float,
    k: int,
    n_list: Sequence[int],
    mode: str = MODE_EXACT,
    exact_ceiling: int | None = None,
) -> ConvergenceReport:
    """Per-n variance and kurtosis summaries with distances to both
    candidate limit constants.

    Exact mode requires a rational c and every n at or below the ceiling
    (1024 unless overridden; an explicit ceiling must be a positive
    integer); beyond it, use float-normalized mode.  Below c_k =
    k/sqrt(2k-1), a list that holds n = 2 is refused at n = 2, and else
    an n above 32 is refused as uncertified, in either mode.
    Exact moments come from the closed form in the Lucas pair, with its checks.
    Signs are certified by the marginal moment functions, the same way in
    both modes (module docstring).  Off-diagonal covariances are reported as
    the exact structural zero (each coordinate can be mirrored
    independently, forcing E[l_i l_j] = 0 at every n).
    """

    def constants() -> tuple[float, float, float]:
        s2 = sigma2_reported(c, k), sigma2_rederived(c, k)
        if mode == MODE_EXACT and isinstance(c, float):
            raise UsageError("exact mode requires a rational c (int or Fraction)")
        return (float(c), *s2)

    return _convergence(
        mode, k, check_arity, n_list, exact_ceiling, constants,
        partial(marginal_moments_exact, c, k), partial(marginal_moments_float, c, k),
    )


def freegroup_convergence_report(
    r: int,
    n_list: Sequence[int],
    mode: str = MODE_FLOAT,
    exact_ceiling: int | None = None,
) -> ConvergenceReport:
    """Convergence report for the count distributions of rank r.

    The underlying parameter c = r/sqrt(2r-1) is irrational, so rows run on
    the integer-rescaled count recurrence instead of a rational c.  The
    rederived constant simplifies algebraically to exactly 1/(r-1); the
    reported constant is evaluated at the same parameter point.  Exact mode
    has the ceiling of ``convergence_report``.
    """

    def constants() -> tuple[float, float, float]:
        c = _to_float(r, "r") / math.sqrt(_to_float(2 * r - 1, "2r - 1"))
        return c, sigma2_reported(c, r), 1.0 / (r - 1)

    return _convergence(
        mode, r, check_rank, n_list, exact_ceiling, constants,
        partial(fg_marginal_moments_exact, r), partial(fg_marginal_moments_float, r),
    )
