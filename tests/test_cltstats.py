import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symcheb import (
    ChebKind,
    DomainError,
    InternalError,
    SymChebSpec,
    UsageError,
    build,
    build_sequence,
    char_fn,
    cheb_coeffs,
    cltstats,
    convergence_report,
    freegroup,
    distribution,
    freegroup_convergence_report,
    moments,
    sigma2_rederived,
    sigma2_reported,
    sign_survey,
)
from symcheb.cltstats import (
    MODE_EXACT,
    MODE_FLOAT,
    fg_marginal_moments_exact,
    fg_marginal_moments_float,
    marginal_moments_exact,
    marginal_moments_float,
)

from oracles import constant_term, lattice_rows, walk_counts

T = ChebKind.FIRST


@pytest.mark.parametrize(
    "call",
    [
        lambda k: SymChebSpec(T, 2, F(2), k),
        lambda k: build_sequence(T, F(2), k, 2),
        lambda k: sign_survey(T, k, 2, [F(2)]),
        lambda k: convergence_report(F(2), k, [4]),
        lambda k: convergence_report(2.0, k, [4], mode=MODE_FLOAT),
        lambda k: marginal_moments_exact(F(2), k, [4]),
        lambda k: marginal_moments_float(2.0, k, [4]),
        lambda k: sigma2_reported(2, k),
        lambda k: sigma2_rederived(2, k),
        lambda k: char_fn(3, 2, k, []),
    ],
    ids=[
        "SymChebSpec",
        "build_sequence",
        "sign_survey",
        "convergence_report",
        "convergence_report_float",
        "marginal_moments_exact",
        "marginal_moments_float",
        "sigma2_reported",
        "sigma2_rederived",
        "char_fn",
    ],
)
@pytest.mark.parametrize("k", [0, -1, 2.5, "2"])
def test_arity_is_validated(call, k):
    # k = -1 used to give a negative variance and k = 0 a ZeroDivisionError
    with pytest.raises(UsageError, match=f"^k must be a positive integer, got {k!r}$"):
        call(k)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: sigma2_reported(c, 1),
        lambda c: sigma2_rederived(c, 2),
        lambda c: char_fn(4, c, 1, [0.0]),
        lambda c: marginal_moments_float(c, 1, [4]),
        lambda c: convergence_report(c, 1, [4], mode=MODE_FLOAT),
    ],
    ids=["sigma2_reported", "sigma2_rederived", "char_fn", "marginal_moments_float",
         "convergence_report_float"],
)
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_c_is_rejected(call, c):
    # nan used to pass every "c <= 1" test and come back as a nan result
    with pytest.raises(DomainError, match="^c must be a finite number, got "):
        call(c)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda c: char_fn(3, c, 1, [0.0]), "characteristic function needs c > 1"),
        (lambda c: marginal_moments_float(c, 1, [4]), "coefficient distributions need c > 1"),
    ],
    ids=["char_fn", "marginal_moments_float"],
)
def test_exact_c_above_one_that_rounds_to_one(call, message):
    # these used to say "needs c > 1, got c = 1.0" of a c above 1
    with pytest.raises(DomainError, match=r"^c = 100000000000000000001/100000000000000000000 "
                       r"is above 1 but rounds to the float 1\.0, "):
        call(F(10**20 + 1, 10**20))
    for c in (F(1), 1.0):
        with pytest.raises(DomainError, match=f"^{message}, got c = 1.0$"):
            call(c)


def moment_rows(a, b, g):
    """Oracle: (M0, M2, M4) of rows 0, 1, 2, ... of the row recurrence with
    rows [2] and [a, b, a], M_d = sum_j j^d row_j, by the recurrence the
    moments of consecutive symmetric rows obey (odd moments vanish)."""
    prev, cur = (2, 0, 0), (2 * a + b, 2 * a, 2 * a)
    yield prev
    while True:
        yield cur
        m0, m2, m4 = cur
        prev, cur = cur, (
            (2 * a + b) * m0 - g * prev[0],
            a * (2 * m2 + 2 * m0) + b * m2 - g * prev[1],
            a * (2 * m4 + 12 * m2 + 2 * m0) + b * m4 - g * prev[2],
        )


@st.composite
def n_lists(draw):
    """A dense list 1..n_max or a sparse sorted one, n_max <= 300."""
    n_max = draw(st.integers(1, 300))
    if draw(st.booleans()):
        return list(range(1, n_max + 1))
    return sorted(draw(st.sets(st.integers(1, n_max), min_size=1, max_size=6)) | {n_max})


def scaled_cheb(n, c):
    """Oracle: (d^n T_n(c), d^(n-1) U_(n-1)(c), d) for c = a/d and n >= 1, by an
    integer scalar loop."""
    a, d = c.numerator, c.denominator
    t_prev, t, u_prev, u = 1, a, 0, 1
    for _ in range(n - 1):
        t_prev, t = t, 2 * a * t - d * d * t_prev
        u_prev, u = u, 2 * a * u - d * d * u_prev
    return t, u, d


def row_moments(row, m):
    """Oracle: (sum, sum j^2 row_j, sum j^4 row_j) of row m, j = -m..m."""
    pairs = list(enumerate(row, -m))
    return sum(row), sum(j**2 * v for j, v in pairs), sum(j**4 * v for j, v in pairs)


def exact_rows(alpha, beta, gamma, row0, row1):
    """Oracle: rows 0, 1, 2, ... of P_{m+1} = (alpha (x + 1/x) + beta) P_m
    - gamma P_{m-1} over the ints, row m dense for j = -m..m."""
    yield row0
    yield row1
    prevprev, prev, m = row0, row1, 1
    while True:
        cur = [0] * (2 * m + 3)
        for idx, coeff in enumerate(prev):  # idx = j + m; in cur, j sits at idx + 1
            cur[idx] += alpha * coeff
            cur[idx + 1] += beta * coeff
            cur[idx + 2] += alpha * coeff
        for idx, coeff in enumerate(prevprev):  # idx = j + m - 1; in cur, j at idx + 2
            cur[idx + 2] -= gamma * coeff
        yield cur
        prevprev, prev = prev, cur
        m += 1


def marginal_rows(c, k, n_max):
    """Oracle: the integer c-marginal rows 0..n_max, entry by entry."""
    p, kq = c.numerator, k * c.denominator
    beta = 2 * (k - 1) * p
    rows = exact_rows(p, beta, kq * kq, [2], [p, beta, p])
    return [next(rows) for _ in range(n_max + 1)]


class TestDistribution:
    def test_degree_one(self):
        d = distribution(1, F(2), 1)
        assert d.probabilities == {(1,): F(1, 2), (-1,): F(1, 2)}

    def test_degree_two(self):
        d = distribution(2, F(2), 1)
        assert d.probabilities == {(2,): F(2, 7), (0,): F(3, 7), (-2,): F(2, 7)}

    @pytest.mark.parametrize("n,c,k", [(5, F(3, 2), 1), (4, F(2), 2), (3, F(3), 3)])
    def test_normalization_is_exact(self, n, c, k):
        d = distribution(n, c, k)
        assert sum(d.probabilities.values()) == 1
        assert all(p > 0 for p in d.probabilities.values())

    def test_rejects_c_at_most_one(self):
        with pytest.raises(DomainError):
            distribution(3, F(1), 1)
        with pytest.raises(DomainError):
            distribution(3, F(1, 2), 1)

    def test_negative_coefficient_carries_witness(self):
        with pytest.raises(DomainError) as info:
            distribution(3, F(11, 10), 2)
        assert info.value.witness == (-1, 0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(UsageError):
            distribution(0, F(2), 1)

    @settings(max_examples=120, deadline=None)
    @given(
        num=st.integers(1, 30),
        den=st.integers(1, 9),
        k=st.integers(1, 3),
        n=st.integers(1, 8),
    )
    def test_matches_fraction_polynomial(self, num, den, k, n):
        # Oracle: the Fraction polynomial build(spec), divided by its sum,
        # or the first negative term in its lexicographic term order.
        c = 1 + F(num, den)
        terms = list(build(SymChebSpec(T, n, c, k)).terms())
        negative = [(e, v) for e, v in terms if v < 0]
        if negative:
            exponents, value = negative[0]
            with pytest.raises(DomainError) as info:
                distribution(n, c, k)
            assert info.value.witness == exponents
            assert str(info.value) == (
                f"coefficient at {list(exponents)} is negative ({value}); "
                "the coefficient distribution is undefined"
            )
        else:
            total = sum(v for _, v in terms)
            got = distribution(n, c, k).probabilities
            assert list(got.items()) == [(e, v / total) for e, v in terms]

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 40), q=st.integers(1, 10), k=st.integers(1, 4), n=st.integers(1, 9))
    def test_matches_full_lattice(self, p, q, k, n):
        c = F(p, q)
        assume(c > 1)
        if k == 4:
            n = min(n, 6)
        kq = k * q
        *_, row = lattice_rows(p, kq * kq, 2, k, n)
        negative = [e for e, v in row.items() if v < 0]
        if negative:
            with pytest.raises(DomainError) as info:
                distribution(n, c, k)
            assert info.value.witness == negative[0]
        else:
            total = sum(row.values())
            got = distribution(n, c, k).probabilities
            assert list(got.items()) == [(e, F(v, total)) for e, v in row.items() if v]

    def test_normalizer_mismatch_is_internal_error(self, monkeypatch):
        # a sign flip of the Lucas pair keeps its own identities; only the
        # kernel's row sum can see it
        original = cltstats._lucas

        def sign_flipped(big_p, g, n):
            u, v = original(big_p, g, n)
            return -u, -v

        monkeypatch.setattr(cltstats, "_lucas", sign_flipped)
        with pytest.raises(InternalError) as info:
            distribution(3, F(2), 1)
        assert str(info.value) == "normalizer mismatch between build and direct evaluation"


class TestMoments:
    def test_second_moment_n2(self):
        report = moments(distribution(2, F(2), 1))
        assert report.covariance[0][0] == F(16, 7)
        assert report.mean == (F(0),)

    def test_second_moment_n4(self):
        # T_4(x + 1/x) has coefficients 8, 24, 33, 24, 8 and T_4(2) = 97
        report = moments(distribution(4, F(2), 1))
        assert report.covariance[0][0] == F(448, 97)
        assert report.m2_over_n[0] == pytest.approx(float(F(112, 97)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_odd_moments_vanish(self, n):
        d = distribution(n, F(5, 2), 2)
        third = [F(0), F(0)]
        for exponents, prob in d.probabilities.items():
            for i in range(2):
                third[i] += exponents[i] ** 3 * prob
        assert third == [0, 0]
        assert moments(d).mean == (0, 0)

    def test_covariance_diagonal_with_equal_entries(self):
        for n in range(1, 9):
            report = moments(distribution(n, F(2), 2))
            assert report.covariance[0][1] == 0
            assert report.covariance[1][0] == 0
            assert report.covariance[0][0] == report.covariance[1][1]

    def test_probabilities_symmetric_under_flips_and_permutations(self):
        d = distribution(4, F(5, 2), 2)
        for (e1, e2), prob in d.probabilities.items():
            assert d.probabilities[(-e1, e2)] == prob
            assert d.probabilities[(e1, -e2)] == prob
            assert d.probabilities[(e2, e1)] == prob


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(7, F(2), 1, [0.0]) == pytest.approx(1.0, abs=1e-12)
        assert char_fn(4, F(3, 2), 2, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_degree_one_is_cosine(self):
        for theta in (0.3, 1.2, 2.9):
            assert char_fn(1, F(2), 1, [theta]) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_even_degree_parity(self):
        assert char_fn(2, F(2), 1, [math.pi]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_distribution_sum(self):
        thetas = [-3.0 + 6.0 * i / 99 for i in range(100)]
        for n in range(1, 13):
            for c in (F(3, 2), F(2)):
                d = distribution(n, c, 1)
                for theta in thetas:
                    direct = sum(
                        float(p) * math.cos(e[0] * theta) for e, p in d.probabilities.items()
                    )
                    assert char_fn(n, c, 1, [theta]) == pytest.approx(direct, abs=1e-10)

    def test_validates_arguments(self):
        with pytest.raises(UsageError):
            char_fn(3, F(2), 2, [0.0])
        with pytest.raises(UsageError, match="^n must be a nonnegative integer, got -1$"):
            char_fn(-1, F(2), 1, [0.0])
        with pytest.raises(DomainError):
            char_fn(3, F(1), 1, [0.0])

    @pytest.mark.parametrize(
        "n,c,k,theta",
        [
            (100, F(2), 1, [1.3]),
            (600, F(11, 10), 1, [0.4]),
            (600, F(3, 2), 1, [3.0]),
            (601, F(3, 2), 1, [3.0]),
            (1000, F(11, 10), 1, [1.0]),
            (1000, F(2), 2, [0.1, 0.3]),
            (1000, F(9, 8), 3, [0.2, 2.0, 2.5]),
        ],
    )
    def test_large_n_matches_exact_ratio(self, n, c, k, theta):
        y = (float(c) / k) * sum(math.cos(t) for t in theta)
        t_y, _, d_y = scaled_cheb(n, F(y))
        t_c, _, d_c = scaled_cheb(n, c)
        exact = F(t_y * d_c**n, d_y**n * t_c)
        bound = float(F(d_c**n, t_c))  # |T_n(y)| <= 1 for |y| < 1
        assert char_fn(n, c, k, theta) == pytest.approx(float(exact), rel=1e-9, abs=1e-9 * bound)

    def test_no_overflow_at_large_n(self):
        assert char_fn(540, F(2), 1, [0.0]) == pytest.approx(1.0, rel=1e-12)
        assert char_fn(5000, F(3), 2, [0.0, 0.0]) == pytest.approx(1.0, rel=1e-9)
        assert char_fn(5000, F(2), 1, [1.0]) == 0.0


class TestVarianceConstants:
    def test_reported_values(self):
        assert sigma2_reported(2, 1) == pytest.approx(5.4641016, abs=1e-6)
        assert sigma2_reported(2, 2) == pytest.approx(2.7320508, abs=1e-6)
        assert sigma2_reported(3, 1) == pytest.approx(7.2426407, abs=1e-6)

    def test_rederived_values(self):
        assert sigma2_rederived(2, 1) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert sigma2_rederived(2, 2) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert sigma2_rederived(3, 1) == pytest.approx(3 / math.sqrt(8), abs=1e-12)

    @pytest.mark.parametrize(
        "c", [10**200, 10**308, 1e200, 1e308], ids=["10^200", "10^308", "1e200", "1e308"]
    )
    def test_huge_c(self, c):
        # c c - 1 overflowed above about 1.34e154: the rederived constant read
        # 0.0 and char_fn nan; sqrt(c^2 - 1) rounds to c from c = 2^27 on
        assert [sigma2_rederived(c, k) for k in (1, 2, 3)] == [1.0, 0.5, 1 / 3]
        assert sigma2_reported(c, 2) == float(c)
        assert char_fn(4, c, 2, [0.0, 0.0]) == 1.0
        assert char_fn(4, c, 2, [0.3, 1.1]) == pytest.approx(
            ((math.cos(0.3) + math.cos(1.1)) / 2) ** 4, rel=1e-15
        )

    @pytest.mark.parametrize("c", [10**308, 1e308], ids=["10^308", "1e308"])
    def test_reported_overflow_is_domain_error(self, c):
        with pytest.raises(DomainError, match=r"^the reported variance constant at c = 1e\+308"):
            sigma2_reported(c, 1)

    def test_rederived_is_unchanged_where_c_squared_is_finite(self):
        for c in (2.0**27, 2.0**27 + 1, 3e9, 1e100, 1.3e154):
            for k in (1, 3, 7):
                assert sigma2_rederived(c, k) == c / (k * math.sqrt(c * c - 1.0))

    @pytest.mark.parametrize(
        "c", [1 + 2**-30, 1 + 1e-7, 1.001], ids=["1+2^-30", "1+1e-7", "1.001"]
    )
    def test_constants_keep_their_bits_near_one(self, c):
        # sqrt(c c - 1) lost bits to cancellation: the rederived constant was
        # 1.5e6 ulp off at c = 1 + 2^-30, and char_fn's rho(c) / 2 46 ulp
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(c)  # the binary value of c
            root = (exact * exact - 1).sqrt()
            for value, expected in [
                (sigma2_rederived(c, 1), exact / root),
                (cltstats._root_x2_minus_1(c), root),
            ]:
                assert abs(Decimal(value) - expected) <= 4 * Decimal(math.ulp(value))

    def test_domain(self):
        for fn in (sigma2_reported, sigma2_rederived):
            with pytest.raises(DomainError):
                fn(1, 1)
            with pytest.raises(DomainError):
                fn(F(1, 2), 1)


class TestMarginalEngine:
    @pytest.mark.parametrize("c,k", [(F(2), 1), (F(3, 2), 1), (F(5, 2), 2), (F(3), 3)])
    def test_exact_identities(self, c, k):
        # independent oracle: sum_j j^2 b_j = n (c/k) U_{n-1}(c) and
        # sum_j b_j = T_n(c), both from the coefficient-vector recurrence
        ns = [1, 2, 3, 4, 8, 16]
        for n, m2, _m4 in marginal_moments_exact(c, k, ns):
            t_n = cheb_coeffs(ChebKind.FIRST, n).evaluate(c)
            u_prev = cheb_coeffs(ChebKind.SECOND, n - 1).evaluate(c)
            assert m2 == F(n) * F(c, k) * u_prev / t_n

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_full_table_moments(self, k):
        c = F(k + 1)
        ns = [1, 2, 3, 5, 8]
        marginal = dict(
            (n, (m2, m4)) for n, m2, m4 in marginal_moments_exact(c, k, ns)
        )
        for n in ns:
            report = moments(distribution(n, c, k))
            assert report.covariance[0][0] == marginal[n][0]
            assert report.fourth_moment_diag[0] == marginal[n][1]

    def test_negative_row_raises_for_k1(self):
        with pytest.raises(DomainError):
            marginal_moments_exact(F(1, 2), 1, [2])

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 40), q=st.integers(1, 9), n=st.integers(1, 6))
    def test_matches_full_distribution_k2(self, p, q, n):
        c = F(p, q)
        assume(c > 1)
        try:
            report = moments(distribution(n, c, 2))
        except DomainError:
            assume(False)  # a negative joint coefficient: no distribution to compare
        (_, m2, m4), = marginal_moments_exact(c, 2, [n])
        assert m2 == report.covariance[0][0]
        assert m4 == report.fourth_moment_diag[0]

    def test_float_rows_are_scanned_like_exact_rows(self):
        # both modes certify the same way, float mode at the float's exact
        # value, and report the joint witness
        cases = [(F(21, 20), 1.05, 2, [4, 8], (-1, -1))]
        cases += [(F(11, 10), 1.1, k, [2, 3, 4, 8, 16], (0,) * k) for k in (2, 3)]
        for c_exact, c_float, k, ns, witness in cases:
            with pytest.raises(DomainError) as exact:
                marginal_moments_exact(c_exact, k, ns)
            with pytest.raises(DomainError) as approx:
                marginal_moments_float(c_float, k, ns)
            assert approx.value.witness == exact.value.witness == witness

    def test_float_moments_stay_finite_at_huge_c(self):
        # the O(n) float recurrence overflowed here; tanh(n acosh c) rounds to
        # 1, and m2 = n/k, m4 = m2 + 3 n (n - 1)/k^2 are those of the limit c -> oo
        assert marginal_moments_float(1e308, 2, [4]) == [(4, 2.0, 11.0)]

    def test_c_below_k_works_when_rows_stay_nonnegative(self):
        # c = 3/2 < k = 2: joint nonnegativity holds here (verified against
        # the full table), and the marginal engine must agree with it
        (_, m2, m4), = marginal_moments_exact(F(3, 2), 2, [4])
        report = moments(distribution(4, F(3, 2), 2))
        assert report.covariance[0][0] == m2
        assert report.fourth_moment_diag[0] == m4

    @pytest.mark.parametrize("c,k", [(2.0, 1), (1.5, 1), (2.0, 2), (1.5, 2)])
    def test_float_matches_exact(self, c, k):
        # at c = 1.5, k = 2 (above 2/sqrt(3)) both modes certify n = 800 by
        # the theorem and the exact constant term, float mode at 1.5 = 3/2
        ns = [1, 2, 4, 8, 16, 32, 64, 800]
        exact = marginal_moments_exact(F(c), k, ns)
        approx = marginal_moments_float(c, k, ns)
        for (n1, m2e, m4e), (n2, m2f, m4f) in zip(exact, approx):
            assert n1 == n2
            assert m2f == pytest.approx(float(m2e), rel=1e-9)
            assert m4f == pytest.approx(float(m4e), rel=1e-9)

    def test_n_list_validation(self):
        with pytest.raises(UsageError):
            marginal_moments_exact(F(2), 1, [4, 2])
        with pytest.raises(UsageError):
            marginal_moments_exact(F(2), 1, [])
        with pytest.raises(UsageError):
            marginal_moments_exact(F(2), 1, [0, 2])


class TestMomentRecurrence:
    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 40), q=st.integers(1, 9), k=st.integers(1, 3), n=st.integers(1, 40))
    def test_matches_row_oracle(self, p, q, k, n):
        c = F(p, q)
        assume(c > 1)
        rows = marginal_rows(c, k, n)
        ns = sorted({1, (n + 1) // 2, n})
        try:
            got = marginal_moments_exact(c, k, ns)
        except DomainError:
            # only the c < k sign certificate may refuse: below c_k beyond the
            # rows it walks, or on a negative kernel row
            assert c < k
            if c * c * (2 * k - 1) < k * k and n > 32:
                return
            kq = k * q
            kernel = list(lattice_rows(p, kq * kq, 2, k, n))
            assert any(min(kernel[m].values()) < 0 for m in ns)
            return
        for m, m2, m4 in got:
            total, second, fourth = row_moments(rows[m], m)
            assert (m2, m4) == (F(second, total), F(fourth, total))

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(2, 5), n=st.integers(1, 60))
    def test_fg_matches_row_oracle(self, r, n):
        beta = 2 * (r - 1)
        rows = exact_rows(1, beta, 2 * r - 1, [2], [1, beta, 1])
        ns = sorted({1, (n + 1) // 2, n})
        got = dict((m, (m2, m4)) for m, m2, m4 in fg_marginal_moments_exact(r, ns))
        for m in range(n + 1):
            total, second, fourth = row_moments(next(rows), m)
            if m in got:
                denom = total + (r - 1) * (1 + (-1) ** m)
                assert got[m] == (F(second, denom), F(fourth, denom))

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 60), q=st.integers(1, 9), k=st.integers(1, 4), ns=n_lists())
    def test_matches_moment_recurrence(self, p, q, k, ns):
        c = F(p, q)
        assume(c > 1)
        kq, beta = k * q, 2 * (k - 1) * p
        oracle = list(islice(moment_rows(p, beta, kq * kq), ns[-1] + 1))
        try:
            got = marginal_moments_exact(c, k, ns)
        except DomainError:
            assert c < k  # only the sign certificate may refuse
            return
        assert got == [(n, F(oracle[n][1], oracle[n][0]), F(oracle[n][2], oracle[n][0]))
                       for n in ns]

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(2, 6), ns=n_lists())
    def test_fg_matches_moment_recurrence(self, r, ns):
        oracle = list(islice(moment_rows(1, 2 * (r - 1), 2 * r - 1), ns[-1] + 1))
        want = []
        for n in ns:
            m0, m2, m4 = oracle[n]
            total = m0 + (r - 1) * (1 + (-1) ** n)
            want.append((n, F(m2, total), F(m4, total)))
        assert fg_marginal_moments_exact(r, ns) == want

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 3), num=st.integers(0, 30), den=st.integers(1, 9))
    def test_rows_nonnegative_for_c_at_least_k(self, k, num, den):
        c = k + F(num, den)
        assume(c > 1)
        assert all(min(row) >= 0 for row in marginal_rows(c, k, 60))

    def test_certificate_at_c_at_least_k_walks_no_row(self, monkeypatch):
        c, k, ns = F(7, 2), 3, [8, 16, 32]
        kq, beta = k * 2, 2 * (k - 1) * 7
        oracle = list(islice(moment_rows(7, beta, kq * kq), ns[-1] + 1))

        def no_rows(*args):
            raise AssertionError("a row was walked at c >= k")

        monkeypatch.setattr(cltstats, "_certified_rows", no_rows)
        report = convergence_report(c, k, ns, exact_ceiling=32)
        want = []
        for n in ns:
            m0, m2, m4 = oracle[n]
            want.append((n, F(m2, n * m0), F(m4 * m0, m2 * m2)))
        assert [(row.n, row.m2_over_n, row.kurtosis) for row in report.rows] == want

    @pytest.mark.parametrize(
        "c,k",
        [(F(3, 2), 2), (F(11, 10), 2), (F(7, 5), 3), (F(2), 3), (F(13, 10), 4), (F(5, 2), 1),
         (F(9, 8), 4)],
    )
    def test_constant_term_matches_kernel_origin(self, c, k):
        n_max = 12
        p, kq = c.numerator, k * c.denominator
        walks = walk_counts(k, n_max // 2)
        for n, row in enumerate(lattice_rows(p, kq * kq, 2, k, n_max)):
            if n and n % 2 == 0:
                assert constant_term(p, kq * kq, n, walks) == row[(0,) * k], n

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), q=st.integers(1, 30), extra=st.integers(0, 60),
           n=st.integers(1, 100).map(lambda h: 2 * h))
    def test_constant_term_above_c_k_is_negative_only_at_n_2(self, k, q, extra, n):
        # the theorem behind the certificate: for c >= c_k = k/sqrt(2k-1) the
        # constant term of T_n(A), n even, is < 0 iff n = 2 and c^2 < k
        kq = k * q
        p = math.isqrt(kq * kq // (2 * k - 1))  # the least p with p^2 (2k-1) >= (kq)^2
        while p * p * (2 * k - 1) < kq * kq:
            p += 1
        p += extra
        negative = constant_term(p, kq * kq, n, walk_counts(k, n // 2)) < 0
        assert negative == (n == 2 and p * p < k * q * q)

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
    @pytest.mark.parametrize(
        "c,k,ns",
        [(F(6, 5), 2, [2, 4]), (F(3, 2), 3, [1, 2, 3, 4, 40]), (F(7, 4), 4, [2, 16]),
         (F(19, 10), 4, [2, 6])],
    )
    def test_above_c_k_only_n_2_is_refused(self, mode, c, k, ns):
        # c_k <= c < sqrt(k): the constant term c^2/k - 1 of n = 2, whatever
        # else is requested, and no row is walked
        assert c * c * (2 * k - 1) >= k * k and c * c < k
        given = c if mode == MODE_EXACT else float(c)
        with pytest.raises(DomainError) as info:
            convergence_report(given, k, ns, mode=mode, exact_ceiling=ns[-1])
        assert info.value.witness == (0,) * k
        exact = F(given)  # float mode certifies at the float's exact value
        assert str(info.value) == (
            f"coefficient at {[0] * k} is negative ({exact * exact / k - 1}); "
            "the coefficient distribution is undefined"
        )
        assert convergence_report(c, k, [n for n in ns if n != 2], exact_ceiling=ns[-1]).rows

    def test_certificate_above_c_k_is_constant_time(self, monkeypatch):
        # the closed-walk counts it replaced took seconds at n = 4000
        def no_rows(*args):
            raise AssertionError("a row was walked at c >= c_k")

        monkeypatch.setattr(cltstats, "_certified_rows", no_rows)
        for c, k in [(F(3, 2), 2), (F(7, 5), 3)]:
            report = convergence_report(c, k, [4000, 10_000], exact_ceiling=10_000)
            assert [row.n for row in report.rows] == [4000, 10_000]

    def test_joint_witness_is_kept(self):
        with pytest.raises(DomainError) as info:
            convergence_report(F(11, 10), 2, [3], mode=MODE_EXACT)
        assert info.value.witness == (-1, 0)
        assert str(info.value) == (
            "coefficient at [-1, 0] is negative (-1221/16000); "
            "the coefficient distribution is undefined"
        )

    def test_exact_at_ten_thousand(self):
        n = 10_000
        (row,) = convergence_report(F(2), 1, [n], mode=MODE_EXACT, exact_ceiling=n).rows
        t, u, _ = scaled_cheb(n, F(2))
        assert row.m2_over_n == F(2 * u, t)  # (c/k) U_(n-1)(c) / T_n(c)
        assert row.dist_rederived < 1e-12
        assert abs(float(row.kurtosis) - 3.0) < 1e-2
        assert row.max_offdiag == 0

    def test_fg_exact_at_ten_thousand(self):
        n = 10_000
        report = freegroup_convergence_report(2, [n - 1, n], mode=MODE_EXACT, exact_ceiling=n)
        for row in report.rows:
            assert abs(float(row.m2_over_n) - 1.0) < 1e-3
            assert abs(float(row.kurtosis) - 3.0) < 1e-2
            assert row.max_offdiag == 0

    def test_nonpositive_ceiling_is_usage_error(self):
        for ceiling in (0, -5, 2.5):
            with pytest.raises(UsageError, match="must be a positive integer"):
                convergence_report(F(2), 1, [4], mode=MODE_EXACT, exact_ceiling=ceiling)
            with pytest.raises(UsageError, match="must be a positive integer"):
                freegroup_convergence_report(2, [4], mode=MODE_EXACT, exact_ceiling=ceiling)


class TestFloatMomentRecurrence:
    """The tanh doubling recurrence of the float moments, against the exact
    moments of the same binary c: within 16 ulp whatever c and n."""

    EPS = 2.0**-52
    NS = [64, 448, 1152, 4096, 20_000]

    def max_rel_error(self, approx, exact):
        return max(
            abs(F(value) - oracle) / oracle
            for (_, *values), (_, *oracles) in zip(approx, exact)
            for value, oracle in zip(values, oracles)
        )

    @pytest.mark.parametrize(
        "c,k",
        [(c, 1) for c in (1 + 2**-30, 1 + 2**-10, 1 + 2**-6, 1.0625, 1.5, 2.0, 2.375)]
        + [(c, 2) for c in (2.625, 2.875, 5.0)]
        + [(3.0, 3), (3.5, 3)],
    )
    def test_accuracy_against_exact(self, c, k):
        # dyadic c is an exact float, so the exact moments of the same c are
        # the oracle; t = sqrt(c - 1) sqrt(c + 1) / c keeps its bits near 1
        approx = marginal_moments_float(c, k, self.NS)
        exact = marginal_moments_exact(F(c), k, self.NS)
        assert [n for n, *_ in approx] == self.NS
        assert self.max_rel_error(approx, exact) <= 16 * self.EPS

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_fg_accuracy_against_exact(self, r):
        approx = fg_marginal_moments_float(r, self.NS)
        exact = fg_marginal_moments_exact(r, self.NS)
        assert self.max_rel_error(approx, exact) <= 16 * self.EPS

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(0, 40).flatmap(  # dyadic c in (1, 6]
            lambda e: st.integers(1, 5 << e).map(lambda m: 1 + F(m, 1 << e))
        ),
        k=st.integers(1, 4),
        ns=st.lists(st.integers(1, 2000), min_size=1, max_size=3, unique=True).map(sorted),
    )
    def test_matches_exact_on_dyadic_c(self, c, k, ns):
        try:
            exact = marginal_moments_exact(c, k, ns)
        except DomainError:
            assume(False)  # a negative or uncertified coefficient: no distribution
        assert self.max_rel_error(marginal_moments_float(float(c), k, ns), exact) <= 16 * self.EPS

    @settings(max_examples=30, deadline=None)
    @given(
        r=st.integers(2, 4),
        ns=st.lists(st.integers(1, 2000), min_size=1, max_size=3, unique=True).map(sorted),
    )
    def test_fg_matches_exact(self, r, ns):
        exact = fg_marginal_moments_exact(r, ns)
        assert self.max_rel_error(fg_marginal_moments_float(r, ns), exact) <= 16 * self.EPS

    @pytest.mark.parametrize("c,k", [(1 + 2**-52, 1), (1 + 2**-40, 1), (1.5, 2), (3.0, 3)])
    def test_default_budget_n(self, c, k):
        # n = 10^8, the default budget, in O(log n) steps; near c = 1 the
        # limit is far off: n acosh(1 + 2^-52) is about 2.1
        n = 10**8
        ((_, m2, _),) = marginal_moments_float(c, k, [n])
        closed = (c / k) * math.tanh(n * math.acosh(c)) / math.sqrt((c - 1) * (c + 1))
        assert m2 / n == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_fg_default_budget_n(self, r):
        # the engine alone: the trivial-class factor's exact total count is
        # O(n) bits long, and rounds to 1.0 long before n = 10^8
        ((n, m2, _),) = cltstats._float_moments(1 / r, (r - 1) / r, [10**8])
        assert m2 / n == pytest.approx(1 / (r - 1), rel=1e-15)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_fg_trivial_class_factor_is_the_exact_ratio(self, r):
        # past the bit-length bound the exact total is skipped, since the
        # correctly rounded ratio is 1.0 there; no bit may change
        ns = list(range(1, 401))
        engine = cltstats._float_moments(1 / r, (r - 1) / r, ns)
        for (n, m2, m4), (_, e2, e4) in zip(fg_marginal_moments_float(r, ns), engine):
            total = freegroup.total_count(r, n)
            factor = (total - freegroup.trivial_class_correction(r, n)) / total
            assert (m2, m4) == (e2 * factor, e4 * factor)

    def test_fg_large_n_skips_the_exact_total(self, monkeypatch):
        calls, total_count = [], cltstats.total_count

        def counted(r, n):
            calls.append((r, n))
            return total_count(r, n)

        monkeypatch.setattr(cltstats, "total_count", counted)
        start = time.perf_counter()
        rows = fg_marginal_moments_float(2, [54, 56, 10**7])
        elapsed = time.perf_counter() - start
        assert calls == [(2, 54)]  # bit lengths certify 3^n >= 2^n >= 2^54 * 2^2 from n = 56 on
        assert [n for n, *_ in rows] == [54, 56, 10**7]
        assert elapsed < 0.25  # the 1.6e7-bit total of n = 10^7 alone took seconds

    def test_hundred_thousand(self):
        (row,) = convergence_report(2.0, 1, [100_000], mode=MODE_FLOAT).rows
        assert abs(row.m2_over_n - 2 / math.sqrt(3)) < 1e-12
        (row,) = freegroup_convergence_report(2, [100_000], mode=MODE_FLOAT).rows
        assert abs(row.m2_over_n - 1.0) < 1e-12


class TestConvergenceReport:
    def test_exact_row_values(self):
        report = convergence_report(F(2), 1, [2, 4], mode=MODE_EXACT)
        assert report.rows[0].m2_over_n == F(8, 7)
        assert report.rows[1].m2_over_n == F(112, 97)
        assert report.rows[1].dist_rederived < report.rows[0].dist_rederived
        assert report.sigma2_reported == pytest.approx(5.4641016, abs=1e-6)

    def test_exact_offdiag_is_zero(self):
        report = convergence_report(F(2), 2, [2, 4, 8], mode=MODE_EXACT)
        assert all(row.max_offdiag == 0 for row in report.rows)

    def test_exact_mode_ceiling(self):
        # one default for k = 1, for k > 1 and for word counts
        reports = [
            lambda **kw: convergence_report(F(2), 1, [1025], mode=MODE_EXACT, **kw),
            lambda **kw: convergence_report(F(2), 2, [1025], mode=MODE_EXACT, **kw),
            lambda **kw: freegroup_convergence_report(2, [1025], mode=MODE_EXACT, **kw),
        ]
        for report in reports:
            with pytest.raises(UsageError, match="exceeds the exact-mode ceiling of 1024;"):
                report()
            assert report(exact_ceiling=1025).rows[0].n == 1025

    def test_certificate_decides_below_the_default_ceiling(self):
        # k > 1 used to take the row-walk limit, 32, as its default ceiling
        assert convergence_report(F(2), 2, [64]).rows[0].n == 64
        with pytest.raises(DomainError, match="^the distribution at n = 40 is uncertified"):
            convergence_report(F(11, 10), 2, [40])

    def test_exact_mode_rejects_float_c(self):
        with pytest.raises(UsageError):
            convergence_report(2.0, 1, [4], mode=MODE_EXACT)

    def test_float_mode(self):
        report = convergence_report(2.0, 1, [16, 256], mode=MODE_FLOAT)
        last = report.rows[-1]
        assert last.m2_over_n == pytest.approx(2 / math.sqrt(3), rel=1e-9)
        # within 0.5% of 2/sqrt(3) and more than 350% away from 2(1+sqrt(3))
        assert last.dist_rederived < 0.005 * report.sigma2_rederived
        assert last.dist_reported > 3.5 * report.sigma2_rederived

    def test_bad_mode(self):
        with pytest.raises(UsageError):
            convergence_report(F(2), 1, [4], mode="fast")
        message = "^mode must be 'exact' or 'float_normalized', got 'bogus'$"
        with pytest.raises(UsageError, match=message):
            freegroup_convergence_report(2, [4], mode="bogus")


class TestFreeGroupLink:
    def test_exact_small_value(self):
        rows = fg_marginal_moments_exact(2, [2])
        n, m2, _ = rows[0]
        assert (n, m2) == (2, F(4, 3))  # m2/n = 2/3

    def test_exact_matches_count_table(self):
        from symcheb import counts_by_formula

        for n in (1, 2, 3, 4, 5, 6):
            table = counts_by_formula(2, n)
            total = table.total()
            m2_direct = F(sum(e[0] ** 2 * v for e, v in table.counts.items()), total)
            (_, m2, _), = fg_marginal_moments_exact(2, [n])
            assert m2 == m2_direct

    def test_float_matches_exact(self):
        ns = [2, 8, 32, 64]
        exact = fg_marginal_moments_exact(2, ns)
        approx = fg_marginal_moments_float(2, ns)
        for (n1, m2e, m4e), (n2, m2f, m4f) in zip(exact, approx):
            assert n1 == n2
            assert m2f == pytest.approx(float(m2e), rel=1e-9)
            assert m4f == pytest.approx(float(m4e), rel=1e-9)

    def test_report_constants(self):
        report = freegroup_convergence_report(2, [64, 128], mode=MODE_FLOAT)
        assert report.sigma2_rederived == 1.0
        assert report.sigma2_reported == pytest.approx(2.7320508, abs=1e-6)
        assert report.rows[-1].m2_over_n == pytest.approx(1.0, rel=1e-9)

    def test_rank_validation(self):
        with pytest.raises(UsageError):
            freegroup_convergence_report(1, [4])


# Invalid inputs of the two reports, in the order their checks run: (name,
# the arguments it replaces, the error it raises alone).  An input that
# is wrong in two ways raises the error of the earlier check.
CEILING_MESSAGE = "the exact-mode ceiling must be a positive integer, got {}"
COMMON_FAULTS = [
    ("n_list", {"n_list": [8, 4]}, UsageError,
     "n values must be strictly increasing, got [8, 4]"),
    ("ceiling_0", {"exact_ceiling": 0}, UsageError, CEILING_MESSAGE.format(0)),
    ("ceiling_-5", {"exact_ceiling": -5}, UsageError, CEILING_MESSAGE.format(-5)),
    ("ceiling_2.5", {"exact_ceiling": 2.5}, UsageError, CEILING_MESSAGE.format(2.5)),
]
OVER_CEILING = ("over_ceiling", {"n_list": [4, 1025]}, UsageError,
                "n = 1025 exceeds the exact-mode ceiling of 1024; "
                "use mode='float_normalized' or raise the ceiling")
MODE_FAULT = ("mode", {"mode": "bogus"}, UsageError,
              "mode must be 'exact' or 'float_normalized', got 'bogus'")
REPORTS = {
    "c": (
        convergence_report,
        {"c": F(5, 2), "k": 2, "n_list": [4, 8], "mode": MODE_EXACT},
        [
            MODE_FAULT,
            ("k", {"k": 0}, UsageError, "k must be a positive integer, got 0"),
            *COMMON_FAULTS,
            ("c_at_most_1", {"c": F(1)}, DomainError,
             "variance constant is defined for c > 1 only, got c = 1.0"),
            ("float_c", {"c": 2.5}, UsageError,
             "exact mode requires a rational c (int or Fraction)"),
            OVER_CEILING,
        ],
    ),
    "fg": (
        freegroup_convergence_report,
        {"r": 2, "n_list": [4, 8], "mode": MODE_EXACT},
        [
            MODE_FAULT,
            ("r", {"r": 1}, UsageError, "rank must be an integer >= 2, got 1"),
            *COMMON_FAULTS,
            OVER_CEILING,
        ],
    ),
}
FIRST_ERROR_CASES = [
    pytest.param(report, [fault], id=f"{report}-{fault[0]}")
    for report, (_, _, faults) in REPORTS.items()
    for fault in faults
] + [
    pytest.param(report, [first, second], id=f"{report}-{first[0]}-{second[0]}")
    for report, (_, _, faults) in REPORTS.items()
    for i, first in enumerate(faults)
    for second in faults[i + 1 :]
    if not first[1].keys() & second[1].keys()
]


@pytest.mark.parametrize("report,faults", FIRST_ERROR_CASES)
def test_report_raises_the_first_error_of_its_inputs(report, faults):
    function, base, _ = REPORTS[report]
    kwargs = dict(base)
    for _, replaced, _, _ in faults:
        kwargs.update(replaced)
    _, _, error, message = faults[0]
    with pytest.raises(error) as caught:
        function(**kwargs)
    assert (type(caught.value), str(caught.value)) == (error, message)
