import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcheb import (
    ChebKind,
    DomainError,
    ResourceBudgetError,
    UsageError,
    cheb_coeffs,
    coeff_formula_T,
    eval_closed_T,
    fullform_coeff,
)
from symcheb import chebyshev
from symcheb.chebyshev import orbit, orbit_rows, orbit_size, row_size, univariate_row
from symcheb.symmetrized import SignClass, SurveyWitness, sign_survey

from oracles import lattice_rows, scaled_rows, unpack_exponents

T, U = ChebKind.FIRST, ChebKind.SECOND


@pytest.fixture
def levels_built(monkeypatch):
    """The number of levels each walk's ``_orbit_levels`` has yielded, one
    entry per walk in the order the walks started their builders."""
    walks, real = [], chebyshev._orbit_levels

    def counted(k):
        walks.append(0)
        index = len(walks) - 1
        for level in real(k):
            walks[index] += 1
            yield level

    monkeypatch.setattr(chebyshev, "_orbit_levels", counted)
    return walks


class TestScaledRows:
    def test_univariate_rows(self):
        # c = 3/2, k = 1: Q_m = 2 * 2^m T_m((3/4)(x + 1/x)); Q_2 = 9x^2 + 10 + 9x^-2
        rows = [
            {unpack_exponents(key, 1, 2)[0]: v for key, v in row.items() if v}
            for row in scaled_rows(3, 4, 2, 1, 2)
        ]
        assert rows == [{0: 2}, {1: 3, -1: 3}, {2: 9, 0: 10, -2: 9}]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_key_order_is_lexicographic_order(self, k):
        for n_max in (0, 1, 3):
            for row in scaled_rows(1, 2 * k - 1, 2, k, n_max):
                vectors = [unpack_exponents(key, k, n_max) for key in sorted(row)]
                assert vectors == sorted(vectors)
                assert all(sum(map(abs, e)) <= n_max for e in vectors)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.integers(-9, 9),
        g=st.integers(-20, 20),
        q0=st.sampled_from([1, 2]),
        k=st.integers(1, 3),
        n_max=st.integers(0, 7),
    )
    def test_mirror_permutation_and_parity(self, a, g, q0, k, n_max):
        for m, row in enumerate(scaled_rows(a, g, q0, k, n_max)):
            table = {unpack_exponents(key, k, n_max): v for key, v in row.items() if v}
            for e, value in table.items():
                assert sum(map(abs, e)) <= m and (m - sum(e)) % 2 == 0
                for i in range(k):
                    assert table.get(e[:i] + (-e[i],) + e[i + 1 :]) == value
                for perm in permutations(range(k)):
                    assert table.get(tuple(e[j] for j in perm)) == value


class TestRowBudget:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_row_size_counts_the_keys(self, k):
        for n_max in range(9):
            *_, row = scaled_rows(3, 4, 2, k, n_max)
            assert row_size(k, n_max) == len(row)

    def test_row_size_closed_forms(self):
        # k = 1: the n + 1 exponents of one parity; k = 2: a rotated (n + 1)^2 square
        assert [row_size(1, n) for n in range(6)] == [1, 2, 3, 4, 5, 6]
        assert [row_size(2, n) for n in range(6)] == [1, 4, 9, 16, 25, 36]

    def test_row_over_budget_fails_before_the_first_row(self, monkeypatch):
        # at the call, not at the first next(): a caller may write the rows
        # as they come and must have nothing to write when it fails
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "15")
        with pytest.raises(ResourceBudgetError, match=r"^row 3 of .* has 16 terms, over .* 15 "):
            orbit_rows(1, 1, 2, 2, 3)
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "16")
        *_, (reps, row) = orbit_rows(1, 1, 2, 2, 3)
        assert sum(map(orbit_size, reps)) == 16  # the budget counts terms

    def test_budget_fires_before_the_index_is_built(self, monkeypatch, levels_built):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "15")
        with pytest.raises(ResourceBudgetError, match=r"^row 3 of .* has 16 terms, over .* 15 "):
            orbit_rows(1, 1, 2, 2, 3)
        assert levels_built == []  # no walk started a level builder
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "16")
        list(orbit_rows(1, 1, 2, 2, 3))
        assert levels_built == [4]  # levels 0..3, one per row

    @pytest.mark.parametrize(
        "k,n_max,size",
        [
            (10**300, 4, "more than 2^3985"),
            (40, 40, "at least 2^40"),
            (2, 10**6, "1000002000001"),
            # row n of k = 1 has n + 1 terms: 2^128 is written whole, 2^129 is more than 2^128
            (1, 2**128 - 1, str(2**128)),
            (1, 2**129 - 1, "more than 2^128"),
        ],
        ids=["huge-k", "k-and-n-40", "huge-n", "2^128", "2^129"],
    )
    def test_huge_rows_fail_fast(self, k, n_max, size):
        with pytest.raises(ResourceBudgetError, match=re.escape(f"has {size} terms")):
            next(orbit_rows(1, 1, 2, k, n_max))


@st.composite
def kernel_params(draw):
    """(a, g, q0): a Chebyshev kind at c = p/q of either sign, including 0 and
    c near +-1, or the free-group counts of rank r (a = 1, g = 2r - 1)."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        r = draw(st.integers(2, 5))
        return k, (1, 2 * r - 1, 2)
    q = draw(st.integers(1, 12))
    near_one = st.sampled_from([0, q - 1, q + 1, -q - 1, 1 - q])
    p = draw(st.one_of(st.integers(-3 * q, 3 * q), near_one))
    kq = k * q
    return k, (p, kq * kq, draw(st.sampled_from([1, 2])))


class TestOrbitRows:
    @settings(max_examples=100, deadline=None)
    @given(params=kernel_params(), n_max=st.integers(0, 12))
    def test_matches_full_lattice(self, params, n_max):
        k, (a, g, q0) = params
        rows = zip(orbit_rows(a, g, q0, k, n_max), lattice_rows(a, g, q0, k, n_max))
        for m, ((reps, row), full) in enumerate(rows):
            covered = set()
            for e, entry in zip(reps, row):
                assert sum(e) <= m and (m - sum(e)) % 2 == 0
                for member in orbit(e):
                    assert full.get(member, 0) == entry, (m, e, member)
                    covered.add(member)
            assert covered == set(full), m

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_hold_one_sorted_representative_per_orbit(self, k):
        n_max = 9
        for m, (reps, row) in enumerate(orbit_rows(1, 2 * k - 1, 2, k, n_max)):
            assert len(set(reps)) == len(reps) == len(row)
            assert all(list(e) == sorted(e, reverse=True) and e[-1] >= 0 for e in reps)
            assert sum(map(orbit_size, reps)) == row_size(k, m)

    def test_storage_holds_only_representatives(self):
        # row 32 at k = 3 has 23969 terms on 648 representatives
        *_, (reps, row) = orbit_rows(3, 49, 2, 3, 32)
        assert len(row) * 19 < row_size(3, 32) == sum(map(orbit_size, reps))

    def test_reps_index_their_row_and_stay_unchanged(self):
        # each row has its own reps, entry for entry: a later level appended
        # to the builder's list does not reach the reps a reader holds
        seen = []
        for reps, row in orbit_rows(3, 25, 1, 3, 9):
            assert len(reps) == len(row)
            seen.append((reps, row, list(reps), list(row)))
        for reps, row, reps_then, row_then in seen:
            assert (list(reps), list(row)) == (reps_then, row_then)

    @pytest.mark.parametrize("n_max", [7, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interleaved_walks_are_independent(self, k, n_max):
        # two walks at the same (k, n_max) each own their levels: advanced
        # in turn, each equals its solo walk and the full lattice
        g = 4 * k * k
        for a, b in [(1, 3), (3, -3), (-3, 1)]:
            first, second = orbit_rows(a, g, 2, k, n_max), orbit_rows(b, g, 1, k, n_max)
            rows = [(next(first), next(second)) for _ in range(n_max + 1)]
            for (x, y), (solo_x, solo_y), full_x, full_y in zip(
                rows,
                zip(orbit_rows(a, g, 2, k, n_max), orbit_rows(b, g, 1, k, n_max)),
                lattice_rows(a, g, 2, k, n_max),
                lattice_rows(b, g, 1, k, n_max),
            ):
                assert (x, y) == (solo_x, solo_y)
                for (reps, row), full in ((x, full_x), (y, full_y)):
                    assert {m: q for e, q in zip(reps, row) for m in orbit(e)} == full

    def test_a_walk_builds_the_levels_it_reads(self, levels_built):
        walk = orbit_rows(1, 3, 2, 2, 400)
        for _ in range(3):
            next(walk)
        assert levels_built == [3]  # levels 0..2 for rows 0..2, not 400

    def test_survey_scan_at_minus_c_stops_at_row_one(self, levels_built):
        # P_1(-A) = -A is negative, so the scan at -c reads rows 0 and 1; the
        # theorem decides c = 11/10 > 0 without a row (one walk: at -c)
        witness = SurveyWitness(2, (0, 0), F(-79, 200))
        assert sign_survey(T, 2, 2000, [F(11, 10)]) == [(F(11, 10), SignClass.MIXED, witness)]
        assert len(levels_built) == 1 and max(levels_built) <= 3  # no level above 2

    def test_orbit_costs_its_size_at_a_large_arity(self):
        # all k! orderings of (1, 0, ..., 0) would be 30! tuples
        assert sorted(orbit((1,) + (0,) * 29)) == sorted(
            (0,) * i + (s,) + (0,) * (29 - i) for i in range(30) for s in (1, -1)
        )
        assert len(orbit((2, 1) + (0,) * 28)) == orbit_size((2, 1) + (0,) * 28) == 30 * 29 * 4

    @pytest.mark.parametrize(
        "e",
        [(0,), (3,), (0, 0), (2, 2), (2, 0), (3, 1, 1), (2, 1, 0, 0), (1,) * 12, (2,) + (1,) * 9],
    )
    def test_orbit(self, e):
        # (1,) * 12 was 12! orders of its entries before the repeats were dropped
        members = orbit(e)
        assert len(set(members)) == len(members) == orbit_size(e)
        assert all(tuple(sorted(map(abs, x), reverse=True)) == e for x in members)
        assert min(members) == tuple(-x for x in e)  # the first member, in lexicographic order


def kernel_last_row(a, g, q0, n):
    """Row n of ``orbit_rows`` at k = 1, walked from row 0."""
    for _, row in orbit_rows(a, g, q0, 1, n):
        pass
    return row


@st.composite
def univariate_c(draw):
    """c = p/q of either sign: |c| < 1, c = 0, c = +-1 and c near +-1 included."""
    q = draw(st.integers(1, 12))
    special = st.sampled_from([0, q, -q, q - 1, q + 1, -q - 1, 1 - q])
    return draw(st.one_of(st.integers(-3 * q, 3 * q), special)), q


class TestUnivariateRow:
    @settings(max_examples=120, deadline=None)
    @given(c=univariate_c(), q0=st.sampled_from([1, 2]), n=st.integers(0, 250))
    def test_matches_the_kernel(self, c, q0, n):
        p, q = c
        assert univariate_row(p, q * q, q0, n) == kernel_last_row(p, q * q, q0, n)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.integers(-9, 9),
        g=st.integers(-20, 20),
        q0=st.sampled_from([1, 2]),
        n=st.integers(0, 40),
    )
    def test_matches_the_kernel_at_any_g(self, a, g, q0, n):
        # the relations are polynomial in a and g, so g need not be a square
        # nor positive; a = 1, g = 2r - 1 is the free group's
        assert univariate_row(a, g, q0, n) == kernel_last_row(a, g, q0, n)

    @settings(max_examples=60, deadline=None)
    @given(c=univariate_c(), n=st.integers(1, 250), data=st.data())
    def test_first_kind_matches_fullform(self, c, n, data):
        # Q_n[j] = 2 q^n T_n(c (x + 1/x) / 2)[x^j], by the explicit expansion
        p, q = c
        if not p:
            return
        row = univariate_row(p, q * q, 2, n)
        for i in data.draw(st.lists(st.integers(0, n // 2), min_size=1, max_size=4)):
            j = n % 2 + 2 * i
            assert F(row[i], 2 * q**n) == fullform_coeff(n, F(p, q), j)

    def test_examples(self):
        # c = 3/2: Q_2 = 9x^2 + 10 + 9x^-2 for q0 = 2, and 9x^2 + 14 + 9x^-2 for q0 = 1
        assert univariate_row(3, 4, 2, 2) == [10, 9]
        assert univariate_row(3, 4, 1, 2) == [14, 9]
        assert univariate_row(5, 7, 2, 0) == [2]
        assert univariate_row(0, 4, 2, 6) == [2 * (-4) ** 3, 0, 0, 0]
        assert univariate_row(0, 4, 1, 5) == [0, 0, 0]

    def test_other_q0_is_a_usage_error(self):
        with pytest.raises(UsageError, match="q0 must be 2"):
            univariate_row(1, 1, 3, 4)

    def test_checks_the_budget_first(self, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "5")
        with pytest.raises(ResourceBudgetError, match=r"^row 10 of .* has 11 terms, over .* 5 "):
            univariate_row(1, 1, 2, 10)
        with pytest.raises(ResourceBudgetError, match=r"has more than 2\^128 terms"):
            univariate_row(0, 1, 2, 2**129 - 1)


class TestCoeffVectors:
    def test_base_cases(self):
        assert cheb_coeffs(T, 0).coeffs == (1,)
        assert cheb_coeffs(T, 1).coeffs == (0, 1)
        assert cheb_coeffs(U, 0).coeffs == (1,)
        assert cheb_coeffs(U, 1).coeffs == (0, 2)

    def test_t3(self):
        assert cheb_coeffs(T, 3).coeffs == (0, -3, 0, 4)

    def test_u2(self):
        assert cheb_coeffs(U, 2).coeffs == (-1, 0, 4)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_leading_coefficients(self, n):
        assert cheb_coeffs(T, n).coeffs[-1] == 2 ** (n - 1)
        assert cheb_coeffs(U, n).coeffs[-1] == 2**n

    @pytest.mark.parametrize("kind", [T, U])
    def test_parity(self, kind):
        for n in range(0, 51):
            coeffs = cheb_coeffs(kind, n).coeffs
            assert all(coeffs[j] == 0 for j in range(n + 1) if (n - j) % 2 == 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(UsageError):
            cheb_coeffs(T, -1)


class TestCoeffFormula:
    def test_examples(self):
        assert coeff_formula_T(4, 1) == -8
        assert coeff_formula_T(4, 2) == 1  # passes through the 2^-1 intermediate
        assert coeff_formula_T(1, 0) == 1

    def test_matches_recurrence_up_to_50(self):
        for n in range(1, 51):
            vec = cheb_coeffs(T, n).coeffs
            for m in range(n // 2 + 1):
                value = coeff_formula_T(n, m)
                assert value.denominator == 1
                assert value == vec[n - 2 * m]

    def test_rejects_n_zero(self):
        with pytest.raises(UsageError):
            coeff_formula_T(0, 0)

    def test_rejects_m_out_of_range(self):
        with pytest.raises(UsageError):
            coeff_formula_T(4, 3)
        with pytest.raises(UsageError):
            coeff_formula_T(4, -1)


class TestIdentities:
    def test_derivative_identity(self):
        # U_n = T'_{n+1} / (n+1), coefficientwise
        for n in range(0, 51):
            t_next = cheb_coeffs(T, n + 1).coeffs
            u = cheb_coeffs(U, n).coeffs
            for j in range(n + 1):
                assert F((j + 1) * t_next[j + 1], n + 1) == u[j]

    def test_t_from_u_identity(self):
        # T_n = (U_n - U_{n-2}) / 2, coefficientwise
        for n in range(2, 51):
            t = cheb_coeffs(T, n).coeffs
            u = cheb_coeffs(U, n).coeffs
            u_prev = cheb_coeffs(U, n - 2).coeffs
            for j in range(n + 1):
                low = u_prev[j] if j < len(u_prev) else 0
                assert F(u[j] - low, 2) == t[j]


class TestClosedForm:
    def test_example(self):
        value = eval_closed_T(3, 2.0)
        assert value == pytest.approx(26.0, abs=1e-12)
        assert cheb_coeffs(T, 3).evaluate(2) == 26  # 4*8 - 3*2

    @pytest.mark.parametrize("n", [0, 1, 5, 12, 31, 2000])
    def test_at_one(self, n):
        assert eval_closed_T(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_degree_zero(self):
        assert eval_closed_T(0, 5.0) == 1.0

    def test_domain_error_inside_unit_interval(self):
        with pytest.raises(DomainError):
            eval_closed_T(3, 0.5)

    def test_negative_degree_is_a_usage_error(self):
        with pytest.raises(UsageError, match="^degree must be a nonnegative integer, got -1$"):
            eval_closed_T(-1, 2.0)

    def test_agrees_with_exact_evaluation(self):
        for n in range(0, 20):
            for x in (1.0, 1.5, 2.0, -1.25, -3.0):
                exact = float(cheb_coeffs(T, n).evaluate(F(x)))
                assert eval_closed_T(n, x) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n,x,expected", [(1000, 2.0, math.inf), (1001, -2.0, -math.inf)])
    def test_overflow_is_signed_infinity(self, n, x, expected):
        assert eval_closed_T(n, x) == expected

    @pytest.mark.parametrize("n,x", [(1000, 1 + 1e-7), (10, 1.001), (1_587_898, 1 + 1e-7)])
    def test_keeps_its_bits_near_one(self, n, x):
        # sqrt(x x - 1) cancelled: 18,658 and 19.6 ulp off; at n = 1,587,898,
        # T_n(x) is 1.27e308, but rho^(n - 1) whole overflowed to inf
        with localcontext() as ctx:
            ctx.prec = 80
            exact = Decimal(x)  # the binary value of x
            rho = exact + (exact * exact - 1).sqrt()
            expected = (rho**n + rho**-n) / 2
            value = eval_closed_T(n, x)
            assert math.isfinite(value)
            assert abs(Decimal(value) - expected) <= n * Decimal(math.ulp(value))

    @pytest.mark.parametrize("x", [1e200, -1e200, 1.7e308, -1.7e308])
    def test_finite_wherever_x_is(self, x):
        # x x overflowed from about 1.34e154 on: T_1(1e200) was inf
        assert eval_closed_T(1, x) == x
        assert eval_closed_T(0, x) == 1.0


def test_boundedness_on_unit_interval():
    points = [-1.0 + 2.0 * i / 999 for i in range(1000)]
    for n in range(0, 31):
        vec = cheb_coeffs(T, n)
        assert all(abs(vec.evaluate(x)) <= 1.0 + 1e-9 for x in points)
