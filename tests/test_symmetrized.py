import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcheb import (
    ChebKind,
    LaurentPoly,
    PositivityReport,
    ResourceBudgetError,
    SignClass,
    SymChebSpec,
    UsageError,
    build,
    build_sequence,
    cheb_coeffs,
    fullform_coeff,
    positivity_report,
    sign_survey,
    univariate_table,
)
from symcheb import symmetrized

from oracles import lattice_rows

T, U = ChebKind.FIRST, ChebKind.SECOND


def laurent_recurrence(kind, c, k, n_max):
    """Oracle: P_0..P_{n_max} by P_{m+1} = 2A P_m - P_{m-1} in LaurentPoly
    arithmetic over the rationals, independent of the integer kernel."""
    half = F(c, 2 * k)
    argument = LaurentPoly(
        k,
        [((0,) * i + (sign,) + (0,) * (k - 1 - i), half) for i in range(k) for sign in (1, -1)],
    )
    doubled = 2 * argument
    polys = [LaurentPoly.constant(k, 1), argument if kind is T else doubled]
    while len(polys) <= n_max:
        polys.append(doubled * polys[-1] - polys[-2])
    return polys[: n_max + 1]


def survey_oracle(polys):
    """Classification and witness from the first violation of each pattern."""
    scan = [(n, e, v) for n, poly in enumerate(polys) for e, v in poly.terms()]
    negative = [i for i, (_, _, v) in enumerate(scan) if v < 0]
    off_sign = [i for i, (n, _, v) in enumerate(scan) if (v > 0) != (n % 2 == 0)]
    if not negative:
        return SignClass.ALL_NONNEG, None
    if not off_sign:
        return SignClass.ALTERNATING, None
    return SignClass.MIXED, scan[max(negative[0], off_sign[0])]


def lattice_polys(kind, c, k, n_max):
    """Oracle: P_0..P_{n_max} read off the full-lattice integer rows."""
    kq = k * c.denominator
    q0 = 2 if kind is T else 1
    rows = lattice_rows(c.numerator, kq * kq, q0, k, n_max)
    return [
        LaurentPoly(k, {e: F(v, q0 * kq**n) for e, v in row.items()}) for n, row in enumerate(rows)
    ]


def positivity_oracle(spec, poly=None):
    """Oracle: the report computed on a Fraction polynomial, build(spec) by
    default."""
    poly = build(spec) if poly is None else poly
    witness = next((e for e, v in poly.terms() if v < 0), None)
    pattern_ok = None
    if spec.k == 1:
        pattern_ok = all(
            poly.coeff((j,)) > 0 if (spec.n - j) % 2 == 0 else poly.coeff((j,)) == 0
            for j in range(-spec.n, spec.n + 1)
        )
    return PositivityReport(witness is None, pattern_ok, poly.min_coefficient(), witness)


def uni(terms):
    return LaurentPoly(1, {(e,): c for e, c in terms.items()})


class TestBuild:
    def test_r2_at_two(self):
        assert build(SymChebSpec(T, 2, F(2), 1)) == uni({2: 2, 0: 3, -2: 2})

    @pytest.mark.parametrize("n", range(0, 17))
    def test_collapse_at_c_one(self, n):
        expected = uni({0: 1}) if n == 0 else uni({n: F(1, 2), -n: F(1, 2)})
        assert build(SymChebSpec(T, n, F(1), 1)) == expected

    def test_second_kind_degree_one(self):
        c = F(7, 3)
        assert build(SymChebSpec(U, 1, c, 1)) == uni({1: c, -1: c})

    def test_bivariate_negative_coefficient(self):
        poly = build(SymChebSpec(T, 3, F(11, 10), 2))
        assert poly.coeff((1, 0)) == F(-1221, 16000)
        assert poly.coeff((3, 0)) == F(1331, 16000)  # c^3/16
        assert poly.coeff((2, 1)) == F(3993, 16000)  # 3 c^3/16

    def test_matches_direct_substitution(self):
        # T_n(A) computed by the naive route: expand sum_m t_m A^m.
        c, k, n = F(3, 2), 2, 5
        half = F(c, 2 * k)
        argument = LaurentPoly(
            k, {(1, 0): half, (-1, 0): half, (0, 1): half, (0, -1): half}
        )
        acc = LaurentPoly.zero(k)
        power = LaurentPoly.constant(k, 1)
        for coeff in cheb_coeffs(T, n).coeffs:
            acc = acc + coeff * power
            power = power * argument
        assert build(SymChebSpec(T, n, c, k)) == acc

    def test_substitution_consistency_at_random_points(self):
        rng = random.Random(20240817)
        values = [F(1, 2), F(-1, 2), F(2), F(-2), F(3)]
        for kind in (T, U):
            for k in (1, 2, 3):
                for n in range(0, 21, 4):
                    c = rng.choice([F(3, 2), F(2), F(7, 3)])
                    poly = build(SymChebSpec(kind, n, c, k))
                    point = tuple(rng.choice(values) for _ in range(k))
                    inner = F(c, 2 * k) * sum(v + 1 / v for v in point)
                    assert poly.evaluate(point) == cheb_coeffs(kind, n).evaluate(inner)

    def test_univariate_mirror_invariance(self):
        poly = build(SymChebSpec(T, 3, F(3, 2), 1))
        assert poly.mirror(0) == poly

    def test_mirror_and_permutation_symmetry(self):
        poly = build(SymChebSpec(T, 6, F(5, 2), 3))
        for i in range(3):
            assert poly.mirror(i) == poly
        for perm in permutations(range(3)):
            permuted = LaurentPoly(
                3, {tuple(e[p] for p in perm): coeff for e, coeff in poly.terms()}
            )
            assert permuted == poly

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_parity_support(self, k):
        c = F(7, 4)
        for n, poly in enumerate(build_sequence(T, c, k, 8)):
            for exponents, coeff in poly.terms():
                assert sum(abs(e) for e in exponents) <= n
                assert (n - sum(exponents)) % 2 == 0

    def test_invalid_spec(self):
        with pytest.raises(UsageError):
            SymChebSpec(T, -1, F(2), 1)
        with pytest.raises(UsageError):
            SymChebSpec(T, 2, F(2), 0)
        with pytest.raises(UsageError):
            SymChebSpec(T, 2, 1.5, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda kind: SymChebSpec(kind, 2, F(2), 1),
            lambda kind: build_sequence(kind, F(2), 1, 2),
            lambda kind: univariate_table(kind, F(2), 2),
            lambda kind: sign_survey(kind, 1, 2, [F(2)]),
            lambda kind: sign_survey(kind, 1, 2, []),
            lambda kind: cheb_coeffs(kind, 3),
        ],
        ids=[
            "SymChebSpec",
            "build_sequence",
            "univariate_table",
            "sign_survey",
            "sign_survey_empty_grid",
            "cheb_coeffs",
        ],
    )
    @pytest.mark.parametrize("kind", ["T", "U", "X", None, 1])
    def test_kind_is_validated(self, call, kind):
        # a non-ChebKind used to select the second kind silently
        with pytest.raises(UsageError, match="kind must be a ChebKind"):
            call(kind)

    @pytest.mark.parametrize(
        "k,n_max,message",
        [
            (-1, -1, "k must be a positive integer, got -1"),
            (0, 2, "k must be a positive integer, got 0"),
            (1, -1, "n_max must be a nonnegative integer, got -1"),
        ],
    )
    def test_sign_survey_validates_an_empty_grid(self, k, n_max, message):
        # the checks used to run only inside the per-c loop
        with pytest.raises(UsageError, match=message):
            sign_survey(T, k, n_max, [])


class TestKernelDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from([T, U]),
        p=st.integers(-9, 9),
        q=st.integers(1, 9),
        k=st.integers(1, 3),
        n_max=st.integers(0, 8),
    )
    def test_matches_laurent_recurrence(self, kind, p, q, k, n_max):
        c = F(p, q)
        polys = build_sequence(kind, c, k, n_max)
        oracle = laurent_recurrence(kind, c, k, n_max)
        assert polys == oracle
        assert build(SymChebSpec(kind, n_max, c, k)) == oracle[-1]
        for n, poly in enumerate(polys):
            assert poly.evaluate((1,) * k) == cheb_coeffs(kind, n).evaluate(c)
        (row,) = sign_survey(kind, k, n_max, [c])
        classification, witness = survey_oracle(oracle)
        assert row.classification is classification
        if witness is None:
            assert row.witness is None
        else:
            assert (row.witness.n, row.witness.exponents, row.witness.value) == witness


    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(-9, 9).filter(bool), q=st.integers(1, 9), n_max=st.integers(1, 9))
    def test_univariate_matches_fullform(self, p, q, n_max):
        c = F(p, q)
        for n, poly in enumerate(build_sequence(T, c, 1, n_max)):
            if n:
                assert all(abs(e[0]) <= n for e, _ in poly.terms())
                for j in range(-n, n + 1):
                    assert poly.coeff((j,)) == fullform_coeff(n, c, j)


class TestLatticeDifferential:
    """The public functions against the full-lattice rows, coefficient by
    coefficient and witness by witness."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from([T, U]),
        p=st.one_of(st.integers(-30, 30), st.sampled_from([0, 9, 11, -9, -11])),
        q=st.sampled_from([1, 2, 3, 10]),
        k=st.integers(1, 4),
        n_max=st.integers(0, 10),
    )
    def test_public_functions_match(self, kind, p, q, k, n_max):
        c = F(p, q)
        if k == 4:
            n_max = min(n_max, 7)
        oracle = lattice_polys(kind, c, k, n_max)
        assert build_sequence(kind, c, k, n_max) == oracle
        spec = SymChebSpec(kind, n_max, c, k)
        assert build(spec) == oracle[-1]
        assert positivity_report(spec) == positivity_oracle(spec, oracle[-1])
        (row,) = sign_survey(kind, k, n_max, [c])
        classification, witness = survey_oracle(oracle)
        assert row.classification is classification
        assert (row.witness and tuple(row.witness)) == witness
        if k == 1:
            table = univariate_table(kind, c, n_max)
            assert [table.row_poly(n) for n in range(n_max + 1)] == oracle
            for n, poly in enumerate(oracle):
                assert table.rows[n] == tuple(poly.coeff((j,)) for j in range(-n, n + 1))

    def test_survey_witness_at_an_odd_row_with_both_patterns_alive(self, monkeypatch):
        # Chebyshev rows reach an odd n with both patterns alive only at
        # n = 1, where every entry is a; crafted rows pin the general rule:
        # the witness is the later of the first negative and the first
        # positive term.
        reps = ([(0, 0)], [(1, 0), (3, 0), (2, 1)])
        rows = [(reps[0], [1], 1), (reps[1], [5, -2, 7], 4)]
        monkeypatch.setattr(symmetrized, "_scaled", lambda *args: iter(rows))
        (row,) = sign_survey(T, 2, 1, [F(2)])
        polys = [
            LaurentPoly(2, symmetrized._fractions(members, entries, scale))
            for members, entries, scale in rows
        ]
        assert survey_oracle(polys) == (SignClass.MIXED, (1, (-2, -1), F(7, 4)))
        assert row == (F(2), SignClass.MIXED, (1, (-2, -1), F(7, 4)))


class TestUnivariateTable:
    def test_rows_check_the_budget_at_the_call(self, monkeypatch):
        # row 20 at k = 1 has 21 terms; the command line writes rows as they
        # are read, so the budget must fail before the first one
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        with pytest.raises(ResourceBudgetError, match=r"^row 20 of .* has 21 terms"):
            symmetrized._univariate_rows(T, F(2), 20, F)
        with pytest.raises(ResourceBudgetError, match=r"^row 20 of .* has 21 terms"):
            symmetrized._scaled(T, F(2), 1, 20)

    def test_u_kind_base_rows(self):
        table = univariate_table(U, F(2), 2)
        assert table.rows[0] == (F(1),)
        assert table.value(1, 1) == 2 and table.value(1, -1) == 2
        assert table.value(1, 0) == 0
        assert table.rows[2] == (F(4), F(0), F(7), F(0), F(4))

    def test_out_of_range_value_is_zero(self):
        table = univariate_table(U, F(2), 3)
        assert table.value(2, 5) == 0
        assert table.value(2, -3) == 0

    @pytest.mark.parametrize("n", [-1, 4])
    def test_row_out_of_range_is_a_usage_error(self, n):
        table = univariate_table(U, F(2), 3)
        with pytest.raises(UsageError, match=rf"^row {n} not in table \(0\.\.3\)$"):
            table.value(n, 0)
        with pytest.raises(UsageError, match=rf"^row {n} not in table \(0\.\.3\)$"):
            table.row_poly(n)

    @pytest.mark.parametrize("kind", [T, U])
    @pytest.mark.parametrize("c", [F(3, 2), F(2)])
    def test_rows_agree_with_build(self, kind, c):
        table = univariate_table(kind, c, 12)
        for n, poly in enumerate(build_sequence(kind, c, 1, 12)):
            assert table.row_poly(n) == poly

    def test_row_symmetry(self):
        table = univariate_table(U, F(7, 3), 15)
        for n in range(16):
            for j in range(n + 1):
                assert table.value(n, j) == table.value(n, -j)

    def test_t_from_u_rows(self):
        c = F(9, 4)
        t_table = univariate_table(T, c, 20)
        u_table = univariate_table(U, c, 20)
        for n in range(2, 21):
            for j in range(-n, n + 1):
                assert t_table.value(n, j) == (u_table.value(n, j) - u_table.value(n - 2, j)) / 2

    def test_monotonicity_properties(self):
        # strict versions of: positivity on the parity support, growth over
        # the previous row's neighbours, growth over the row two back
        for c in (F(3, 2), F(2)):
            table = univariate_table(U, c, 20)
            for n in range(1, 21):
                for j in range(-n, n + 1):
                    if (n - j) % 2:
                        assert table.value(n, j) == 0
                        continue
                    value = table.value(n, j)
                    assert value > 0
                    assert value > max(table.value(n - 1, j - 1), table.value(n - 1, j + 1))
                    if n >= 2:
                        assert value > table.value(n - 2, j)


class TestFullform:
    def test_constant_term_example(self):
        assert fullform_coeff(2, F(2), 0) == 3

    def test_leading_term_example(self):
        assert fullform_coeff(2, F(2), 2) == 2

    def test_parity_zero(self):
        assert fullform_coeff(5, F(2), 0) == 0
        assert fullform_coeff(4, F(3, 2), 3) == 0

    @pytest.mark.parametrize("c", [F(3, 2), F(2), F(7, 3)])
    def test_two_path_equality(self, c):
        for n, poly in enumerate(build_sequence(T, c, 1, 12)):
            if n == 0:
                continue
            for j in range(-n, n + 1):
                assert fullform_coeff(n, c, j) == poly.coeff((j,))

    def test_errors(self):
        with pytest.raises(UsageError):
            fullform_coeff(0, F(2), 0)
        with pytest.raises(UsageError):
            fullform_coeff(3, F(0), 1)
        with pytest.raises(UsageError):
            fullform_coeff(3, F(2), 4)


class TestPositivity:
    def test_univariate_strict_pattern(self):
        report = positivity_report(SymChebSpec(T, 5, F(3, 2), 1))
        assert report.all_nonnegative and report.pattern_ok
        assert report.witness is None
        assert report.min_coefficient > 0

    def test_collapse_breaks_pattern_not_nonnegativity(self):
        report = positivity_report(SymChebSpec(T, 4, F(1), 1))
        assert report.all_nonnegative
        assert report.pattern_ok is False

    def test_multivariate_witness(self):
        report = positivity_report(SymChebSpec(T, 3, F(11, 10), 2))
        assert not report.all_nonnegative
        assert report.pattern_ok is None
        assert report.min_coefficient == F(-1221, 16000)
        assert report.witness == (-1, 0)  # lexicographically first violation

    @pytest.mark.parametrize("kind", [T, U])
    @pytest.mark.parametrize("c", [F(101, 100), F(3, 2)])
    def test_univariate_pattern_over_range(self, kind, c):
        for n in range(0, 21):
            report = positivity_report(SymChebSpec(kind, n, c, 1))
            assert report.all_nonnegative and report.pattern_ok

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from([T, U]),
        p=st.integers(-9, 9),
        q=st.integers(1, 9),
        k=st.integers(1, 3),
        n=st.integers(0, 8),
    )
    def test_matches_fraction_polynomial(self, kind, p, q, k, n):
        spec = SymChebSpec(kind, n, F(p, q), k)
        assert positivity_report(spec) == positivity_oracle(spec)

    @pytest.mark.parametrize("c", [F(0), F(1)])
    def test_matches_fraction_polynomial_at_cancelling_c(self, c):
        # At c = 1 the kernel rows store cancelled zeros (row 4 at k = 1 is
        # {8: 1, 6: 0, 4: 0, 2: 0, 0: 1}); at c = 0 odd rows are all zero.
        for kind in (T, U):
            for k in (1, 2, 3):
                for n in range(9):
                    spec = SymChebSpec(kind, n, c, k)
                    assert positivity_report(spec) == positivity_oracle(spec), (kind, k, n)
        assert positivity_report(SymChebSpec(T, 4, F(1), 1)).min_coefficient == F(1, 2)
        assert positivity_report(SymChebSpec(T, 3, F(0), 2)).min_coefficient == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_multivariate_nonnegative_at_c_equals_k(self, k):
        for kind in (T, U):
            for n, _poly in enumerate(build_sequence(kind, F(k), k, 8)):
                report = positivity_report(SymChebSpec(kind, n, F(k), k))
                assert report.all_nonnegative, (kind, n)


def dilation_rows(n_max):
    """Oracle: beta_{n,j}(1 + s) of T_n((1 + s) x) = sum_j beta_{n,j}(1 + s) T_j(x)
    for n = 0..n_max, each row as {(j, i): coefficient of s^i T_j}, by
    T_{m+1}(ax) = 2ax T_m(ax) - T_{m-1}(ax) with 2x T_j = T_{j+1} + T_{j-1}
    (2x T_0 = 2 T_1)."""
    rows = [{(0, 0): 1}, {(1, 0): 1, (1, 1): 1}]
    while len(rows) <= n_max:
        doubled = {}
        for (j, i), v in rows[-1].items():
            for t, w in (((1, i), 2 * v),) if j == 0 else (((j + 1, i), v), ((j - 1, i), v)):
                doubled[t] = doubled.get(t, 0) + w
        row = {key: -v for key, v in rows[-2].items()}
        for (j, i), v in doubled.items():  # times a = 1 + s
            for t in ((j, i), (j, i + 1)):
                row[t] = row.get(t, 0) + v
        rows.append(row)
    return rows


def off_origin_negative_rows(c, k, n_max):
    """The m <= n_max whose full-lattice row 2 (kq)^m T_m(A) has a negative
    entry away from the origin."""
    kq = k * c.denominator
    rows = lattice_rows(c.numerator, kq * kq, 2, k, n_max)
    return [m for m, row in enumerate(rows) if any(v < 0 for e, v in row.items() if any(e))]


class TestOffOriginTheorem:
    """Every off-origin coefficient of T_n(A) is >= 0 once c >= c_k = k/sqrt(2k-1)."""

    def test_dilation_lemma(self):
        # T_n(ax) has nonnegative T-coefficients for every a >= 1, as
        # polynomials in s = a - 1
        x = F(3, 5)
        t_at_x = [cheb_coeffs(T, j).evaluate(x) for j in range(41)]
        for n, row in enumerate(dilation_rows(40)):
            assert all(v >= 0 for v in row.values()), n
            at_two = sum(v * t_at_x[j] for (j, _), v in row.items())  # s = 1
            assert at_two == cheb_coeffs(T, n).evaluate(2 * x)

    def test_u0_lemma(self):
        # step (i): [U_0] T_n(ax) = beta_{n,0}(a) - beta_{n,2}(a)/2 is in
        # Q>=0[s], s = a - 1, for every n but 2, where it is a^2/2 - 1
        for n, row in enumerate(dilation_rows(40)):
            degree = max(i for _, i in row)
            u0 = [row.get((0, i), 0) - F(row.get((2, i), 0), 2) for i in range(degree + 1)]
            if n == 2:
                assert u0 == [F(-1, 2), 1, F(1, 2)]
            else:
                assert all(v >= 0 for v in u0), n

    @pytest.mark.parametrize("k,n_max", [(2, 16), (3, 16), (4, 10)])
    def test_n3_binds_at_c_k(self, k, n_max):
        # c_k is irrational for k = 2, 3, 4; bracket it in thousandths
        below = F(math.isqrt(10**6 * k * k // (2 * k - 1)), 1000)
        above = below + F(1, 1000)
        assert below**2 * (2 * k - 1) < k * k <= above**2 * (2 * k - 1)
        assert off_origin_negative_rows(below, k, 3) == [3]
        assert off_origin_negative_rows(above, k, n_max) == []

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 3), q=st.integers(1, 40), extra=st.integers(0, 40),
           n=st.integers(1, 24))
    def test_no_off_origin_negative_from_c_k_up(self, k, q, extra, n):
        kq = k * q
        p = math.isqrt(kq * kq // (2 * k - 1))  # the least p with p^2 (2k-1) >= (kq)^2
        while p * p * (2 * k - 1) < kq * kq:
            p += 1
        assert off_origin_negative_rows(F(p + extra, q), k, n) == []


class TestSignSurvey:
    def test_classifications(self):
        rows = sign_survey(T, 1, 12, [F(2), F(-2), F(1, 2)])
        assert [row.classification for row in rows] == [
            SignClass.ALL_NONNEG,
            SignClass.ALTERNATING,
            SignClass.MIXED,
        ]
        witness = rows[2].witness
        assert witness is not None
        assert (witness.n, witness.exponents, witness.value) == (2, (0,), F(-3, 4))
        assert rows[0].witness is None and rows[1].witness is None

    def test_alternating_signs_hold(self):
        for n, poly in enumerate(build_sequence(T, F(-2), 1, 20)):
            wanted = -1 if n % 2 else 1
            assert all((coeff > 0) == (wanted > 0) for _, coeff in poly.terms())

    def test_grid_order_preserved(self):
        grid = [F(1, 2), F(2), F(-2)]
        rows = sign_survey(T, 1, 6, grid)
        assert [row.c for row in rows] == grid
