"""The public records are NamedTuples: pin the behaviour callers rely on.

The reprs were captured from the dataclass records these replaced, so a
change in field names, field order or rendering shows up here.
"""

from fractions import Fraction as F

import pytest

from symcheb import (
    ChebKind,
    HomologyCountTable,
    SymChebSpec,
    UsageError,
    Word,
    cheb_coeffs,
    convergence_report,
    counts_by_formula,
    distribution,
    moments,
    positivity_report,
    sign_survey,
    univariate_table,
)

T, U = ChebKind.FIRST, ChebKind.SECOND


def _survey_row():
    return sign_survey(T, 2, 3, [F(11, 10)])[0]


RECORDS = {
    "ChebCoeffVector": (
        lambda: cheb_coeffs(T, 3),
        "ChebCoeffVector(n=3, coeffs=(0, -3, 0, 4))",
    ),
    "SymChebSpec": (
        lambda: SymChebSpec(T, 3, F(3, 2), 2),
        "SymChebSpec(kind=<ChebKind.FIRST: 'T'>, n=3, c=Fraction(3, 2), k=2)",
    ),
    "PositivityReport": (
        lambda: positivity_report(SymChebSpec(T, 3, F(11, 10), 2)),
        "PositivityReport(all_nonnegative=False, pattern_ok=None, "
        "min_coefficient=Fraction(-1221, 16000), witness=(-1, 0))",
    ),
    "UnivariateCoeffTable": (
        lambda: univariate_table(U, 2, 2),
        "UnivariateCoeffTable(kind=<ChebKind.SECOND: 'U'>, c=Fraction(2, 1), "
        "rows=((Fraction(1, 1),), (Fraction(2, 1), Fraction(0, 1), Fraction(2, 1)), "
        "(Fraction(4, 1), Fraction(0, 1), Fraction(7, 1), Fraction(0, 1), Fraction(4, 1))))",
    ),
    "SurveyWitness": (
        lambda: _survey_row().witness,
        "SurveyWitness(n=2, exponents=(0, 0), value=Fraction(-79, 200))",
    ),
    "SurveyRow": (
        _survey_row,
        "SurveyRow(c=Fraction(11, 10), classification=<SignClass.MIXED: 'MIXED'>, "
        "witness=SurveyWitness(n=2, exponents=(0, 0), value=Fraction(-79, 200)))",
    ),
    "LatticeDistribution": (
        lambda: distribution(2, 2, 1),
        "LatticeDistribution(arity=1, n=2, probabilities={(-2,): Fraction(2, 7), "
        "(0,): Fraction(3, 7), (2,): Fraction(2, 7)})",
    ),
    "MomentReport": (
        lambda: moments(distribution(2, 2, 1)),
        "MomentReport(n=2, mean=(Fraction(0, 1),), covariance=((Fraction(16, 7),),), "
        "fourth_moment_diag=(Fraction(64, 7),), m2_over_n=(1.1428571428571428,), "
        "kurtosis=(1.75,))",
    ),
    "ConvergenceRow": (
        lambda: convergence_report(2, 1, [2]).rows[0],
        "ConvergenceRow(n=2, m2_over_n=Fraction(8, 7), kurtosis=Fraction(7, 4), "
        "max_offdiag=Fraction(0, 1), dist_reported=4.321244472280611, "
        "dist_rederived=0.01184339552210889)",
    ),
    "ConvergenceReport": (
        lambda: convergence_report(2, 1, [3]),
        "ConvergenceReport(c=2.0, k=1, mode='exact', sigma2_reported=5.464101615137754, "
        "sigma2_rederived=1.1547005383792517, rows=(ConvergenceRow(n=3, "
        "m2_over_n=Fraction(15, 13), kurtosis=Fraction(481, 225), max_offdiag=Fraction(0, 1), "
        "dist_reported=4.3102554612916, dist_rederived=0.0008543845330979405),))",
    ),
    "Word": (
        lambda: Word((0, 3, 1), 2),
        "Word(letters=(0, 3, 1), rank=2)",
    ),
    "HomologyCountTable": (
        lambda: counts_by_formula(2, 2),
        "HomologyCountTable(r=2, n=2, counts={(-2, 0): 1, (-1, -1): 2, (-1, 1): 2, "
        "(0, -2): 1, (0, 2): 1, (1, -1): 2, (1, 1): 2, (2, 0): 1})",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_unchanged(name):
    make, expected = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == expected


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_set(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_records_are_tuples():
    assert SymChebSpec(T, 2, 2, 1) == (T, 2, F(2), 1)
    r, n, counts = counts_by_formula(2, 1)
    assert (r, n, counts) == (2, 1, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})


@pytest.mark.parametrize(
    "args,message",
    [
        ((T, -1, F(2), 1), "n must be a nonnegative integer, got -1"),
        ((T, 2, F(2), 0), "k must be a positive integer, got 0"),
        ((T, 2, 1.5, 1), "expected an exact rational (int or Fraction), got float"),
        (("T", 2, F(2), 1), "kind must be a ChebKind, got 'T'"),
    ],
)
def test_spec_rejects_bad_input(args, message):
    with pytest.raises(UsageError) as excinfo:
        SymChebSpec(*args)
    assert str(excinfo.value) == message


def test_spec_coerces_c_and_keeps_keywords():
    spec = SymChebSpec(kind=U, n=4, c=3, k=2)
    assert type(spec.c) is F and spec.c == 3
    assert spec._replace(n=5) == SymChebSpec(U, 5, F(3), 2)
    with pytest.raises(UsageError, match="n must be"):
        spec._replace(n=-1)


@pytest.mark.parametrize(
    "args,message",
    [
        (((0, 4), 2), "letter code 4 out of range for rank 2"),
        (((0,), 0), "rank must be a positive integer, got 0"),
        ((("a",), 1), "letter code 'a' out of range for rank 1"),
    ],
)
def test_word_rejects_bad_input(args, message):
    with pytest.raises(UsageError) as excinfo:
        Word(*args)
    assert str(excinfo.value) == message


def test_word_length_is_the_letter_count():
    assert len(Word([0, 2, 2, 3, 1], rank=2)) == 5
    assert len(Word((), rank=3)) == 0 and not Word((), rank=3)
    word = Word([0, 2], rank=2)
    assert word.letters == (0, 2)
    assert word._replace(letters=(1, 3, 0)) == Word((1, 3, 0), 2)
    with pytest.raises(UsageError, match="out of range"):
        word._replace(rank=1)


def test_count_tables_do_not_share_counts():
    first, second = HomologyCountTable(2, 3), HomologyCountTable(2, 3)
    first.counts[(1, 0)] = 1
    assert second.counts == {}
    assert HomologyCountTable(2, 3).counts == {}
    assert HomologyCountTable(r=2, n=1, counts={(1, 0): 2}).total() == 2


def test_cheb_coeffs_keeps_its_cache_statistics():
    before = cheb_coeffs.cache_info()
    cheb_coeffs(T, 7)
    cheb_coeffs(T, 7)
    after = cheb_coeffs.cache_info()
    assert after.hits > before.hits and after.currsize >= 1
