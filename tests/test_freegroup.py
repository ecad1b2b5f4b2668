from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcheb import (
    HomologyCountTable,
    ResourceBudgetError,
    UsageError,
    Word,
    counts_by_formula,
    enumerate_counts,
    homology_of,
    inverse_letter,
    is_cyclically_reduced,
    total_count,
)

from oracles import lattice_rows


class TestLetters:
    def test_inverse_is_fixed_point_free_involution(self):
        for code in range(8):
            assert inverse_letter(inverse_letter(code)) == code
            assert inverse_letter(code) != code

    def test_word_validates_codes(self):
        with pytest.raises(UsageError):
            Word((0, 4), rank=2)
        with pytest.raises(UsageError):
            Word((0,), rank=0)


class TestCyclicReduction:
    def test_reduced_pair(self):
        assert is_cyclically_reduced(Word((0, 2), rank=2))  # "ab"

    def test_adjacent_cancellation(self):
        assert not is_cyclically_reduced(Word((0, 1), rank=2))  # "a a^-1"

    def test_cyclic_cancellation(self):
        assert not is_cyclically_reduced(Word((2, 0, 3), rank=2))  # "b a b^-1"

    def test_single_letter(self):
        assert is_cyclically_reduced(Word((3,), rank=2))

    def test_empty_word_excluded(self):
        assert not is_cyclically_reduced(Word((), rank=2))

    def test_square_of_generator(self):
        assert is_cyclically_reduced(Word((0, 0), rank=2))  # "aa"


class TestHomology:
    def test_examples(self):
        assert homology_of(Word((0, 2), rank=2)) == (1, 1)  # "ab"
        assert homology_of(Word((0, 3), rank=2)) == (1, -1)  # "aB"
        assert homology_of(Word((), rank=3)) == (0, 0, 0)

    def test_matches_letter_tally(self):
        word = Word((0, 0, 2, 5, 1, 4), rank=3)
        assert homology_of(word) == (1, 1, 0)


class TestEnumeration:
    def test_rank2_length1(self):
        table = enumerate_counts(2, 1)
        assert table.counts == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}

    def test_rank2_length2(self):
        table = enumerate_counts(2, 2)
        assert table.total() == 12
        assert table.counts[(1, 1)] == 2  # ab, ba
        assert table.counts[(2, 0)] == 1  # aa
        assert (0, 0) not in table.counts

    def test_tallies_only_cyclically_reduced_words(self):
        # independent cross-check against the definitional filter
        r, n = 2, 4
        table = enumerate_counts(r, n)
        brute: dict[tuple[int, ...], int] = {}

        def walk(prefix):
            if len(prefix) == n:
                word = Word(tuple(prefix), rank=r)
                if is_cyclically_reduced(word):
                    key = homology_of(word)
                    brute[key] = brute.get(key, 0) + 1
                return
            for code in range(2 * r):
                walk(prefix + [code])

        walk([])
        assert table.counts == brute

    def test_budget_error_names_bound(self, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10000")
        with pytest.raises(ResourceBudgetError, match=r"26244"):
            enumerate_counts(2, 9)

    @pytest.mark.parametrize(
        "r,n,size",
        [
            (2, 80, "197078439219127897754777613608511063468"),  # 128 bits: written whole
            (2, 81, "more than 2^128"),
            (2, 200, "more than 2^317"),
            (10**300, 1, "more than 2^997"),
            # at n = 1 the bound is 2r: 2^128 is written whole, 2^129 is more than 2^128
            (2**127, 1, str(2**128)),
            (2**128, 1, "more than 2^128"),
            # past 2^65536 the bound is not computed: a lower bound on its power
            (3, 10**11, "more than 2^199999999998"),
        ],
    )
    def test_budget_error_keeps_a_large_bound_short(self, monkeypatch, r, n, size):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", str(10**8))
        with pytest.raises(ResourceBudgetError) as info:
            enumerate_counts(r, n)
        assert str(info.value) == (
            f"enumeration of {size} words exceeds the budget of 100000000 "
            "(raise SYMCHEB_ENUM_BUDGET)"
        )

    def test_budget_env_variable(self, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        with pytest.raises(ResourceBudgetError):
            enumerate_counts(2, 3)
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "junk")
        with pytest.raises(UsageError):
            enumerate_counts(2, 3)

    @pytest.mark.parametrize("budget", [-5, 0])
    def test_nonpositive_budget_is_usage_error(self, monkeypatch, budget):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", str(budget))
        with pytest.raises(UsageError, match="must be positive"):
            enumerate_counts(2, 3)

    def test_argument_validation(self):
        with pytest.raises(UsageError):
            enumerate_counts(1, 3)
        with pytest.raises(UsageError):
            enumerate_counts(2, 0)


class TestFormula:
    def test_rank2_small_tables(self):
        n1 = counts_by_formula(2, 1)
        assert n1.counts == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
        n2 = counts_by_formula(2, 2)
        assert n2.counts[(1, 1)] == 2
        assert n2.counts[(2, 0)] == 1
        assert (0, 0) not in n2.counts  # 4 - 6 + 2 = 0
        n3 = counts_by_formula(2, 3)
        assert (1, 0) not in n3.counts  # 9 - 9 = 0

    @pytest.mark.parametrize("r,n_max", [(2, 7), (3, 4)])
    def test_matches_oracle(self, r, n_max):
        for n in range(1, n_max + 1):
            assert counts_by_formula(r, n) == enumerate_counts(r, n)

    @settings(max_examples=10, deadline=None)
    @given(r=st.sampled_from([2, 3]), n=st.integers(1, 5))
    def test_formula_matches_enumeration(self, r, n):
        assert counts_by_formula(r, n) == enumerate_counts(r, n)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_totals(self, r):
        for n in range(1, 9):
            table = counts_by_formula(r, n)
            assert table.total() == total_count(r, n)

    def test_total_count_examples(self):
        assert total_count(2, 2) == 12
        assert total_count(2, 3) == 28
        assert total_count(3, 1) == 6

    def test_symmetries(self):
        table = counts_by_formula(3, 5)
        for key, value in table.counts.items():
            assert table.counts[tuple(-x for x in key)] == value
            for perm in permutations(range(3)):
                assert table.counts[tuple(key[p] for p in perm)] == value

    def test_values_are_nonnegative_integers(self):
        for r, n in ((2, 9), (3, 5), (4, 4)):
            table = counts_by_formula(r, n)
            assert all(isinstance(v, int) and v >= 0 for v in table.counts.values())

    def test_parity_and_support(self):
        table = counts_by_formula(2, 6)
        for key in table.counts:
            assert sum(abs(e) for e in key) <= 6
            assert (6 - sum(key)) % 2 == 0

    def test_rescaled_polynomial_total_at_ones(self):
        # the count table minus the trivial-class correction sums to (2r-1)^n + 1
        for r, n in ((2, 5), (3, 4), (4, 3)):
            table = counts_by_formula(r, n)
            correction = (r - 1) * (1 + (-1) ** n)
            assert table.total() - correction == (2 * r - 1) ** n + 1

    @pytest.mark.parametrize("r,n", [(2, 12), (3, 9), (4, 8), (5, 7)])
    def test_matches_full_lattice(self, r, n):
        *_, row = lattice_rows(1, 2 * r - 1, 2, r, n)
        counts = {e: v for e, v in row.items() if v}
        zero = (0,) * r
        counts[zero] = counts.get(zero, 0) + (r - 1) * (1 + (-1) ** n)
        assert counts_by_formula(r, n).counts == {e: v for e, v in counts.items() if v}

    @pytest.mark.parametrize("r,n_max", [(2, 10), (3, 7), (4, 6), (5, 5)])
    def test_lists_classes_lexicographically(self, r, n_max):
        zero = (0,) * r
        for n, row in enumerate(lattice_rows(1, 2 * r - 1, 2, r, n_max)):
            if not n:
                continue
            correction = (r - 1) * (1 + (-1) ** n)
            oracle = [(e, v + correction if e == zero else v) for e, v in row.items()]
            table = counts_by_formula(r, n)
            assert list(table.counts.items()) == [(e, v) for e, v in oracle if v]
            assert list(table.counts.items()) == list(table.sorted_items())


class TestTrivialClassLowerBound:
    """Step (iii) of the certificate: N_j >= 2(r-1) cyclically reduced words
    of even length j >= 4 lie in the trivial class, so the constant term
    N_j - 2(r-1) of W_j is >= 0."""

    @pytest.mark.parametrize("r,j", [(2, 4), (2, 6), (2, 8), (2, 10), (3, 4), (3, 6), (4, 4)])
    def test_enumerated_trivial_class(self, r, j):
        assert enumerate_counts(r, j).counts[(0,) * r] >= 2 * (r - 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_commutator_words(self, r, m):
        # a_1^m a_i a_1^-m a_i^-1 and a_i a_1^m a_i^-1 a_1^-m, i = 2..r
        words = set()
        for i in range(1, r):
            a, a_inv, b, b_inv = 0, 1, 2 * i, 2 * i + 1
            words.add((a,) * m + (b,) + (a_inv,) * m + (b_inv,))
            words.add((b,) + (a,) * m + (b_inv,) + (a_inv,) * m)
        assert len(words) == 2 * (r - 1)
        for letters in words:
            word = Word(letters, rank=r)
            assert len(word) == 2 * m + 2
            assert is_cyclically_reduced(word)
            assert homology_of(word) == (0,) * r


def test_table_equality_semantics():
    a = HomologyCountTable(2, 1, {(1, 0): 1})
    b = HomologyCountTable(2, 1, {(1, 0): 1})
    c = HomologyCountTable(2, 1, {(1, 0): 2})
    assert a == b and a != c
