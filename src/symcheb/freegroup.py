"""Counting cyclically reduced words in a free group by homology class.

Letters of the rank-r free group are encoded as ints in [0, 2r): code 2i is
the generator a_{i+1} and code 2i+1 its inverse, so inversion is code ^ 1.
A word of length n is cyclically reduced when no adjacent pair cancels and
(for n >= 2) the first letter is not the inverse of the last.

Two independent counting routes are provided:

* ``enumerate_counts`` -- brute force.  Extends prefixes only with letters
  that do not cancel the previous one, filters the cyclic condition at full
  length, and tallies words by their vector of signed exponent sums.
  Visits 2r * (2r-1)^(n-1) words, subject to a budget.

* ``counts_by_formula`` -- generating function.  The count of class e is the
  coefficient of x^e in W_n + (r-1)(1 + (-1)^n), where W_n is the integer
  Laurent polynomial defined by W_0 = 2, W_1 = S, W_{m+1} = S W_m -
  (2r-1) W_{m-1}, with S = sum_i (x_i + 1/x_i).  W_n is the Dickson-style
  rescaling 2 (sqrt(2r-1))^n T_n(S / (2 sqrt(2r-1))): the rescaled
  recurrence keeps every intermediate value an integer, so no quadratic
  irrationality ever enters the computation.  It is the package's integer
  kernel ``chebyshev.orbit_rows`` with a = 1, g = 2r - 1, one count per
  orbit of the sign flips and permutations of the generators.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .chebyshev import _check_row_size, orbit_rows, orbit_terms
from .errors import ENUM_BUDGET_ENV, ResourceBudgetError, UsageError, resolve_enum_budget

HomologyClass = tuple[int, ...]


def inverse_letter(code: int) -> int:
    """The inverse of a letter code; an involution with no fixed point."""
    return code ^ 1


class _WordFields(NamedTuple):
    letters: tuple[int, ...]
    rank: int


class Word(_WordFields):
    """A sequence of letter codes in the rank-r free group."""

    __slots__ = ()

    def __new__(cls, letters: tuple[int, ...], rank: int):
        if not isinstance(rank, int) or rank < 1:
            raise UsageError(f"rank must be a positive integer, got {rank!r}")
        letters = tuple(letters)
        for code in letters:
            if not isinstance(code, int) or not 0 <= code < 2 * rank:
                raise UsageError(f"letter code {code!r} out of range for rank {rank}")
        return super().__new__(cls, letters, rank)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    def __len__(self) -> int:
        return len(self.letters)


def is_cyclically_reduced(word: Word) -> bool:
    """True iff no adjacent pair cancels and first != inverse(last).

    Reducedness is checked, not assumed.  Length-1 words are cyclically
    reduced; the empty word is excluded by convention (counts are defined
    for length >= 1 only).
    """
    letters = word.letters
    if not letters:
        return False
    for prev, cur in zip(letters, letters[1:]):
        if cur == prev ^ 1:
            return False
    if len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
        return False
    return True


def homology_of(word: Word) -> HomologyClass:
    """Signed exponent sum per generator (the abelianized word)."""
    exponents = [0] * word.rank
    for code in word.letters:
        exponents[code >> 1] += 1 - 2 * (code & 1)
    return tuple(exponents)


class _HomologyCountFields(NamedTuple):
    r: int
    n: int
    counts: dict[HomologyClass, int]


class HomologyCountTable(_HomologyCountFields):
    """Word counts of one (rank, length) pair, keyed by homology class.

    Classes with zero count are not stored, so tables compare equal iff
    they tally identically in any order: ``counts_by_formula`` lists classes
    lexicographically, as ``sorted_items`` does, and ``enumerate_counts`` in
    the order its walk reaches them.  Each table made without ``counts``
    gets its own empty dict.
    """

    __slots__ = ()

    def __new__(cls, r: int, n: int, counts: dict[HomologyClass, int] | None = None):
        return super().__new__(cls, r, n, {} if counts is None else counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def sorted_items(self) -> Iterator[tuple[HomologyClass, int]]:
        for key in sorted(self.counts):
            yield key, self.counts[key]


def check_rank(r: int) -> None:
    """Reject a rank r that is not an int >= 2."""
    if not isinstance(r, int) or r < 2:
        raise UsageError(f"rank must be an integer >= 2, got {r!r}")


def _check_rank_length(r: int, n: int) -> None:
    check_rank(r)
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"word length must be an integer >= 1, got {n!r}")


def enumerate_counts(r: int, n: int) -> HomologyCountTable:
    """Brute-force tally of all cyclically reduced words of length n in rank r.

    Enumeration is depth first in lexicographic code order, pruning any
    extension that cancels the previous letter; the cyclic condition is
    filtered at full length.
    """
    _check_rank_length(r, n)
    _check_words(r, n)
    counts: dict[HomologyClass, int] = {}
    alphabet = range(2 * r)
    exponents = [0] * r

    def extend(pos: int, prev: int, excluded: int) -> None:  # excluded: inverse of the first letter
        if pos == n - 1:
            for code in alphabet:
                if code == prev ^ 1 or code == excluded:
                    continue
                gen, sign = code >> 1, 1 - 2 * (code & 1)
                exponents[gen] += sign
                key = tuple(exponents)
                counts[key] = counts.get(key, 0) + 1
                exponents[gen] -= sign
            return
        for code in alphabet:
            if code == prev ^ 1:
                continue
            gen, sign = code >> 1, 1 - 2 * (code & 1)
            exponents[gen] += sign
            extend(pos + 1, code, excluded if pos else code ^ 1)
            exponents[gen] -= sign

    extend(0, -1, -1)  # at the root, -1 and -1 ^ 1 = -2 rule out no letter
    return HomologyCountTable(r=r, n=n, counts=counts)


def _check_words(r: int, n: int) -> None:
    """Raise ResourceBudgetError when the 2r (2r-1)^(n-1) words that
    ``enumerate_counts`` visits are over the budget, before any is visited.
    A bound over 2^128 is written as "more than 2^b", with 2^b < bound <=
    2^(b+1).  A bound known from (2r-1)^(n-1) >= 2^low to be over both the
    budget and 2^65536 is not computed, and b is low."""
    budget = resolve_enum_budget()
    low = (n - 1) * ((2 * r - 1).bit_length() - 1)  # (2r - 1)^(n - 1) >= 2^low
    if low < max(budget.bit_length(), 1 << 16):
        bound = 2 * r * (2 * r - 1) ** (n - 1)
        if bound <= budget:
            return
        low = (bound - 1).bit_length() - 1  # 2^low < bound, also at a power of two
    size = str(bound) if low < 128 else f"more than 2^{low}"
    raise ResourceBudgetError(
        f"enumeration of {size} words exceeds the budget of {budget} (raise {ENUM_BUDGET_ENV})"
    )


def _check_budgets(r: int, n: int) -> None:
    """Raise before either route runs when r or n is invalid, then when the
    kernel row that ``counts_by_formula`` walks (k = r, n_max = n) or the
    words that ``enumerate_counts`` visits are over the budget.  Both
    budgets are closed forms, so the check costs no row and no word."""
    _check_rank_length(r, n)
    _check_row_size(r, n)
    _check_words(r, n)


def counts_by_formula(r: int, n: int) -> HomologyCountTable:
    """Word counts from the rescaled generating-function recurrence.

    counts(e) = [x^e] W_n, plus (r-1)(1 + (-1)^n) on the trivial class only
    (a constant summand has no monomial content).  All arithmetic is exact
    over the integers.
    """
    counts = dict(orbit_terms(*_formula_row(r, n), int))
    return HomologyCountTable(r=r, n=n, counts=counts)


def _formula_row(r: int, n: int) -> tuple[tuple[HomologyClass, ...], list[int]]:
    """(reps, counts): one count per orbit representative, the kernel row
    W_n with the trivial-class correction added at the origin."""
    _check_rank_length(r, n)
    for reps, row in orbit_rows(1, 2 * r - 1, 2, r, n):
        pass
    # odd n has no origin in its row, and no correction; at even n the
    # origin is reps[0], and the kernel hands over the last row it made
    if n % 2 == 0:
        row[0] += trivial_class_correction(r, n)
    return reps, row


def trivial_class_correction(r: int, n: int) -> int:
    """(r-1)(1 + (-1)^n): what the trivial class's count adds to the
    constant coefficient of W_n."""
    return (r - 1) * (1 + (-1) ** n)


def total_count(r: int, n: int) -> int:
    """Total cyclically reduced words of length n in rank r.

    (2r-1)^n + 1 + (r-1)(1 + (-1)^n): the value of the generating
    polynomial at x = (1, ..., 1), where the closed form of T_n collapses
    the rescaled evaluation to (2r-1)^n + 1.
    """
    _check_rank_length(r, n)
    return (2 * r - 1) ** n + 1 + trivial_class_correction(r, n)
