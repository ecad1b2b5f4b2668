from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcheb import DomainError, LaurentPoly, UsageError, format_exact, parse_exact


def uni(terms):
    return LaurentPoly(1, {(e,): c for e, c in terms.items()})


class TestExamples:
    def test_add_merges_terms(self):
        p = uni({1: 1, -1: 1})
        q = uni({0: 2, 1: 1})
        assert p + q == uni({1: 2, 0: 2, -1: 1})

    def test_additive_identity(self):
        p = uni({3: F(5, 7), -2: -4})
        assert p + LaurentPoly.zero(1) == p

    def test_cancellation_drops_key(self):
        p = uni({2: 1, 0: 3})
        q = uni({2: -1, 0: 1})
        total = p + q
        assert total == uni({0: 4})
        assert len(total) == 1  # the x^2 key is not stored

    def test_square_of_x_plus_inverse(self):
        p = uni({1: 1, -1: 1})
        assert p * p == uni({2: 1, 0: 2, -2: 1})

    def test_multiplicative_identity(self):
        p = uni({4: F(1, 3), -4: 2})
        assert p * LaurentPoly.constant(1, 1) == p

    def test_bivariate_square(self):
        s = LaurentPoly(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
        ss = s * s
        assert ss.coeff((0, 0)) == 4
        assert ss.coeff((1, 1)) == 2

    def test_coeff_lookup(self):
        p = uni({2: 1, 0: 2, -2: 1})
        assert p.coeff((0,)) == 2
        assert p.coeff((1,)) == 0

    def test_evaluate(self):
        assert uni({1: 1, -1: 1}).evaluate((1,)) == 2
        assert uni({2: 1, 0: 2, -2: 1}).evaluate((2,)) == F(25, 4)

    def test_mirror(self):
        p = uni({1: 1, 0: 2})
        assert p.mirror(0) == uni({-1: 1, 0: 2})
        assert p.mirror(0).mirror(0) == p

    def test_monomial(self):
        assert LaurentPoly.monomial([2, -1], F(3, 4)) == LaurentPoly(2, {(2, -1): F(3, 4)})
        assert LaurentPoly.monomial((0,)) == LaurentPoly.constant(1, 1)

    def test_is_zero(self):
        assert LaurentPoly.zero(2).is_zero()
        assert (uni({1: 1}) - uni({1: 1})).is_zero()
        assert not uni({0: 1}).is_zero()

    def test_equal_polynomials_hash_alike(self):
        p = uni({2: 1, -2: 1}) * uni({0: 3})
        q = LaurentPoly(1, [((-2,), 3), ((2,), 3)])
        assert p == q and hash(p) == hash(q)
        assert len({p, q, uni({0: 1})}) == 2

    def test_repr_lists_sorted_terms_exactly(self):
        p = uni({2: 2, 0: 3, -2: 2})
        assert repr(p) == "LaurentPoly(arity=1, {[-2]: 2/1, [0]: 3/1, [2]: 2/1})"
        assert repr(LaurentPoly.zero(2)) == "LaurentPoly(arity=2, {})"


class TestErrors:
    def test_arity_mismatch(self):
        p = uni({1: 1})
        q = LaurentPoly(2, {(1, 0): 1})
        with pytest.raises(UsageError):
            p + q
        with pytest.raises(UsageError):
            p * q

    def test_coeff_wrong_length(self):
        with pytest.raises(UsageError):
            uni({1: 1}).coeff((1, 0))

    def test_evaluate_zero_point(self):
        with pytest.raises(DomainError):
            uni({-1: 1}).evaluate((0,))

    def test_evaluate_wrong_length(self):
        with pytest.raises(UsageError):
            uni({1: 1}).evaluate((1, 2))

    def test_mirror_bad_index(self):
        with pytest.raises(UsageError):
            uni({1: 1}).mirror(1)

    def test_float_coefficients_rejected(self):
        with pytest.raises(UsageError):
            LaurentPoly(1, {(0,): 0.5})

    @pytest.mark.parametrize("arity", [0, -1, 1.0, "1"])
    def test_bad_arity(self, arity):
        with pytest.raises(UsageError, match=f"^arity must be a positive integer, got {arity!r}$"):
            LaurentPoly(arity)

    @pytest.mark.parametrize("exponents", [(1, 0), (), (1.0,), ("1",)])
    def test_bad_exponent_vector(self, exponents):
        with pytest.raises(UsageError, match=r"^exponent vector .* does not have arity 1$"):
            LaurentPoly(1, [(exponents, 1)])

    def test_foreign_operands_are_not_implemented(self):
        p = uni({1: 1})
        assert p.__eq__("x") is NotImplemented and p != "x"
        for operand in ("x", 0.5, None):
            for method in (p.__add__, p.__sub__, p.__mul__):
                assert method(operand) is NotImplemented
        with pytest.raises(TypeError):
            p + "x"
        with pytest.raises(TypeError):
            p - 1
        with pytest.raises(TypeError):
            p * 0.5


class TestSerialization:
    def test_format_exact_never_abbreviates(self):
        assert format_exact(F(3)) == "3/1"
        assert format_exact(F(-1221, 16000)) == "-1221/16000"
        assert format_exact(0) == "0/1"

    def test_parse_exact(self):
        assert parse_exact("7/3") == F(7, 3)
        assert parse_exact("-4") == F(-4)
        with pytest.raises(UsageError):
            parse_exact("1.5")
        with pytest.raises(UsageError):
            parse_exact("1/0")

    def test_terms_sorted_lexicographically(self):
        p = LaurentPoly(2, {(1, -1): 1, (-1, 1): 2, (1, 1): 3, (0, 0): 4})
        assert [e for e, _ in p.terms()] == [(-1, 1), (0, 0), (1, -1), (1, 1)]


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def poly_families(draw, count=2):
    arity = draw(st.integers(min_value=1, max_value=3))
    exponents = st.tuples(*[st.integers(-5, 5)] * arity)
    family = []
    for _ in range(count):
        terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=8))
        family.append(LaurentPoly(arity, terms))
    return family


@st.composite
def poly_with_point(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    exponents = st.tuples(*[st.integers(-5, 5)] * arity)
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=8))
    values = st.sampled_from([F(1, 2), F(-1, 2), F(2), F(-2), F(3), F(-3, 2)])
    point = tuple(draw(values) for _ in range(arity))
    other = draw(st.lists(st.tuples(exponents, coefficients), max_size=6))
    return LaurentPoly(arity, terms), LaurentPoly(arity, other), point


@settings(max_examples=60)
@given(poly_families(count=3))
def test_ring_axioms(family):
    p, q, r = family
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60)
@given(poly_with_point())
def test_evaluation_homomorphism(data):
    p, q, point = data
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@settings(max_examples=60)
@given(poly_families(count=2))
def test_canonical_form_has_no_zero_terms(family):
    p, q = family
    for result in (p + q, p - q, p * q):
        assert all(coeff != 0 for _, coeff in result.terms())


@settings(max_examples=60)
@given(poly_families(count=2), st.data())
def test_mirror_is_involution_and_commutes(family, data):
    p, q = family
    i = data.draw(st.integers(0, p.arity - 1))
    assert p.mirror(i).mirror(i) == p
    assert (p + q).mirror(i) == p.mirror(i) + q.mirror(i)
    assert (p * q).mirror(i) == p.mirror(i) * q.mirror(i)
