"""The `Fraction` oracle's exact polynomial (``truncation=None``) and
truncated-power-series arithmetic, and the integer polynomial printer
checked against it."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmap.errors import IndexOutOfRange
from gaussmap.gaussian import falling
from gaussmap.rationals import poly_to_string
from series_oracle import TruncatedSeries

F = Fraction

small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coeff_lists = st.lists(small_rats, min_size=0, max_size=6)


def poly(coeffs):
    return TruncatedSeries.make([F(c) for c in coeffs], None)


def series(coeffs, truncation=8):
    return TruncatedSeries.make([F(c) for c in coeffs], truncation)


# -- polynomials -------------------------------------------------------------------


def test_polynomial_ring_identities():
    p = poly([1, 2, 3])
    q = poly([0, -1, 0, 4])
    zero = poly([])
    assert p + zero == p
    assert p * poly([1]) == p
    assert p - p == zero
    assert (p + q) - q == p


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_derivative_obeys_leibniz(a, b):
    p, q = poly(a), poly(b)
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


def test_monomial_derivative_produces_falling_factorial():
    d = TruncatedSeries.monomial(7).derivative().derivative().derivative()
    assert d == TruncatedSeries.monomial(4, falling(7, 3))
    assert falling(7, 3) == 7 * 6 * 5


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)
)
def test_falling_factorial_matches_factorial_quotient(n, k):
    if k > n:
        assert falling(n, k) == 0
    else:
        assert falling(n, k) == math.factorial(n) // math.factorial(n - k)


def test_polynomial_string_rendering_is_exact():
    assert poly([F(1, 2), 0, -3]).to_string() == "1/2 + -3*x^2"
    assert poly([0, F(-2, 3), 0, 5]).to_string() == "-2/3*x + 5*x^3"
    assert poly([]).to_string() == "0"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-10**30, 10**30) | st.just(0), max_size=8),
    st.integers(1, 10**6) | st.just(1),
)
def test_the_integer_printer_renders_what_the_oracle_renders(coeffs, den):
    expected = TruncatedSeries.make((F(c, den) for c in coeffs), None).to_string()
    assert poly_to_string(coeffs, den) == expected


# -- truncated series --------------------------------------------------------------


def test_series_multiplication_truncates_to_the_shorter_operand():
    a = series([1, 1], truncation=5)
    b = series([1, 0, 2], truncation=3)
    prod = a * b
    assert prod.truncation == 3
    assert [prod.coefficient(i) for i in range(3)] == [F(1), F(1), F(2)]


def test_series_coefficient_beyond_truncation_is_refused():
    s = series([1, 2, 3], truncation=3)
    with pytest.raises(IndexOutOfRange):
        s.coefficient(3)


def test_series_valuation_of_zero_series_is_refused():
    s = series([0, 0, 0], truncation=3)
    with pytest.raises(IndexOutOfRange):
        s.valuation()


def test_inverse_multiplies_back_to_one():
    s = series([1, 3, -2, F(1, 5)], truncation=6)
    inv = s.inverse(6)
    prod = s * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(i) == 0 for i in range(1, prod.truncation))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rats, min_size=1, max_size=5))
def test_inverse_of_unit_series_is_two_sided(coeffs):
    if F(coeffs[0]) == 0:
        coeffs = [F(1)] + [F(c) for c in coeffs[1:]]
    s = series(coeffs, truncation=6)
    inv = s.inverse(6)
    for prod in (s * inv, inv * s):
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(i) == 0 for i in range(1, prod.truncation))


def same_to_common_truncation(a, b):
    orders = [t for t in (a.truncation, b.truncation) if t is not None]
    bound = min(orders) if orders else max(len(a.coeffs), len(b.coeffs))
    return all(a.coefficient(i) == b.coefficient(i) for i in range(bound))


def test_compose_poly_matches_naive_expansion():
    s = series([0, 1, 1], truncation=5)  # z + z^2
    p = poly([2, 0, 1])  # 2 + x^2
    composed = s.compose_poly(p)
    naive = TruncatedSeries.make([F(2)], 5) + s * s
    assert same_to_common_truncation(composed, naive)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists)
def test_compose_poly_is_ring_homomorphism_in_the_polynomial(a, b):
    s = series([0, 1, -1, F(1, 3)], truncation=6)
    p, q = poly(a), poly(b)
    assert same_to_common_truncation(
        s.compose_poly(p) + s.compose_poly(q), s.compose_poly(p + q)
    )
    assert same_to_common_truncation(
        s.compose_poly(p) * s.compose_poly(q), s.compose_poly(p * q)
    )


def test_derivative_matches_coefficient_shift():
    s = series([5, 1, 4, 2], truncation=4)
    d = s.derivative()
    assert d.truncation == 3
    assert [d.coefficient(i) for i in range(3)] == [F(1), F(8), F(6)]


def test_shift_up_then_down_round_trips():
    s = series([3, 1, 2], truncation=4)
    assert s.shift_up(2).shift_down(2) == s


def test_shift_down_requires_divisibility():
    s = series([1, 2], truncation=4)
    with pytest.raises(IndexOutOfRange):
        s.shift_down(1)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, st.integers(min_value=0, max_value=5))
def test_derivative_at_zero_is_scaled_taylor_coefficient(coeffs, order):
    s = series(coeffs, truncation=8)
    assert s.derivative_at_zero(order) == s.coefficient(order) * math.factorial(
        order
    )
