"""Exact Laurent arithmetic: examples, algebraic laws, divide_exact, parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from heckehom.laurent import LaurentQ, NotDivisible, ONE, Q, ZERO, qpow
from heckehom.exprparse import parse_laurent


def test_addition_examples():
    assert Q + (-Q) == ZERO
    assert (Q - 1) + 1 == Q
    added = qpow(-1) + Q
    assert added.terms == {-1: Fraction(1), 1: Fraction(1)}


def test_multiplication_examples():
    assert (Q - 1) * (Q + 1) == Q**2 - 1
    assert qpow(-1) * Q == ONE
    assert ZERO * Q**3 == ZERO


def test_divide_exact_examples():
    assert (Q**2 - 1).divide_exact(Q - 1) == Q + 1
    # verified by multiplying back
    quotient = ((Q - 1) ** 2).divide_exact(Q * (Q - 1))
    assert quotient == 1 - qpow(-1)
    assert quotient * (Q * (Q - 1)) == (Q - 1) ** 2
    with pytest.raises(NotDivisible):
        Q.divide_exact(Q + 1)
    with pytest.raises(ZeroDivisionError):
        Q.divide_exact(ZERO)


laurents = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
    max_size=5,
).map(LaurentQ)


@given(laurents, laurents, laurents)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_divide_exact_inverts_multiplication(a, b):
    if b.is_zero:
        return
    assert (a * b).divide_exact(b) == a


@given(laurents, laurents)
@example(LaurentQ({0: 1, 1: -1}), LaurentQ({0: 1, 1: 1}))  # the q terms cancel
@example(LaurentQ({0: Fraction(1, 2), 1: 1}), LaurentQ({0: Fraction(1, 2), 1: -1}))
def test_product_is_the_dense_convolution_and_stores_no_zero(a, b):
    """Exponents -5..5 in each factor, so -10..10 in the product: the dense
    Fraction convolution, with the zeros dropped, is every stored term."""
    dense_a = [Fraction(a.coefficient(e)) for e in range(-5, 6)]
    dense_b = [Fraction(b.coefficient(e)) for e in range(-5, 6)]
    dense = [Fraction(0)] * 21
    for i, x in enumerate(dense_a):
        for j, y in enumerate(dense_b):
            dense[i + j] += x * y
    product = (a * b).terms
    assert product == {i - 10: c for i, c in enumerate(dense) if c}
    assert all(product.values())  # no stored zero


@given(laurents)
def test_times_q_minus_1_is_the_product_with_q_minus_1(a):
    product = a.times_q_minus_1()
    assert product == a * (Q - 1)
    assert all(product.terms.values())  # no stored zero


@given(laurents, st.integers(min_value=-6, max_value=6))
def test_shift_is_multiplication_by_a_power_of_q(a, k):
    assert a.shift(k) == a * qpow(k)
    assert a.shift(k).shift(-k) == a


def test_render_signs_and_fractions():
    a = LaurentQ({-1: -1, 0: 2, 1: Fraction(3, 4), 2: Fraction(-1, 2)})
    assert a.render() == "-q^-1 + 2 + 3/4*q - 1/2*q^2"
    assert LaurentQ({0: -1}).render() == "-1"
    assert LaurentQ({0: Fraction(-5, 3)}).render() == "-5/3"
    assert LaurentQ({3: -1}).render() == "-q^3"
    assert ZERO.render() == "0"


@given(laurents)
def test_render_parse_round_trip(a):
    assert parse_laurent(a.render()) == a


def test_evaluate():
    assert ((Q - 1) * (Q + 2)).evaluate(1) == 0
    assert qpow(-2).evaluate(Fraction(1, 2)) == 4
    assert qpow(-2).evaluate(2) == Fraction(1, 4)


def test_negative_power_of_unit():
    assert qpow(3) ** -1 == qpow(-3)
    with pytest.raises(NotDivisible):
        (Q + 1) ** -1

