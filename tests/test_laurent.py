"""Exact Laurent arithmetic: examples, algebraic laws, divide_exact, parsing."""

from fractions import Fraction
from math import gcd

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


# The stored form: integer numerators over one positive denominator, in
# lowest terms.  Each operation is checked against a dense Fraction oracle.


def _dense(a):
    """a as (lo, coefficients): one Fraction per exponent from lo up."""
    if a.is_zero:
        return 0, []
    lo = a.valuation()
    return lo, [Fraction(a.coefficient(e)) for e in range(lo, a.degree() + 1)]


def _dense_add(x, y):
    lo = min(x[0], y[0])
    out = [Fraction(0)] * (max(x[0] + len(x[1]), y[0] + len(y[1])) - lo)
    for start, coeffs in (x, y):
        for i, c in enumerate(coeffs):
            out[start - lo + i] += c
    return lo, out


def _dense_mul(x, y):
    out = [Fraction(0)] * (len(x[1]) + len(y[1]))
    for i, c in enumerate(x[1]):
        for j, d in enumerate(y[1]):
            out[i + j] += c * d
    return x[0] + y[0], out


def _as_terms(x):
    lo, coeffs = x
    return {lo + i: c for i, c in enumerate(coeffs) if c}


def _assert_stored_in_lowest_terms(a):
    """The stored form is canonical, and a coefficient read out is an int
    exactly when it is integral."""
    assert type(a._den) is int and a._den >= 1
    assert all(type(n) is int and n for n in a._terms.values())
    assert gcd(a._den, *a._terms.values()) == 1  # zero: the gcd is _den, so 1
    assert all(type(c) is int or c.denominator != 1 for c in a.terms.values())


def _check_against_dense_oracle(a, b, k, c, x):
    da, db = _dense(a), _dense(b)
    neg_b = (db[0], [-v for v in db[1]])
    expected = {
        "+": (a + b, _dense_add(da, db)),
        "-": (a - b, _dense_add(da, neg_b)),
        "*": (a * b, _dense_mul(da, db)),
        "shift": (a.shift(k), (da[0] + k, da[1])),
        "times_q_minus_1": (a.times_q_minus_1(), _dense_mul(da, (0, [Fraction(-1), Fraction(1)]))),
        "scale": (a.scale(c), (da[0], [c * v for v in da[1]])),
    }
    for name, (result, oracle) in expected.items():
        assert result.terms == _as_terms(oracle), name
        _assert_stored_in_lowest_terms(result)
    lo, coeffs = da
    assert a.evaluate(x) == sum((v * x ** (lo + i) for i, v in enumerate(coeffs)), Fraction(0))
    if not b.is_zero:
        quotient = (a * b).divide_exact(b)
        assert _as_terms(_dense_mul(_dense(quotient), db)) == _as_terms(_dense_mul(da, db))
        _assert_stored_in_lowest_terms(quotient)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(laurents, laurents, st.integers(-4, 4), _RATIONALS, _RATIONALS.filter(bool))
@example(LaurentQ({0: Fraction(1, 2), 1: Fraction(1, 3)}), LaurentQ({0: Fraction(1, 2)}), 1, Fraction(6), Fraction(2))
def test_operations_agree_with_a_dense_fraction_oracle(a, b, k, c, x):
    _check_against_dense_oracle(a, b, k, c, x)


def test_a_normalization_that_skips_the_gcd_fails(monkeypatch):
    """Negative control: the oracle check catches numerators over a
    denominator that are not in lowest terms."""
    a, b = LaurentQ({0: Fraction(1, 2), 1: Fraction(1, 3)}), LaurentQ({0: Fraction(1, 2)})
    _check_against_dense_oracle(a, b, 1, Fraction(6), Fraction(2))
    monkeypatch.setattr(LaurentQ, "_reduced", classmethod(lambda cls, terms, den: cls._new(terms, den)))
    with pytest.raises(AssertionError):
        _check_against_dense_oracle(a, b, 1, Fraction(6), Fraction(2))
    assert LaurentQ({0: Fraction(1, 2)}) * 2 != 1


@given(laurents, st.integers(1, 6))
def test_equal_values_are_stored_alike(a, k):
    routes = [
        LaurentQ(a.terms),
        LaurentQ({e: Fraction(c * k) / k for e, c in a.terms.items()}),
        (a * k).scale(Fraction(1, k)),
        a + qpow(k) - qpow(k),
        sum((LaurentQ({e: c}) for e, c in a.terms.items()), ZERO),
    ]
    for b in routes:
        assert b == a and hash(b) == hash(a)
        assert (b._terms, b._den) == (a._terms, a._den)


def test_integral_values_are_stored_and_read_as_ints():
    two = LaurentQ({0: Fraction(4, 2), 1: 2})
    assert (two._terms, two._den) == ({0: 2, 1: 2}, 1)
    assert two == LaurentQ({0: 2, 1: Fraction(6, 3)}) and hash(two) == hash(LaurentQ({0: 2, 1: 2}))
    assert hash(LaurentQ({0: Fraction(4, 2)})) == hash(2)
    product = LaurentQ({0: Fraction(1, 2)}) * 2
    assert product.terms == {0: 1} and type(product.terms[0]) is int
    total = LaurentQ({1: Fraction(1, 3)}) + LaurentQ({1: Fraction(2, 3), 2: Fraction(1, 2)})
    assert total.terms == {1: 1, 2: Fraction(1, 2)} and type(total.coefficient(1)) is int
    assert (total - total)._den == 1 and type(total.coefficient(5)) is int


def test_values_that_differ_only_in_the_denominator_are_unequal():
    third = LaurentQ({2: Fraction(1, 3), 3: -1})
    assert third._terms == LaurentQ({2: 1, 3: -3})._terms
    assert third != LaurentQ({2: 1, 3: -3}) and third * 3 == LaurentQ({2: 1, 3: -3})
    assert LaurentQ({0: Fraction(1, 2)}) != 1 and hash(LaurentQ({0: Fraction(1, 2)})) == hash(Fraction(1, 2))
