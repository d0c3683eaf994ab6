"""The shared sparse-vector operations on every element type of the package."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckehom.hecke import HeckeElement
from heckehom.hh0 import HH0Class
from heckehom.laurent import ONE, ZERO, LaurentQ, Q
from heckehom.spectral import LambdaElement
from heckehom.sparse import add_into, add_shifted, add_term, exact, exact_quotient, linear
from heckehom.weyl import E, S, T

# per type: (a, b, key that cancels in a + b)
CASES = {
    "LaurentQ": (
        LaurentQ({0: 1, 2: Fraction(1, 2)}),
        LaurentQ({2: Fraction(-1, 2), 3: 4}),
        2,
    ),
    "HeckeElement": (
        HeckeElement({S: Q, E: 1}),
        HeckeElement({S: -Q, T: 2}),
        S,
    ),
    "LambdaElement": (
        LambdaElement({1: Q, 0: 1}),
        LambdaElement({1: -Q, -1: 2}),
        1,
    ),
    "HH0Class": (
        HH0Class({"s": Q, 0: 1}),
        HH0Class({"s": -Q, "t": 2}),
        "s",
    ),
}
NAMES = list(CASES)


def _assert_clean(result, like):
    assert type(result) is type(like)
    assert all(result.terms.values()), "a zero coefficient was stored"


@pytest.mark.parametrize("name", NAMES)
def test_operations_drop_zeros_and_keep_type(name):
    a, b, cancelled = CASES[name]
    total = a + b
    _assert_clean(total, a)
    assert cancelled in a.terms and cancelled in b.terms
    assert cancelled not in total.terms
    assert total - b == a
    _assert_clean(total - b, a)
    _assert_clean(-a, a)
    assert (-a + a).is_zero and (a - a).is_zero
    _assert_clean(a - a, a)
    assert a.scale(0).is_zero
    _assert_clean(a.scale(0), a)
    assert a.scale(2) == a + a
    _assert_clean(a.scale(2), a)
    assert a == a + b - b and a != b


@pytest.mark.parametrize("name", NAMES)
def test_terms_round_trip_through_the_one_constructor(name):
    for x in CASES[name][:2]:
        assert "__init__" not in vars(type(x))
        assert type(x)(x.terms) == x


@pytest.mark.parametrize("name", NAMES)
def test_cross_type_equality_is_not_implemented(name):
    a = CASES[name][0]
    other = CASES[NAMES[(NAMES.index(name) + 1) % len(NAMES)]][0]
    assert a.__eq__(other) is NotImplemented and a.__add__(other) is NotImplemented
    assert a != other and not (a == other)


def test_accumulation_helpers():
    target = {1: 2, 2: Fraction(1, 2)}
    add_term(target, 2, Fraction(-1, 2))
    add_term(target, 3, 0)
    add_term(target, 4, 5)
    assert list(target.items()) == [(1, 2), (4, 5)]
    assert add_into(target, {1: 1, 4: 1}, -2) is target
    assert target == {4: 3}
    assert add_into(target, {4: -3, 5: 1}) == {5: 1}
    assert add_into(target, {5: 7}, 0) == {5: 1}
    source = {6: LaurentQ({0: 1})}
    add_into(target, source)
    assert target[6] is source[6]  # the plain form stores the value, no product by 1


_SPARSE = st.dictionaries(
    st.integers(-4, 4),
    (st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)).filter(bool),
    max_size=5,
)


@given(_SPARSE, _SPARSE, st.integers(-3, 3), st.data())
def test_add_shifted_adds_at_the_offset_and_deletes_what_cancels(target, source, k, data):
    # some entries of target are cancelled on purpose by the entry of source k below them
    cancelled = data.draw(st.sets(st.sampled_from(sorted(target))) if target else st.just(set()))
    source.update({key - k: -target[key] for key in cancelled})
    expected = add_into(dict(target), {key + k: value for key, value in source.items()})
    add_shifted(target, source, k)
    assert target == expected
    assert all(target.values())
    assert not cancelled & target.keys()


def test_linear_extension():
    double = lambda key: {key: 1, 2 * key: 1}
    assert linear(double, {1: 3, 2: -3}) == {1: 3, 4: -3}  # the 2s cancel
    assert linear(double, {}) == {}


def test_laurent_types_stay_hashable():
    assert len({LaurentQ({1: 2}), LaurentQ({1: Fraction(2)}), CASES["LaurentQ"][0]}) == 2


def test_a_constant_hashes_as_the_scalar_it_equals():
    for scalar in (1, 0, -3, Fraction(1, 2)):
        constant = LaurentQ({0: scalar})
        assert constant == scalar and hash(constant) == hash(scalar)
        assert len({constant, scalar}) == 1
    assert len({ONE, 1}) == len({ZERO, 0}) == 1
    assert {Q: "q", 1: "one"}[ONE] == "one"
    # a polynomial that is no constant is still no scalar
    assert len({Q, 1, LaurentQ({0: 1, 1: 1}), LaurentQ({-1: 2})}) == 4


# per type: an element with one coefficient c, and that coefficient's scalar
# (the Hecke-side types store LaurentQ coefficients, read at q^0)
ONE_COEFFICIENT = {
    "LaurentQ": (lambda c: LaurentQ({0: c}), lambda x: x.terms[0]),
    "HeckeElement": (lambda c: HeckeElement({S: c}), lambda x: x.terms[S].terms[0]),
    "LambdaElement": (lambda c: LambdaElement({1: c}), lambda x: x.terms[1].terms[0]),
    "HH0Class": (lambda c: HH0Class({0: c}), lambda x: x.terms[0].terms[0]),
}


@pytest.mark.parametrize("name", NAMES)
def test_coefficients_follow_one_rule(name):
    """Integral values are stored as ints, others as Fractions, floats never."""
    build, scalar = ONE_COEFFICIENT[name]
    for value, stored in [
        (2, int), (Fraction(4, 2), int), ("6/3", int), (Fraction(1, 2), Fraction),
        ("3/4", Fraction), (exact_quotient(6, 3), int), (exact_quotient(3, 6), Fraction),
        (exact_quotient(Fraction(1, 2), Fraction(1, 4)), int),
    ]:
        element = build(value)
        assert type(scalar(element)) is stored and scalar(element) == exact(value)
        assert type(scalar(element.scale(Fraction(3, 3)))) is stored
    with pytest.raises(TypeError):
        build(0.5)
    with pytest.raises(TypeError):
        build(1).scale(0.5)


def test_exact_refuses_inexact_values():
    for bad in (0.5, 1.0, None, [1]):
        with pytest.raises(TypeError):
            exact(bad)
    with pytest.raises(TypeError):
        exact_quotient(1.0, 2)
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)
