"""The trace quotient: rewriting reduction, trace property, oracle agreement."""

import random

from heckehom.laurent import Q, qpow
from heckehom.weyl import S, T, WeylWord, all_words, st_power, ts_power
from heckehom.hecke import basis, t_mul
from heckehom.hh0 import HH0Class, class_of_word, reduce_to_hh0
from heckehom.hh0_oracle import QFrac, TruncatedTraceOracle, poly_gcd

from test_hecke import random_element


def test_basis_fixed_points():
    assert reduce_to_hh0(basis(S)) == HH0Class.basis_s()
    assert reduce_to_hh0(basis(T)) == HH0Class.basis_t()
    for n in range(0, 12):
        assert reduce_to_hh0(basis(st_power(n))) == HH0Class.basis_even(n)


def test_rotation_examples():
    assert class_of_word(ts_power(1)) == HH0Class.basis_even(1)
    assert class_of_word(ts_power(4)) == HH0Class.basis_even(4)
    # rotate T_st T_s to T_s T_st = T_s^2 T_t, then apply the quadratic relation
    expected = HH0Class.basis_even(1).scale(Q - 1) + HH0Class.basis_t().scale(Q)
    assert class_of_word(WeylWord.parse("sts")) == expected
    # the two odd families are distinct classes
    other = HH0Class.basis_even(1).scale(Q - 1) + HH0Class.basis_s().scale(Q)
    assert class_of_word(WeylWord.parse("tst")) == other
    assert class_of_word(WeylWord.parse("tst")) != class_of_word(WeylWord.parse("sts"))


def test_commutators_vanish():
    a = basis(S)
    b = basis(T)
    assert reduce_to_hh0(t_mul(a, b) - t_mul(b, a)).is_zero
    rng = random.Random(23)
    for _ in range(50):
        x = random_element(rng, max_length=8)
        y = random_element(rng, max_length=8)
        assert reduce_to_hh0(t_mul(x, y) - t_mul(y, x)).is_zero


def test_trace_property_random_products():
    rng = random.Random(30)
    for _ in range(200):
        x = random_element(rng, max_length=8)
        y = random_element(rng, max_length=8)
        assert reduce_to_hh0(t_mul(x, y)) == reduce_to_hh0(t_mul(y, x))


def test_linearity_and_scaling():
    rng = random.Random(31)
    coeff = Q - qpow(-1)
    for _ in range(20):
        x = random_element(rng, max_length=8)
        y = random_element(rng, max_length=8)
        assert reduce_to_hh0(x.scale(coeff) + y) == reduce_to_hh0(x).scale(coeff) + reduce_to_hh0(y)
    assert HH0Class.basis_s().scale(0).is_zero
    assert HH0Class.basis_t().scale(1) == HH0Class.basis_t()


def test_poly_gcd_and_qfrac():
    assert poly_gcd(Q**2 - 1, Q - 1) == Q - 1
    assert poly_gcd((Q - 1) * qpow(-3), (Q - 1) * Q) == Q - 1
    value = QFrac(Q**2 - 1, Q - 1)
    assert value.is_laurent and value.as_laurent() == Q + 1
    ratio = QFrac(Q, Q + 1)
    assert not ratio.is_laurent
    assert (ratio * QFrac(Q + 1)).as_laurent() == Q
    assert (ratio - ratio).num.is_zero


def test_oracle_agreement():
    oracle = TruncatedTraceOracle(6)
    for w in all_words(6):
        assert oracle.class_of_word(w) == class_of_word(w), w


def test_oracle_on_elements():
    oracle = TruncatedTraceOracle(5)
    rng = random.Random(97)
    for _ in range(10):
        x = random_element(rng, max_length=5)
        assert oracle.class_of(x) == reduce_to_hh0(x)


def test_render():
    value = HH0Class.basis_even(1).scale(Q - 1) + HH0Class.basis_t().scale(Q)
    assert value.render() == "(-1 + q)*[E(1)] + q*[Tt]"
    assert HH0Class.zero().render() == "0"
