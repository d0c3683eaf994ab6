"""The trace quotient: rewriting reduction, trace property, oracle agreement."""

import random
from fractions import Fraction

import pytest

from heckehom.laurent import LaurentQ, NotDivisible, Q, qpow
from heckehom.weyl import S, T, WeylWord, all_words, st_power, ts_power
from heckehom.hecke import basis, t_mul
from heckehom.hh0 import HH0Class, class_of_word, reduce_to_hh0
from heckehom.hh0_oracle import TruncatedTraceOracle

from test_hecke import random_element, random_multiterm_element


def test_basis_fixed_points():
    assert reduce_to_hh0(basis(S)) == HH0Class({"s": 1})
    assert reduce_to_hh0(basis(T)) == HH0Class({"t": 1})
    for n in range(0, 12):
        assert reduce_to_hh0(basis(st_power(n))) == HH0Class({n: 1})


def test_rotation_examples():
    assert class_of_word(ts_power(1)) == HH0Class({1: 1})
    assert class_of_word(ts_power(4)) == HH0Class({4: 1})
    # rotate T_st T_s to T_s T_st = T_s^2 T_t, then apply the quadratic relation
    expected = HH0Class({1: 1}).scale(Q - 1) + HH0Class({"t": 1}).scale(Q)
    assert class_of_word(WeylWord.parse("sts")) == expected
    # the two odd families are distinct classes
    other = HH0Class({1: 1}).scale(Q - 1) + HH0Class({"s": 1}).scale(Q)
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
    assert HH0Class({"s": 1}).scale(0).is_zero
    assert HH0Class({"t": 1}).scale(1) == HH0Class({"t": 1})


def _per_word_class(a):
    """The oracle for reduce_to_hh0: every word rewritten step by step on its
    own by class_of_word, then scaled and summed."""
    total = HH0Class()
    for word, coeff in a.terms.items():
        total = total + class_of_word(word).scale(coeff)
    return total


def _horner_elements():
    """Every word of length <= 30, then 500 seeded random elements with 2-4
    term Fraction coefficients, with their products and differences, built
    one at a time."""
    yield from map(basis, all_words(30))
    rng = random.Random(1009)
    for _ in range(250):
        x, y = random_multiterm_element(rng, 12, 4), random_multiterm_element(rng, 12, 4)
        xy, yx = t_mul(x, y), t_mul(y, x)
        yield from (x, y, xy, x - y, xy - yx)


def _horner_mismatches():
    """A lazy stream of the elements on which the one-pass reduction and the
    per-word route differ."""
    return (a for a in _horner_elements() if reduce_to_hh0(a) != _per_word_class(a))


def test_one_pass_reduction_matches_per_word_route():
    assert list(_horner_mismatches()) == []


def test_per_word_route_catches_a_dropped_shift(monkeypatch):
    # q^m T_y and the Horner step q S(j+1) become T_y and S(j+1); the first
    # mismatch decides it, so no element after it is built
    monkeypatch.setattr(LaurentQ, "shift", lambda self, k: self)
    assert next(_horner_mismatches(), None) is not None


def test_oracle_agreement():
    oracle = TruncatedTraceOracle(6)
    for w in all_words(6):
        assert oracle.class_of_word(w) == class_of_word(w), w


def _oracle_class_of(oracle, element):
    """The oracle's class of a Hecke element: its words solved one by one,
    then scaled and summed."""
    total = HH0Class()
    for word, coeff in element.terms.items():
        total = total + oracle.class_of_word(word).scale(coeff)
    return total


def _patch_tokens(monkeypatch, edit):
    """Give the oracle edit(its canonical tokens) as its canonical tokens."""
    original = TruncatedTraceOracle._canonical_tokens
    monkeypatch.setattr(
        TruncatedTraceOracle, "_canonical_tokens", lambda self: edit(list(original(self)))
    )


def test_oracle_rejects_a_dependent_token(monkeypatch):
    _patch_tokens(monkeypatch, lambda tokens: tokens + [("x", basis(WeylWord(3, "s")))])
    with pytest.raises(RuntimeError, match="dependent"):
        TruncatedTraceOracle(3)


def test_oracle_rejects_a_class_outside_the_tokens(monkeypatch):
    _patch_tokens(monkeypatch, lambda tokens: [tok for tok in tokens if tok[0] != "t"])
    oracle = TruncatedTraceOracle(3)
    assert oracle.class_of_word(S) == HH0Class({"s": 1})
    with pytest.raises(RuntimeError, match="canonical span"):
        oracle.class_of_word(T)


def test_oracle_rejects_a_class_that_is_not_laurent(monkeypatch):
    # with (1 + q)*T_s as the s token, the class of T_s is 1/(1 + q) times it
    _patch_tokens(
        monkeypatch,
        lambda tokens: [(tok, basis(S).scale(Q + 1) if tok == "s" else el) for tok, el in tokens],
    )
    oracle = TruncatedTraceOracle(3)
    assert oracle.class_of_word(T) == HH0Class({"t": 1})
    with pytest.raises(NotDivisible):
        oracle.class_of_word(S)


def test_oracle_on_elements():
    oracle = TruncatedTraceOracle(5)
    rng = random.Random(97)
    for _ in range(10):
        x = random_element(rng, max_length=5)
        assert _oracle_class_of(oracle, x) == reduce_to_hh0(x)


def test_render():
    value = HH0Class({1: 1}).scale(Q - 1) + HH0Class({"t": 1}).scale(Q)
    assert value.render() == "(-1 + q)*[E(1)] + q*[Tt]"
    assert HH0Class().render() == "0"


def test_render_signs_fractions_and_order():
    assert HH0Class({0: -1, 2: Q}).render() == "-[E(0)] + q*[E(2)]"
    half = HH0Class({"s": Fraction(1, 2), "t": LaurentQ({-2: Fraction(-3, 2)})})
    assert half.render() == "1/2*[Ts] - 3/2*q^-2*[Tt]"
    assert HH0Class({"s": Q - 1, 1: -Q}).render() == "-q*[E(1)] + (-1 + q)*[Ts]"
    assert HH0Class({"s": 1 - Q}).render() == "(1 - q)*[Ts]"
    ordered = HH0Class({"t": 1, "s": 1, 3: 1, 0: 1})
    assert ordered.render() == "[E(0)] + [E(3)] + [Ts] + [Tt]"
