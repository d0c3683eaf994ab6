"""The trace quotient: rewriting reduction, trace property, oracle agreement."""

import random
from fractions import Fraction

import pytest

from heckehom import hh0_oracle
from heckehom.laurent import LaurentQ, NotDivisible, ONE, Q, qpow
from heckehom.sparse import add_into
from heckehom.weyl import E, S, T, WeylWord, all_words, st_power, ts_power
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


def test_generator_matrices_satisfy_the_quadratic_relation():
    """pi(T_g)^2 = (q - 1) pi(T_g) + q for both generators."""
    for g, matrix in hh0_oracle._GENERATORS.items():
        square = hh0_oracle._times(matrix, matrix)
        for i in (0, 1):
            for j in (0, 1):
                expected = {0: Q} if i == j else {}
                add_into(expected, matrix[i][j], Q - 1)
                assert square[i][j] == expected, (g, i, j)


def test_trace_of_st_powers():
    """tr pi(T_(st)^n) = q^n (lambda^n + lambda^-n), and 2 at n = 0."""
    values = TruncatedTraceOracle(40)._values
    for n in range(21):
        trace, _ = values[st_power(n)]
        assert trace == ({0: 2} if n == 0 else {n: qpow(n), -n: qpow(n)}), n


def test_oracle_agreement():
    oracle = TruncatedTraceOracle(40)
    for w in all_words(40):
        assert oracle.class_of_word(w) == class_of_word(w), w


def _oracle_class_of(oracle, element):
    """The oracle's class of a Hecke element: its words solved one by one,
    then scaled and summed."""
    total = HH0Class()
    for word, coeff in element.terms.items():
        total = total + oracle.class_of_word(word).scale(coeff)
    return total


def _disagrees(oracle, word):
    try:
        return oracle.class_of_word(word) != class_of_word(word)
    except (RuntimeError, NotDivisible):
        return True


def test_a_wrong_t_entry_makes_a_short_word_disagree(monkeypatch):
    """pi(T_t) with the sign of its lower-left entry flipped."""
    (a, b), (c, d) = hh0_oracle._GENERATORS["t"]
    monkeypatch.setitem(hh0_oracle._GENERATORS, "t", ((a, b), ({1: -ONE}, d)))
    oracle = TruncatedTraceOracle(8)
    assert any(_disagrees(oracle, w) for w in all_words(8))


def test_oracle_rejects_a_class_that_is_not_laurent(monkeypatch):
    """With T_s sent to q^2 by the character (q, -1), the difference of the
    mixed characters on T_s is q^2 + 1, which q + 1 does not divide."""
    monkeypatch.setitem(hh0_oracle._CHARACTERS, "s", (Q, Q * Q, -ONE))
    oracle = TruncatedTraceOracle(3)
    assert oracle.class_of_word(E) == HH0Class({0: 1})
    with pytest.raises(NotDivisible):
        oracle.class_of_word(S)


def test_oracle_rejects_a_class_outside_the_tokens(monkeypatch):
    """A trace that is not symmetric in lambda is the trace of no class in
    the span of the tokens: pi(T_s) with lambda added to its lower-right entry."""
    (a, b), (c, d) = hh0_oracle._GENERATORS["s"]
    monkeypatch.setitem(hh0_oracle._GENERATORS, "s", ((a, b), (c, {**d, 1: ONE})))
    oracle = TruncatedTraceOracle(3)
    assert oracle.class_of_word(E) == HH0Class({0: 1})
    with pytest.raises(RuntimeError, match="not symmetric"):
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
