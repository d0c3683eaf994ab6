"""Hecke algebra multiplication, inverses, and R-polynomials."""

import random
from fractions import Fraction

from heckehom.laurent import LaurentQ, ONE, Q, ZERO, qpow
from heckehom.weyl import E, S, T, WeylWord, all_words, bruhat_leq, st_power, word_mul
from heckehom import hecke, suites
from heckehom.sparse import add_into, add_term
from heckehom.hecke import (
    HeckeElement,
    basis,
    evaluate_at_one,
    one,
    r_polynomial,
    r_polynomial_from_inverse,
    r_polynomial_recursive,
    t_inverse,
    t_mul,
)


def random_element(rng, max_length=6, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_length)
        word = WeylWord(length, rng.choice("st") if length else None)
        terms[word] = LaurentQ(
            {rng.randint(-2, 2): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        )
    return HeckeElement(terms)


def random_multiterm_element(rng, max_length=8, max_terms=4):
    """Like random_element, but every coefficient has 2-4 terms with
    nonzero Fraction values, so products shift more than monomials."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_length)
        word = WeylWord(length, rng.choice("st") if length else None)
        exps = rng.sample(range(-3, 4), rng.randint(2, 4))
        terms[word] = LaurentQ(
            {e: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)) for e in exps}
        )
    return HeckeElement(terms)


def test_quadratic_relation():
    for letter in "st":
        g = basis(WeylWord(1, letter))
        assert t_mul(g, g) == g.scale(Q - 1) + one().scale(Q)


def test_product_when_lengths_add():
    assert t_mul(basis(S), basis(T)) == basis(WeylWord.parse("st"))
    assert t_mul(basis(WeylWord.parse("st")), basis(WeylWord.parse("sts"))) == basis(
        WeylWord.parse("ststs")
    )


def test_identity_element():
    rng = random.Random(7)
    a = random_element(rng)
    assert t_mul(one(), a) == a
    assert t_mul(a, one()) == a


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (random_element(rng) for _ in range(3))
        assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))


def _mul_generator(terms, letter):
    """Right-multiply a term dict by T_g for a generator g."""
    g = WeylWord(1, letter)
    out = {}
    for word, coeff in terms.items():
        wg = word_mul(word, g)
        if wg.length > word.length:
            add_term(out, wg, coeff)
        else:
            add_term(out, word, coeff * (Q - 1))
            add_term(out, wg, coeff * Q)
    return out


def _peeled_product(a, b):
    """The oracle for t_mul: peel the right factor generator by generator."""
    total = {}
    for word, coeff in b.terms.items():
        cur = a.terms
        for letter in word.letters:
            cur = _mul_generator(cur, letter)
        add_into(total, cur, coeff)
    return HeckeElement(total)


def _stores_no_zero(element):
    return all(c and all(c.terms.values()) for c in element.terms.values())


def _assert_matches_peeling(a, b):
    product = t_mul(a, b)
    assert product == _peeled_product(a, b), (a, b)
    assert _stores_no_zero(product), (a, b)
    return product


def test_closed_form_product_matches_generator_peeling():
    words = list(all_words(12))
    assert len(words) ** 2 == 625
    for x in words:
        for y in words:
            _assert_matches_peeling(basis(x), basis(y))
    rng = random.Random(23)
    for _ in range(60):
        _assert_matches_peeling(random_element(rng, 9, 4), random_element(rng, 9, 4))
    # multi-term coefficients: c(q-1) is then shifted as a polynomial, not a monomial
    for _ in range(60):
        a, b = random_multiterm_element(rng, 9, 4), random_multiterm_element(rng, 9, 4)
        assert min(len(c.terms) for c in a.terms.values()) >= 2
        _assert_matches_peeling(a, b)
    # monomials that are not units, on either side: a product, not an offset
    for c in (LaurentQ({3: 2}), -qpow(-1), LaurentQ({1: Fraction(1, 2)})):
        for x in all_words(5):
            for y in all_words(5):
                _assert_matches_peeling(basis(x).scale(c), basis(y))
                _assert_matches_peeling(basis(x), basis(y).scale(c))
            b = random_multiterm_element(rng, 6, 3)
            _assert_matches_peeling(basis(x).scale(c), b)
            _assert_matches_peeling(b, basis(x).scale(c))
    # words that cancel inside the pass:
    # T_s (T_s - (q-1) T_e) = (q-1) T_s + q T_e - (q-1) T_s = q T_e
    sts = basis(WeylWord.parse("sts"))
    assert _assert_matches_peeling(basis(S), basis(S) - one().scale(Q - 1)) == one().scale(Q)
    assert _assert_matches_peeling(sts, basis(S) - one().scale(Q - 1)) == basis(
        WeylWord.parse("st")
    ).scale(Q)
    for w in all_words(8):
        a = random_element(rng, 7, 4)
        _assert_matches_peeling(a, basis(w) - a)
        assert _stores_no_zero(t_inverse(w))


def _generator_inverse(letter):
    """T_g^-1 = q^-1 T_g - (1 - q^-1) T_e, forced by the quadratic relation."""
    return basis(WeylWord(1, letter)).scale(qpow(-1)) - one().scale(1 - qpow(-1))


def test_generator_inverse():
    for letter in "st":
        g = basis(WeylWord(1, letter))
        assert t_mul(g, _generator_inverse(letter)) == one() == t_mul(_generator_inverse(letter), g)
    assert t_inverse(S) == _generator_inverse("s")
    assert t_inverse(E) == one()


def _element_on(rng, words):
    """A random element on some of words, with 1-3 rational Laurent terms each."""
    terms = {}
    for word in rng.sample(words, rng.randint(1, min(4, len(words)))):
        exps = rng.sample(range(-4, 5), rng.randint(1, 3))
        terms[word] = LaurentQ(
            {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for e in exps}
        )
    return HeckeElement(terms)


def test_times_generator_inverse_matches_the_product_with_the_oracle():
    # words that end in s, words that end in t, T_e alone, and all of them mixed
    words = list(all_words(12))
    supports = [
        [w for w in words if w.last == "s"],
        [w for w in words if w.last == "t"],
        [E],
        words,
    ]
    rng = random.Random(30)
    for support in supports:
        for _ in range(25):
            a = _element_on(rng, support)
            for letter in "st":
                kernel = hecke._times_generator_inverse(a, letter)
                assert kernel == t_mul(a, _generator_inverse(letter)), (a, letter)
                assert _stores_no_zero(kernel), (a, letter)
    # images that cancel: (1 - q^-1) T_st T_t^-1 = (1 - q^-1) T_s cancels the
    # (q^-1 - 1) T_s of T_s T_t^-1 = q^-1 T_st + (q^-1 - 1) T_s, and T_s is dropped
    a = basis(WeylWord.parse("st")).scale(1 - qpow(-1)) + basis(S)
    product = hecke._times_generator_inverse(a, "t")
    assert product == basis(WeylWord.parse("st")).scale(qpow(-1)) == t_mul(a, _generator_inverse("t"))
    assert list(product.terms) == [WeylWord.parse("st")]


def test_inverse_is_the_product_of_generator_inverses_up_to_length_30(monkeypatch):
    # T_w^-1 = T_gn^-1 ... T_g1^-1 for w = g1...gn, each product by the general t_mul
    monkeypatch.setattr(hecke, "_INVERSE_CACHE", {})
    for w in all_words(30):
        product = one()
        for letter in reversed(w.letters):
            product = t_mul(product, _generator_inverse(letter))
        inv = t_inverse(w)
        assert inv == product, w
        assert _stores_no_zero(inv), w


def test_inverse_of_ts_frozen_value():
    # derived by multiplying the generator inverses; checked by multiplying back
    inv = t_inverse(WeylWord.parse("ts"))
    expected = HeckeElement(
        {
            WeylWord.parse("st"): qpow(-2),
            S: -(qpow(-1) - qpow(-2)),
            T: -(qpow(-1) - qpow(-2)),
            E: (1 - qpow(-1)) ** 2,
        }
    )
    assert inv == expected
    assert t_mul(basis(WeylWord.parse("ts")), inv) == one()


def test_inverse_contract_up_to_length_20():
    for w in all_words(20):
        inv = t_inverse(w)
        assert t_mul(basis(w), inv) == one()
        assert t_mul(inv, basis(w)) == one()


def test_r_polynomial_examples():
    for x in all_words(6):
        assert r_polynomial(x, x) == ONE
    assert r_polynomial(E, WeylWord.parse("st")) == (Q - 1) ** 2
    assert r_polynomial(S, WeylWord.parse("st")) == Q - 1
    assert r_polynomial(WeylWord.parse("stst"), WeylWord.parse("sts")) == ZERO


def test_r_polynomial_against_recursion():
    # closed form, extraction from the inverse and descent recursion agree
    for w in all_words(20):
        for x in all_words(20):
            closed = r_polynomial(x, w)
            assert closed == r_polynomial_from_inverse(x, w), (x, w)
            assert closed == r_polynomial_recursive(x, w), (x, w)


def test_r_polynomial_degree_and_vanishing():
    for w in all_words(8):
        for x in all_words(8):
            value = r_polynomial(x, w)
            if not bruhat_leq(x, w):
                assert value.is_zero
            else:
                assert value.valuation() >= 0
                assert value.degree() == w.length - x.length


def test_inverse_expansion_identity():
    # q^n T_{(ts)^n}^{-1} - q^{-n} T_{(st)^n} equals the signed R-polynomial
    # sum over words shorter than 2n, scaled by q^{-n}
    for n in range(1, 7):
        w = st_power(n)
        lhs = t_inverse(w.inverse()).scale(qpow(n)) - basis(w).scale(qpow(-n))
        terms = {}
        for x in all_words(2 * n - 1):
            value = r_polynomial(x, w)
            if value:
                sign = 1 if x.length % 2 == 0 else -1
                terms[x] = value * qpow(-n) * sign
        assert lhs == HeckeElement(terms), n


def test_inverse_expansion_case_detects_a_wrong_inverse(monkeypatch):
    # add q*T[e] to every T_w^-1 with l(w) = 4: the closed-form side of
    # rpoly/inverse-expansion/2 does not see it, the inverse side does
    correct = hecke.t_inverse

    def wrong(word):
        inv = correct(word)
        return inv + one().scale(Q) if word.length == 4 else inv

    monkeypatch.setattr(hecke, "_INVERSE_CACHE", {})
    monkeypatch.setattr(hecke, "t_inverse", wrong)
    monkeypatch.setattr(suites, "t_inverse", wrong)
    report = suites.suite_rpoly(suites.SuiteConfig(lmax=6, nmax=4))
    case = next(c for c in report.cases if c.id == "rpoly/inverse-expansion/2")
    assert not case.passed


def test_specialization_at_q_equals_one():
    for x in all_words(5):
        for y in all_words(5):
            collapsed = evaluate_at_one(t_mul(basis(x), basis(y)))
            assert collapsed == {word_mul(x, y): Fraction(1)}


def test_render():
    sq = t_mul(basis(S), basis(S))
    assert sq.render() == "q*T[e] + (-1 + q)*T[s]"
    assert HeckeElement().render() == "0"


def test_render_signs_fractions_and_order():
    value = HeckeElement({
        WeylWord(3, "t"): -1,
        WeylWord(2, "s"): LaurentQ({-2: Fraction(3, 2)}),
        WeylWord(1, "t"): 1 - Q,
        WeylWord(1, "s"): 2,
        E: -Q,
    })
    assert value.render() == "-q*T[e] + 2*T[s] + (1 - q)*T[t] + 3/2*q^-2*T[st] - T[tst]"
    assert HeckeElement({E: -1}).render() == "-T[e]"
