"""Induction/restriction operators and the compact-restriction identities."""

from fractions import Fraction

from heckehom.laurent import LaurentQ, ONE, Q, qpow
from heckehom.weyl import E, st_power, ts_power
from heckehom.hecke import basis, r_polynomial, t_inverse, t_mul
from heckehom.hh0 import HH0Class, reduce_to_hh0
from heckehom.spectral import (
    LambdaElement,
    chi_m,
    commutator_alternative_form,
    commutator_closed_form,
    commutator_direct,
    one_gc,
    one_mc,
    opind_hecke,
    opind_map,
    pind_hecke,
    pind_map,
    pres_map,
)


def lam(n, coeff=1):
    return LambdaElement({n: coeff})


def test_pind_examples():
    assert pind_map(lam(0)) == HH0Class({0: 1})
    assert pind_map(lam(-1)) == HH0Class({1: 1}).scale(qpow(-1))
    expected = (
        HH0Class({1: 1}).scale(qpow(-1))
        - HH0Class({"s": 1}).scale(1 - qpow(-1))
        - HH0Class({"t": 1}).scale(1 - qpow(-1))
        + HH0Class({0: 1}).scale(((Q - 1) ** 2).divide_exact(Q))
    )
    assert pind_map(lam(1)) == expected
    assert pres_map(pind_map(lam(1))) == LambdaElement({1: ONE, -1: ONE})


def test_opind_examples():
    assert opind_map(lam(0)) == HH0Class({0: 1})
    assert opind_map(lam(2)) == HH0Class({2: 1}).scale(qpow(-2))
    assert opind_map(lam(-1)) == reduce_to_hh0(t_inverse(st_power(1)).scale(Q))
    assert pres_map(opind_map(lam(-1))) == LambdaElement({1: ONE, -1: ONE})


def test_induction_homomorphism_images():
    assert pind_hecke(lam(1)) == t_inverse(ts_power(1)).scale(Q)
    assert opind_hecke(lam(1)) == basis(st_power(1)).scale(qpow(-1))
    for image in (pind_hecke, opind_hecke):
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert t_mul(image(lam(m)), image(lam(n))) == image(lam(m + n))


def test_pres_examples():
    assert pres_map(HH0Class({"s": 1})) == LambdaElement({0: Q - 1})
    assert pres_map(HH0Class({"t": 1})) == LambdaElement({0: Q - 1})
    assert pres_map(HH0Class({2: 1})) == LambdaElement({2: qpow(2), -2: qpow(2)})
    assert pres_map(HH0Class({0: 1})) == LambdaElement({0: LaurentQ({0: 2})})
    assert pres_map(HH0Class()).is_zero


def test_one_mc_and_chi_m():
    x = lam(3) + lam(0, 5)
    assert one_mc(x) == lam(0, 5)
    assert one_mc(lam(-2)).is_zero
    assert one_mc(LambdaElement()).is_zero
    y = lam(2) + lam(0) + lam(-1)
    assert chi_m(y) == lam(2)
    assert chi_m(lam(-5)).is_zero
    assert chi_m(LambdaElement()).is_zero


def test_one_gc_explicit_table():
    assert one_gc(HH0Class({"s": 1})) == HH0Class({"s": 1})
    assert one_gc(HH0Class({"t": 1})) == HH0Class({"t": 1})
    assert one_gc(HH0Class({0: 1})) == HH0Class({0: 1})
    for n in range(1, 21):
        assert one_gc(HH0Class({n: 1})).is_zero


def test_one_gc_idempotent():
    for c in [
        HH0Class({"s": 1}),
        HH0Class({"t": 1}),
        HH0Class({0: 1}),
        HH0Class({3: 1}),
        HH0Class({"s": 1}).scale(Q) - HH0Class({2: 1}),
    ]:
        image = one_gc(c)
        assert one_gc(image) == image


def test_commutator_examples():
    assert commutator_direct(0).is_zero
    assert commutator_direct(-2).is_zero
    factor = ((Q - 1) ** 2).divide_exact(Q)
    expected = (
        HH0Class({0: 1}).scale(factor)
        - HH0Class({"s": 1}).scale((Q - 1).divide_exact(Q))
        - HH0Class({"t": 1}).scale((Q - 1).divide_exact(Q))
    )
    assert commutator_direct(1) == expected
    assert commutator_closed_form(1) == expected
    assert commutator_closed_form(0).is_zero


def test_commutator_identity_range():
    for n in range(-5, 13):
        direct = commutator_direct(n)
        assert direct == commutator_closed_form(n)
        assert direct == commutator_alternative_form(n)


def test_r1_closed_form():
    assert r_polynomial(E, st_power(1)) == (Q - 1) * (Q - 1)
    assert r_polynomial(E, st_power(2)) == (Q - 1) * (Q**3 - Q**2 + Q - 1)


def test_geometric_lemma_identity():
    for n in range(-12, 13):
        expected = (
            LambdaElement({0: LaurentQ({0: 2})})
            if n == 0
            else LambdaElement({n: ONE, -n: ONE})
        )
        assert pres_map(pind_map(lam(n))) == expected
        assert pres_map(opind_map(lam(n))) == expected


def test_lambda_render():
    value = LambdaElement({1: Q, -1: Q})
    assert value.render() == "q*L^-1 + q*L"
    assert LambdaElement({0: LaurentQ({0: 2})}).render() == "2"


def test_lambda_render_constant_term():
    assert LambdaElement({0: -Q, 1: 1}).render() == "-q + L"
    assert LambdaElement({0: Q - 1, -1: 2}).render() == "2*L^-1 + (-1 + q)"
    assert LambdaElement({0: LaurentQ({-1: Fraction(-1, 2)})}).render() == "-1/2*q^-1"
    mixed = LambdaElement({-2: 1, 0: LaurentQ({-1: Fraction(-1, 2)}), 3: 1 - Q})
    assert mixed.render() == "L^-2 - 1/2*q^-1 + (1 - q)*L^3"
    assert LambdaElement({1: 1}).render() == "L"
    assert LambdaElement({1: -1}).render() == "-L"
    assert LambdaElement({-2: 1}).render() == "L^-2"
    assert LambdaElement().render() == "0"
