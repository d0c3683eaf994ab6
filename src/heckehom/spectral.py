"""Degree-zero spectral operators on the unramified principal series.

The Laurent algebra H(Lambda) = C[lambda, lambda^-1] maps into the Hecke
algebra by the two induction homomorphisms

    pind:  lambda ->  q * T_{ts}^{-1},      opind:  lambda -> q^{-1} * T_{st},

and the restriction map sends [T_s], [T_t] to q-1 and [T_{(st)^n}] to
q^n (lambda^n + lambda^-n).  The compact-restriction operator is defined by
the degree-zero identity

    one_gc = 1 - opind . chi_m . pres,

and its explicit basis values and the commutator with pind are verified
against this definition.
"""

from __future__ import annotations

from .laurent import ONE, Q, to_laurent
from .sparse import Sparse, add_term
from .weyl import E, st_power, ts_power
from .hecke import HeckeElement, basis, r_polynomial, t_inverse
from .hh0 import HH0Class, reduce_to_hh0


class LambdaElement(Sparse):
    """Element of the rank-one Laurent group algebra with LaurentQ coefficients.

    >>> LambdaElement({-2: 1, 0: Q - 1, 1: -Q})
    L^-2 + (-1 + q) - q*L
    """

    __slots__ = ()

    _key = staticmethod(int)
    _coerce = staticmethod(to_laurent)

    @staticmethod
    def _token(n: int) -> str:
        """lambda^n as printed, and nothing for lambda^0."""
        if not n:
            return ""
        return "L" if n == 1 else f"L^{n}"


def _induced(x: LambdaElement, sign: int, power) -> HeckeElement:
    """The one induction loop: lambda^n -> q^(sign n) T_w^{-1} for sign n > 0,
    and q^(sign n) T_w otherwise, with w = power(|n|)."""
    total = HeckeElement()
    for n, coeff in x.terms.items():
        word = power(abs(n))
        image = t_inverse(word) if sign * n > 0 else basis(word)
        total = total + image.scale(coeff.shift(sign * n))
    return total


def pind_hecke(x: LambdaElement) -> HeckeElement:
    """pind before reduction: lambda^n -> q^n T_{(ts)^n}^{-1}, lambda^-n -> q^-n T_{(ts)^n}."""
    return _induced(x, 1, ts_power)


def opind_hecke(x: LambdaElement) -> HeckeElement:
    """opind before reduction: lambda^n -> q^-n T_{(st)^n}, lambda^-n -> q^n T_{(st)^n}^{-1}."""
    return _induced(x, -1, st_power)


def pind_map(x: LambdaElement) -> HH0Class:
    return reduce_to_hh0(pind_hecke(x))


def opind_map(x: LambdaElement) -> HH0Class:
    return reduce_to_hh0(opind_hecke(x))


def pres_map(c: HH0Class) -> LambdaElement:
    """Restriction: [T_s], [T_t] -> q-1; [T_{(st)^n}] -> q^n(lambda^n + lambda^-n).

    Note pres([E(0)]) = 2, the n = 0 value of the displayed formula.
    """
    out: dict = {}
    for key, coeff in c._terms.items():
        if key in ("s", "t"):
            add_term(out, 0, coeff.times_q_minus_1())
            continue
        qn = coeff.shift(key)
        add_term(out, key, qn)
        add_term(out, -key, qn)  # key 0 adds the coefficient twice
    return LambdaElement._new(out)


def one_mc(x: LambdaElement) -> LambdaElement:
    """Keep only the lambda^0 term."""
    return LambdaElement({0: x.coefficient(0)})


def chi_m(x: LambdaElement) -> LambdaElement:
    """Keep only strictly positive powers of lambda."""
    return LambdaElement({n: c for n, c in x.terms.items() if n >= 1})


def one_gc(c: HH0Class) -> HH0Class:
    """Compact restriction, defined by c - opind(chi_m(pres(c)))."""
    return c - opind_map(chi_m(pres_map(c)))


def commutator_direct(n: int) -> HH0Class:
    """one_gc(pind(lambda^n)) - pind(one_mc(lambda^n))."""
    x = LambdaElement({n: ONE})
    return one_gc(pind_map(x)) - pind_map(one_mc(x))


def commutator_closed_form(n: int) -> HH0Class:
    """Rank-one closed form of the commutator:

        (R_{1,(st)^n} / (q^n (q-1))) * ((q-1) [E(0)] - [T_s] - [T_t])

    for n >= 1, and zero for n < 1.  The exact division failing would
    indicate an implementation fault, so it is allowed to propagate.
    """
    if n < 1:
        return HH0Class()
    r_poly = r_polynomial(E, st_power(n))
    factor = r_poly.divide_exact((Q - 1).shift(n))
    template = HH0Class({"s": -1, "t": -1, 0: Q - 1})
    return template.scale(factor)


def commutator_alternative_form(n: int) -> HH0Class:
    """reduce((pind - opind)(chi_m(lambda^n))), the other side of the identity."""
    x = chi_m(LambdaElement({n: ONE}))
    return reduce_to_hh0(pind_hecke(x) - opind_hecke(x))
