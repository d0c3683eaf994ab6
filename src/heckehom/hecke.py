"""The Iwahori-Hecke algebra of the infinite dihedral group.

Basis elements T_w are indexed by Weyl words; multiplication is fixed by

    T_w T_w' = T_{ww'}        when l(ww') = l(w) + l(w'),
    T_g^2    = (q-1) T_g + q  for the generators g in {s, t},

over exact Laurent polynomials in q.  The product of two basis elements
follows from these in closed form, one quadratic relation per overlapping
letter.  Inverses of basis elements are computed here as well.
R-polynomials have a closed form, because R_{x,w} depends only on
l(w) - l(x); the extraction from the inverse basis elements and the
descent recursion are kept as its two independent checks.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentQ, ONE, ZERO, Q, qpow, to_laurent
from .sparse import Sparse, add_into
from .weyl import E, WeylWord, bruhat_leq, word_mul, _OTHER

_Q_MINUS_1 = Q - 1


class HeckeElement(Sparse):
    """Finite formal sum of basis elements T_w with LaurentQ coefficients.

    >>> basis(WeylWord(1, "s")) * basis(WeylWord(1, "s"))
    q*T[e] + (-1 + q)*T[s]
    """

    __slots__ = ()

    _coerce = staticmethod(to_laurent)

    @staticmethod
    def _token(word: WeylWord) -> str:
        return f"T[{word}]"

    _order = staticmethod(lambda word: (word.length, word.first or ""))

    def support(self) -> list[WeylWord]:
        return sorted(self._terms, key=self._order)

    def __mul__(self, other) -> HeckeElement:
        if isinstance(other, HeckeElement):
            return t_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> HeckeElement:
        return self.scale(other)


def basis(word: WeylWord) -> HeckeElement:
    """The basis element T_w."""
    return HeckeElement({word: ONE})


def one() -> HeckeElement:
    return basis(E)


def zero() -> HeckeElement:
    return HeckeElement()


def _basis_product(x: WeylWord, y: WeylWord, c: LaurentQ) -> dict[WeylWord, LaurentQ]:
    """c T_x T_y in closed form.

    T_{ug} T_{gv} = (q-1) T_{ugv} + q T_u T_v (ugv reduced) on each of the
    m = (l(x) + l(y) - l(xy)) / 2 letters that cancel in xy; unrolled, the
    k-th term is c(q-1)q^k T_w with l(w) = l(x) + l(y) - 1 - 2k and w
    starting like x, and the last is c q^m T_{xy}.  So a pair costs one
    Laurent product, and every power of q is an exponent shift.
    """
    xy = word_mul(x, y)
    m = (x.length + y.length - xy.length) // 2
    if not m:
        return {xy: c}
    c1 = c * _Q_MINUS_1
    top = x.length + y.length - 1
    out = {WeylWord(top - 2 * k, x.first): c1.shift(k) for k in range(m)}
    out[xy] = c.shift(m)
    return out


def t_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear product of the basis products in closed form."""
    total: dict[WeylWord, LaurentQ] = {}
    for x, cx in a._terms.items():
        for y, cy in b._terms.items():
            add_into(total, _basis_product(x, y, cx * cy))
    return HeckeElement._new(total)


# T_g^{-1} = q^{-1} T_g - (1 - q^{-1}) T_e, forced by the quadratic relation
_GEN_INVERSE = {
    letter: HeckeElement(
        {WeylWord(1, letter): qpow(-1), E: qpow(-1) - 1}
    )
    for letter in ("s", "t")
}

_INVERSE_CACHE: dict[WeylWord, HeckeElement] = {}


def t_inverse(word: WeylWord) -> HeckeElement:
    """The inverse of T_w, as the reversed product of generator inverses.

    Cached per word; the cache is a pure memo table.

    >>> t_mul(basis(WeylWord(1, "s")), t_inverse(WeylWord(1, "s")))
    T[e]
    """
    cached = _INVERSE_CACHE.get(word)
    if cached is not None:
        return cached
    if word.length == 0:
        result = one()
    else:
        # T_w = T_g T_{w'} with g the first letter, so T_w^{-1} = T_{w'}^{-1} T_g^{-1}
        rest = WeylWord(word.length - 1, _OTHER[word.first]) if word.length > 1 else E
        result = t_mul(t_inverse(rest), _GEN_INVERSE[word.first])
    _INVERSE_CACHE[word] = result
    return result


def r_polynomial(x: WeylWord, w: WeylWord) -> LaurentQ:
    """R_{x,w} in closed form, in O(d) for d = l(w) - l(x):

        R_{x,w} = 0 unless x <= w in the Bruhat order;  R_0 = 1;
        R_d = (q-1)(q^(d-1) - q^(d-2) + ... + (-1)^(d-1))   for d >= 1

    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 5).

    >>> r_polynomial(E, WeylWord(2, "s"))
    1 - 2*q + q^2
    >>> r_polynomial(WeylWord(1, "t"), WeylWord(4, "s"))
    -1 + 2*q - 2*q^2 + q^3
    """
    if not bruhat_leq(x, w):
        return ZERO
    d = w.length - x.length
    if d == 0:
        return ONE
    return _Q_MINUS_1 * LaurentQ({j: (-1) ** (d - 1 - j) for j in range(d)})


def r_polynomial_from_inverse(x: WeylWord, w: WeylWord) -> LaurentQ:
    """R_{x,w}, extracted from the expansion of the inverse basis element:

        R_{x,w} = (-1)^(l(x)+l(w)) * q^l(w) * [coefficient of T_x in T_{w^-1}^{-1}]

    An oracle for the closed form.  It reads the coefficient for every pair,
    so its vanishing off the Bruhat order is a property of the inverse.
    """
    coeff = t_inverse(w.inverse()).coefficient(x)
    return (coeff if (x.length + w.length) % 2 == 0 else -coeff).shift(w.length)


_R_RECURSIVE_CACHE: dict[tuple[WeylWord, WeylWord], LaurentQ] = {}


def r_polynomial_recursive(x: WeylWord, w: WeylWord) -> LaurentQ:
    """R_{x,w} by the descent recursion, independent of any inversion (an oracle):

        R_{x,x} = 1;  R_{x,w} = 0 unless x <= w;  and for sw < w:
        R_{x,w} = R_{sx,sw}                         if sx < x,
        R_{x,w} = (q-1) R_{x,sw} + q R_{sx,sw}      if sx > x.
    """
    if w.length == 0:
        return ONE if x.length == 0 else ZERO
    key = (x, w)
    cached = _R_RECURSIVE_CACHE.get(key)
    if cached is not None:
        return cached
    s = WeylWord(1, w.first)  # the unique left descent of w
    sw = word_mul(s, w)
    sx = word_mul(s, x)
    if sx.length < x.length:
        result = r_polynomial_recursive(sx, sw)
    else:
        result = _Q_MINUS_1 * r_polynomial_recursive(x, sw) + Q * r_polynomial_recursive(sx, sw)
    _R_RECURSIVE_CACHE[key] = result
    return result


def evaluate_at_one(a: HeckeElement) -> dict[WeylWord, Fraction]:
    """Specialize q = 1, collapsing the algebra onto the group algebra of W."""
    out = {}
    for word, coeff in a._terms.items():
        v = coeff.evaluate(1)
        if v:
            out[word] = v
    return out
