"""The Iwahori-Hecke algebra of the infinite dihedral group.

Basis elements T_w are indexed by Weyl words; multiplication is fixed by

    T_w T_w' = T_{ww'}        when l(ww') = l(w) + l(w'),
    T_g^2    = (q-1) T_g + q  for the generators g in {s, t},

over exact Laurent polynomials in q.  The product of two basis elements
follows from these in closed form, one quadratic relation per overlapping
letter.  ``t_mul`` adds these closed forms into one exponent dict per word
with ``sparse.add_shifted``: powers of q are offsets, each factor q - 1 a
shift and a difference, and only two general coefficients form a product.
T_w^-1 is built one letter at a time, T_x T_g^-1 in closed form, the same
way: T_{xg} when xg < x, else q^-1 T_{xg} + (q^-1 - 1) T_x, no product.
R-polynomials have a closed form, because R_{x,w} depends only on
l(w) - l(x); the extraction from the inverse basis elements and the
descent recursion are kept as its two independent checks.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentQ, ONE, ZERO, to_laurent
from .sparse import Sparse, add_shifted
from .weyl import E, WeylWord, bruhat_leq, word_mul, _OTHER, _word


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


def _unit_exponent(c: LaurentQ) -> int | None:
    """k when c is the unit monomial q^k, else None."""
    terms = c._terms
    if len(terms) == 1:
        ((k, v),) = terms.items()
        if v == 1:
            return k
    return None


def t_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear product of the basis products in closed form, in one pass.

    T_{ug} T_{gv} = (q-1) T_{ugv} + q T_u T_v (ugv reduced) on each of the
    m = (l(x) + l(y) - l(xy)) / 2 letters that cancel in xy; unrolled, the
    pair (x, y) with coefficient c gives c(q-1)q^j T_{w_j} for j < m, with
    l(w_j) = l(x) + l(y) - 1 - 2j and w_j starting like x, and c q^m T_{xy}.
    Each pair forms c once: a factor that is a unit monomial q^k (every
    basis element) is an offset k into the other factor's terms, and only
    two general factors are multiplied.  The terms of c then go straight
    into one exponent dict per word: c q^(j+1) and -c q^j for each
    (q-1)q^j, and c q^m for T_{xy}.  No zero is stored, and a word whose
    terms all cancel is dropped.
    """
    total: dict[WeylWord, dict] = {}
    right = [(y, y.length, cy, _unit_exponent(cy)) for y, cy in b._terms.items()]
    for x, cx in a._terms.items():
        xl, xf = x
        kx = _unit_exponent(cx)
        for y, yl, cy, ky in right:
            if kx is not None:
                terms, k = cy._terms, kx
            elif ky is not None:
                terms, k = cx._terms, ky
            else:
                terms, k = (cx * cy)._terms, 0
            xy = word_mul(x, y)
            m = (xl + yl - xy.length) >> 1
            if m:
                negated = {e: -c for e, c in terms.items()}
                for j in range(m):
                    d = total.setdefault(_word((xl + yl - 1 - 2 * j, xf)), {})
                    add_shifted(d, terms, k + j + 1)
                    add_shifted(d, negated, k + j)
            add_shifted(total.setdefault(xy, {}), terms, k + m)
    # dict(d) re-sizes a table that grew through cancellations, which the
    # inverse cache would otherwise keep at its largest
    return HeckeElement._new({w: LaurentQ._new(dict(d)) for w, d in total.items() if d})


def _times_generator_inverse(a: HeckeElement, g: str) -> HeckeElement:
    """a T_g^-1 for a generator g, by T_g^-1 = q^-1 T_g - (1 - q^-1) T_e: each
    c T_x goes to c T_{xg} when xg < x, else to q^-1 c T_{xg} + (q^-1 c - c) T_x,
    exponent offsets and one difference: no product, and no image that cancels.

    >>> _times_generator_inverse(basis(WeylWord(1, "s")), "t")
    (q^-1 - 1)*T[s] + q^-1*T[st]
    """
    gw = _word((1, g))
    total: dict[WeylWord, dict] = {}
    for x, c in a._terms.items():
        xg = word_mul(x, gw)
        longer = xg.length > x.length
        add_shifted(total.setdefault(xg, {}), c._terms, -1 if longer else 0)
        if longer:
            add_shifted(total.setdefault(x, {}), c._terms, -1)
            add_shifted(total[x], {e: -v for e, v in c._terms.items()}, 0)
    return HeckeElement._new({w: LaurentQ._new(dict(d)) for w, d in total.items() if d})


_INVERSE_CACHE: dict[WeylWord, HeckeElement] = {}


def t_inverse(word: WeylWord) -> HeckeElement:
    """The inverse of T_w, one generator inverse per letter.

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
        result = _times_generator_inverse(t_inverse(rest), word.first)
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
    return LaurentQ({j: (-1) ** (d - 1 - j) for j in range(d)}).times_q_minus_1()


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
        result = (
            r_polynomial_recursive(x, sw).times_q_minus_1()
            + r_polynomial_recursive(sx, sw).shift(1)
        )
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
