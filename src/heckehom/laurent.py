"""Sparse Laurent polynomials in the parameter q.

The Hecke algebra and everything built on it live over Z[q, q^-1], so the
coefficients follow the one rule of ``sparse.exact``: ints stay ints, an
integral Fraction is stored as an int, no float is ever accepted, and every
division of coefficients is an ``exact_quotient``.  Integer inputs keep
integer coefficients; a Fraction appears only from a rational input or a
quotient that is not integral.  Every element is a sparse mapping with zero
coefficients dropped (see ``sparse``), so equality of mappings is exact
equality of values.  Multiplying by q^k is an exponent shift, ``shift``,
and multiplying by q - 1 is a shift and a difference, ``times_q_minus_1``:
neither forms a product.
"""

from __future__ import annotations

from fractions import Fraction

from .sparse import Sparse, add_into, add_shifted, exact, exact_quotient


class NotDivisible(ArithmeticError):
    """Raised when no exact Laurent-polynomial quotient exists."""


class LaurentQ(Sparse):
    """Sparse Laurent polynomial in q whose coefficients follow ``sparse.exact``:
    ints stay ints, integral Fractions become ints, and every quotient is exact.

    >>> (Q - 1) * (Q + 1) == Q**2 - 1
    True
    >>> qpow(-1) * Q
    1
    """

    __slots__ = ()

    _key = staticmethod(int)
    _coerce = staticmethod(exact)

    @staticmethod
    def _token(exp: int) -> str:
        """q^exp as printed, and nothing for q^0."""
        if not exp:
            return ""
        return "q" if exp == 1 else f"q^{exp}"

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as that scalar
        terms = self._terms
        return hash(terms.get(0, 0) if terms.keys() <= {0} else tuple(sorted(terms.items())))

    def __add__(self, other) -> LaurentQ:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_into(dict(self._terms), other._terms))

    __radd__ = __add__

    def __rsub__(self, other) -> LaurentQ:
        return -self + other

    def __mul__(self, other) -> LaurentQ:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        get = out.get
        # inline, not add_shifted: 7,180 calls over the hecke-deep commands
        # (cProfile), and a dict of products per row for add_shifted makes a
        # product of 6 by 8 terms 1.7x slower.  A new exponent stores its
        # product as it is, which is never zero; only a sum can cancel
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                old = get(e)
                if old is None:
                    out[e] = c1 * c2
                else:
                    v = old + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        return self._new(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentQ:
        """q^k times self, by moving every exponent up by k; self when k is 0.

        >>> (Q - 1).shift(2) == (Q - 1) * Q**2
        True
        >>> LaurentQ({0: 3, 2: Fraction(1, 2)}).shift(-1)
        3*q^-1 + 1/2*q
        """
        if not k:
            return self
        return self._new({e + k: c for e, c in self._terms.items()})

    def times_q_minus_1(self) -> LaurentQ:
        """(q - 1) times self, as the shift q*self minus self: no product.

        >>> (Q + 1).times_q_minus_1()
        -1 + q^2
        >>> a = LaurentQ({-1: 2, 0: Fraction(1, 2)})
        >>> a.times_q_minus_1() == a * (Q - 1)
        True
        """
        out = {e: -c for e, c in self._terms.items()}
        add_shifted(out, self._terms, 1)
        return self._new(out)

    def __pow__(self, n: int) -> LaurentQ:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ONE.divide_exact(self) ** (-n)  # NotDivisible unless self is a unit
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divide_exact(self, other: LaurentQ) -> LaurentQ:
        """Return c with self = other * c, or raise NotDivisible.

        Iterated leading-term elimination after stripping valuations; a
        nonzero remainder is an error, never an approximation.

        >>> ((Q - 1) ** 2).divide_exact(Q * (Q - 1))
        -q^-1 + 1
        """
        other = _as_laurent(other)
        if other is NotImplemented:
            raise TypeError("divide_exact needs a LaurentQ or exact rational")
        if other.is_zero:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero:
            return ZERO
        shift = self.valuation() - other.valuation()
        rem = {e - self.valuation(): c for e, c in self._terms.items()}
        den = {e - other.valuation(): c for e, c in other._terms.items()}
        dd = max(den)
        dlead = den[dd]
        quot: dict = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise NotDivisible(f"({self}) is not divisible by ({other})")
            c = exact_quotient(rem[rd], dlead)
            e = rd - dd
            quot[e] = c
            # rem -= c q^e * den, which cancels the leading term rem[rd]
            add_shifted(rem, {de: -(c * dc) for de, dc in den.items()}, e)
        return LaurentQ({e + shift: c for e, c in quot.items()})

    def evaluate(self, value) -> Fraction:
        """Substitute an exact rational value for q."""
        x = Fraction(exact(value))  # with an int x, x**-k would be a float
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            total += coeff * x**exp
        return total


def _as_laurent(value):
    if isinstance(value, LaurentQ):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentQ({0: value})
    return NotImplemented


def to_laurent(value) -> LaurentQ:
    """value itself if it is a LaurentQ, else the constant it names: the
    coefficient coercion of every element type over LaurentQ."""
    return value if isinstance(value, LaurentQ) else LaurentQ({0: value})


def qpow(exp: int) -> LaurentQ:
    """The monomial q^exp."""
    return LaurentQ({exp: 1})


ZERO = LaurentQ()
ONE = LaurentQ({0: 1})
Q = qpow(1)
