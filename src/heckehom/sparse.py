"""Finite formal sums with exact coefficients: the one sparse-vector idea.

A sparse vector is a dict {key: coefficient} that stores no zero, so two
vectors are equal exactly when their dicts are.  ``add_term``, ``add_into``
and ``add_shifted`` (at keys moved by k: times q^k on the exponent dict of a
Laurent polynomial) are the package's accumulation loops: they add into such
a dict in place and delete every entry that cancels to an exact zero;
``linear`` extends a map on keys linearly.
Coefficients may be ints, Fractions, Laurent polynomials or any other
exact type with +, * and truth testing; no float is ever created here.

The package's one rule for scalar coefficients lives here too: ``exact``
keeps ints (a bool becomes its int), demotes integral Fractions to ints and
refuses floats, and every division of scalars, also a coefficient read out
over a denominator, is an ``exact_quotient``, demoted in the same way.

``Sparse`` is the base of every element type (Laurent polynomials in q,
Hecke elements, HH0 classes and elements of H(Lambda)); Hochschild chains
and forms, of the engine and of the torus, stay plain dicts.  A subclass
declares how a key is validated, a coefficient coerced and a key printed,
and may store the coerced dict its own way (``_store``); the one constructor
``Sparse(terms)``, the vector-space operations, the coefficient lookup and
the renderer are shared, and read each stored value over ``_den`` (1 but in
``LaurentQ``).  Elements are immutable; ``_new`` wraps a fresh dict without a copy.
"""

from __future__ import annotations

from fractions import Fraction


def exact(value):
    """An exact scalar: an int, or a non-integral Fraction; a string is parsed.

    >>> exact(6), exact(Fraction(4, 2)), exact("6/3"), exact(True), type(exact(True))
    (6, 2, 2, 1, <class 'int'>)
    >>> exact("3/4")
    Fraction(3, 4)
    >>> exact(0.5)
    Traceback (most recent call last):
    ...
    TypeError: not an exact rational: 0.5
    """
    if isinstance(value, int):
        return +value  # a bool becomes the int 0 or 1
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def exact_quotient(v, d):
    """v / d for ints or Fractions, exactly, under the rule of ``exact``.

    >>> exact_quotient(6, -3), exact_quotient(1, 2), exact_quotient(Fraction(1, 2), Fraction(1, 4))
    (-2, Fraction(1, 2), 2)
    """
    return exact(Fraction(v, d))


def add_term(target: dict, key, value) -> None:
    """target[key] += value, deleting the entry when it cancels."""
    old = target.get(key)
    if old is None:
        if value:
            target[key] = value
        return
    new = old + value
    if new:
        target[key] = new
    else:
        del target[key]


def add_into(target: dict, source: dict, coeff=None) -> dict:
    """target += coeff * source in place (plain source when coeff is None).

    Entries that cancel are deleted and zero products are never stored.
    Returns target.
    """
    get = target.get
    if coeff is None:
        for key, value in source.items():
            old = get(key)
            new = value if old is None else old + value
            if new:
                target[key] = new
            elif old is not None:
                del target[key]
        return target
    if not coeff:
        return target
    for key, value in source.items():
        old = get(key)
        new = coeff * value if old is None else old + coeff * value
        if new:
            target[key] = new
        elif old is not None:
            del target[key]
    return target


def add_shifted(target: dict, source: dict, k: int) -> None:
    """target[key + k] += value for each entry of source, deleting what
    cancels: target += q^k * source on exponent dicts.  source stores no zero.

    >>> target = {0: 1, 1: 2}
    >>> add_shifted(target, {-1: -1, 0: 3}, 1)
    >>> target
    {1: 5}
    """
    get = target.get
    for e, c in source.items():
        e += k
        old = get(e)
        if old is None:
            target[e] = c
        else:
            v = old + c
            if v:
                target[e] = v
            else:
                del target[e]


def linear(op, vec: dict) -> dict:
    """The linear extension of ``op``, a map from keys to sparse vectors, at vec."""
    out: dict = {}
    for key, coeff in vec.items():
        add_into(out, op(key), coeff)
    return out


class Sparse:
    """Immutable finite formal sum over a key set, with no stored zero.

    Subclasses may override ``_key`` (validate a key), ``_coerce`` (make a
    value an exact coefficient) and ``_order`` (a sort key for printing,
    None for the keys' natural order), and must declare ``_token`` (a key
    as printed, "" for none); ``render``, which str() and repr() use, is
    built on these.  Operands of +, - and == must have the same type.
    """

    __slots__ = ("_terms", "_den")

    _order = None

    def __init__(self, terms=None):
        data = {}
        if terms:
            key_of, coerce = self._key, self._coerce
            for key, coeff in terms.items():
                key = key_of(key)
                c = coerce(coeff)
                if c:
                    data[key] = c
        self._store(data)

    def __init_subclass__(cls):
        cls._zero = cls._coerce(0)  # the coefficient of an absent key, made once

    def _store(self, data: dict) -> None:
        self._terms, self._den = data, 1

    def _key(self, key):
        return key

    @staticmethod
    def _coerce(coeff):
        return coeff

    @classmethod
    def _new(cls, terms: dict, den: int = 1):
        """An element on a zero-free dict of valid keys over den, taken without a copy."""
        result = object.__new__(cls)
        result._terms, result._den = terms, den
        return result

    @property
    def terms(self) -> dict:
        den = self._den
        return dict(self._terms) if den == 1 else {key: exact_quotient(c, den) for key, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key):
        """The coefficient of key: the coerced zero when key is absent."""
        c = self._terms.get(key)
        return self._zero if c is None else c if self._den == 1 else exact_quotient(c, self._den)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._new(add_into(dict(self._terms), other._terms))

    def __neg__(self):
        return self._new({key: -c for key, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self) -> str:
        return self.render()

    def render(self) -> str:
        """The terms in printing order, each its coefficient times its token.

        A coefficient that is a one-term element (a monomial c*q^k) puts
        its own token in front, a longer one is parenthesized, and a
        coefficient of +-1 is dropped unless nothing else is left.

        >>> from .exprparse import parse_hecke, parse_laurent
        >>> parse_laurent("q - 1").render(), parse_laurent("q + q^-1").render()
        ('-1 + q', 'q^-1 + q')
        >>> parse_hecke("(1 - q)*T[t] - 1/2*q^-2*T[e]")
        -1/2*q^-2*T[e] + (1 - q)*T[t]
        """
        terms = self._terms if self._den == 1 else self.terms
        if not terms:
            return "0"
        token_of = self._token
        out = []
        for key in sorted(terms, key=self._order):
            coeff = terms[key]
            token = token_of(key)
            if isinstance(coeff, Sparse):
                inner = coeff._terms
                if len(inner) > 1:
                    body = f"({coeff.render()})*{token}" if token else f"({coeff.render()})"
                    out.append(" + " + body if out else body)
                    continue
                ((inner_key, c),) = inner.items()
                head = coeff._token(inner_key)
                token = f"{head}*{token}" if head and token else head or token
                coeff = c if coeff._den == 1 else exact_quotient(c, coeff._den)
            if coeff < 0:
                out.append(" - " if out else "-")
                coeff = -coeff
            elif out:
                out.append(" + ")
            if coeff == 1:
                out.append(token or "1")
            else:
                out.append(f"{coeff}*{token}" if token else str(coeff))
        return "".join(out)

    def scale(self, coeff):
        c = self._coerce(coeff)
        if not c:
            return self._new({})
        return self._new({key: c * v for key, v in self._terms.items()})
