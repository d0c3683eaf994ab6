"""Recursive-descent parser for the textual element grammars.

One expression language covers scalars, Laurent polynomials in q, and Hecke
elements:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-"* atom
    atom   := INTEGER | "q" ["^" INTEGER] | "T[" word "]" | "(" expr ")"

Division is exact and only defined between scalars (the "a/b" rational
notation).  Every value is carried as a Hecke element; parse_laurent and
parse_scalar refuse inputs that use more of the language than their
grammar allows.  Errors carry the offending position.

Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside the interpreter's recursion limit; a run of unary
minus signs is read in a loop and nests nothing.
"""

from __future__ import annotations

from .laurent import LaurentQ, qpow
from .sparse import exact, exact_quotient
from .weyl import WeylWord
from .hecke import HeckeElement, basis

MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch == "q":
                self.tokens.append(("q", "q", i))
                i += 1
                continue
            if ch == "T":
                if i + 1 >= len(text) or text[i + 1] != "[":
                    raise ParseError("expected '[' after 'T'", i + 1)
                j = text.find("]", i + 2)
                if j < 0:
                    raise ParseError("unterminated 'T[' token", i)
                self.tokens.append(("basis", text[i + 2 : j], i))
                i = j + 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != "end":
            self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1]!r}", token[2])
        return self.advance()


class _Value:
    """Either a pure scalar or a general Hecke element."""

    __slots__ = ("element", "scalar")

    def __init__(self, element: HeckeElement, scalar):
        self.element = element
        self.scalar = scalar

    @classmethod
    def of_scalar(cls, value) -> _Value:
        return cls(HeckeElement({WeylWord.identity(): LaurentQ.const(value)}), value)

    @classmethod
    def of_element(cls, element: HeckeElement) -> _Value:
        return cls(element, None)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Tokenizer(text)
        self.depth = 0

    def parse(self) -> HeckeElement:
        value = self._expr()
        token = self.tokens.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected trailing input {token[1]!r}", token[2])
        return value.element

    def _expr(self) -> _Value:
        value = self._term()
        while True:
            kind, _, _ = self.tokens.peek()
            if kind == "+":
                self.tokens.advance()
                value = _add(value, self._term())
            elif kind == "-":
                self.tokens.advance()
                value = _add(value, _neg(self._term()))
            else:
                return value

    def _term(self) -> _Value:
        value = self._factor()
        while True:
            kind, _, position = self.tokens.peek()
            if kind == "*":
                self.tokens.advance()
                value = _mul(value, self._factor())
            elif kind == "/":
                self.tokens.advance()
                value = _div(value, self._factor(), position)
            else:
                return value

    def _factor(self) -> _Value:
        negate = False
        while self.tokens.peek()[0] == "-":
            self.tokens.advance()
            negate = not negate
        value = self._atom()
        return _neg(value) if negate else value

    def _atom(self) -> _Value:
        kind, text, position = self.tokens.peek()
        if kind == "int":
            self.tokens.advance()
            return _Value.of_scalar(int(text))
        if kind == "q":
            self.tokens.advance()
            exponent = 1
            if self.tokens.peek()[0] == "^":
                self.tokens.advance()
                exponent = self._signed_int()
            return _Value.of_element(
                HeckeElement({WeylWord.identity(): qpow(exponent)})
            )
        if kind == "basis":
            self.tokens.advance()
            try:
                word = WeylWord.parse(text)
            except ValueError as err:
                raise ParseError(str(err), position) from None
            return _Value.of_element(basis(word))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", position)
            self.tokens.advance()
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self.tokens.expect(")")
            return value
        raise ParseError(f"unexpected token {text or 'end of input'!r}", position)

    def _signed_int(self) -> int:
        sign = 1
        if self.tokens.peek()[0] == "-":
            self.tokens.advance()
            sign = -1
        _, text, _ = self.tokens.expect("int")
        return sign * int(text)


def _add(a: _Value, b: _Value) -> _Value:
    scalar = None
    if a.scalar is not None and b.scalar is not None:
        scalar = a.scalar + b.scalar
    return _Value(a.element + b.element, scalar)


def _neg(a: _Value) -> _Value:
    return _Value(-a.element, None if a.scalar is None else -a.scalar)


def _mul(a: _Value, b: _Value) -> _Value:
    scalar = None
    if a.scalar is not None and b.scalar is not None:
        scalar = a.scalar * b.scalar
    return _Value(a.element * b.element, scalar)


def _div(a: _Value, b: _Value, position: int) -> _Value:
    if a.scalar is None or b.scalar is None:
        raise ParseError("'/' is only defined between scalars", position)
    if b.scalar == 0:
        raise ParseError("division by zero", position)
    return _Value.of_scalar(exact_quotient(a.scalar, b.scalar))


def parse_hecke(text: str) -> HeckeElement:
    """Parse a Hecke-element expression.

    >>> parse_hecke("(q-1)*T[s] + q*T[e]").render()
    'q*T[e] + (-1 + q)*T[s]'
    """
    return _Parser(text).parse()


def parse_laurent(text: str) -> LaurentQ:
    """Parse a Laurent polynomial in q (no basis tokens allowed)."""
    element = parse_hecke(text)
    identity = WeylWord.identity()
    for word in element.terms:
        if word != identity:
            raise ParseError(f"basis token T[{word}] not allowed here", 0)
    return element.coefficient(identity)


def parse_scalar(text: str):
    """Parse an exact rational scalar, under the rule of ``sparse.exact``.

    >>> parse_scalar("1/2*2"), parse_scalar("3/2")
    (1, Fraction(3, 2))
    """
    poly = parse_laurent(text)
    if poly.is_zero:
        return 0
    if set(poly.terms) != {0}:
        raise ParseError("expected a scalar, found powers of q", 0)
    return exact(poly.coefficient(0))
