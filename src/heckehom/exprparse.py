"""Recursive-descent parser for the textual element grammars.

One expression language covers scalars, Laurent polynomials in q, and Hecke
elements:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-"* atom
    atom   := INTEGER | "q" ["^" INTEGER] | "T[" word "]" | "(" expr ")"

A value has one representation at a time: it is an int or a Fraction until
"q" or a basis token enters it, and a Hecke element from then on.  An
operation on two numbers is an operation on numbers; once either operand
is an element, a number operand is lifted to a constant element.
Division is exact and only defined between numbers (the "a/b" rational
notation).  parse_laurent refuses an input with a basis token.  Errors
carry the offending position.

Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside the interpreter's recursion limit; a run of unary
minus signs is read in a loop and nests nothing.
"""

from __future__ import annotations

from .laurent import LaurentQ, qpow
from .sparse import exact_quotient
from .weyl import E, WeylWord
from .hecke import HeckeElement, basis

MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of text, closed by an "end" token;
    a character outside the language is reported before any grammar error."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch == "T":
            if i + 1 >= len(text) or text[i + 1] != "[":
                raise ParseError("expected '[' after 'T'", i + 1)
            j = text.find("]", i + 2)
            if j < 0:
                raise ParseError("unterminated 'T[' token", i)
            tokens.append(("basis", text[i + 2 : j], i))
            i = j + 1
        elif ch in "q+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _element(value) -> HeckeElement:
    """value as a Hecke element: a number becomes a constant."""
    return value if isinstance(value, HeckeElement) else HeckeElement({E: value})


def _operands(a, b):
    """a and b as they combine: two numbers, or two Hecke elements."""
    if isinstance(a, HeckeElement) or isinstance(b, HeckeElement):
        return _element(a), _element(b)
    return a, b


class _Parser:
    """Reads the token list once, left to right; each rule returns an int,
    a Fraction or a HeckeElement."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0
        self.depth = 0

    def _kind(self) -> str:
        return self.tokens[self.index][0]

    def _take(self, kind: str) -> str:
        """The text of the next token, which must be of this kind."""
        found, text, position = self.tokens[self.index]
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text!r}", position)
        self.index += 1
        return text

    def _int(self) -> int:
        """The next token, which must be an integer literal, as an int."""
        position = self.tokens[self.index][2]
        text = self._take("int")
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on int digits
            raise ParseError(f"integer of {len(text)} digits is too long", position) from None

    def parse(self):
        value = self._expr()
        kind, text, position = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", position)
        return value

    def _expr(self):
        value = self._term()
        while (kind := self._kind()) in ("+", "-"):
            self.index += 1
            a, b = _operands(value, self._term())
            value = a + b if kind == "+" else a - b
        return value

    def _term(self):
        value = self._factor()
        while (kind := self._kind()) in ("*", "/"):
            position = self.tokens[self.index][2]
            self.index += 1
            a, b = _operands(value, self._factor())
            if kind == "*":
                value = a * b
            elif isinstance(a, HeckeElement):
                raise ParseError("'/' is only defined between scalars", position)
            elif b == 0:
                raise ParseError("division by zero", position)
            else:
                value = exact_quotient(a, b)
        return value

    def _factor(self):
        negate = False
        while self._kind() == "-":
            self.index += 1
            negate = not negate
        value = self._atom()
        return -value if negate else value

    def _atom(self):
        kind, text, position = self.tokens[self.index]
        if kind == "int":
            return self._int()
        if kind == "q":
            self.index += 1
            exponent = 1
            if self._kind() == "^":
                self.index += 1
                sign = 1
                if self._kind() == "-":
                    self.index += 1
                    sign = -1
                exponent = sign * self._int()
            return HeckeElement({E: qpow(exponent)})
        if kind == "basis":
            self.index += 1
            try:
                word = WeylWord.parse(text)
            except ValueError as err:
                raise ParseError(str(err), position) from None
            return basis(word)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", position)
            self.index += 1
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self._take(")")
            return value
        raise ParseError(f"unexpected token {text or 'end of input'!r}", position)


def parse_hecke(text: str) -> HeckeElement:
    """Parse a Hecke-element expression.

    >>> parse_hecke("(q-1)*T[s] + q*T[e]").render()
    'q*T[e] + (-1 + q)*T[s]'
    """
    return _element(_Parser(text).parse())


def parse_laurent(text: str) -> LaurentQ:
    """Parse a Laurent polynomial in q (no basis tokens allowed)."""
    element = parse_hecke(text)
    for word in element.terms:
        if word != E:
            raise ParseError(f"basis token T[{word}] not allowed here", 0)
    return element.coefficient(E)

