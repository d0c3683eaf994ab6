"""The infinite dihedral Weyl group W = <s, t | s^2 = t^2 = 1>.

Every element has a unique reduced word, which is an alternating string in
the letters s, t; an element is therefore determined by its length together
with its first letter.  Multiplication, inversion, descents and the Bruhat
order are all decided by short case analysis on this normal form.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

_OTHER = {"s": "t", "t": "s"}


class WeylWord(tuple):
    """Element of the infinite dihedral group in normal form: the pair
    (length, first letter), a tuple, so hashing and equality run in C;
    construction validates the pair.

    >>> WeylWord(3, "s").letters
    'sts'
    >>> WeylWord.parse("stst") * WeylWord.parse("ts")
    st
    >>> WeylWord(0, "s")
    Traceback (most recent call last):
    ...
    ValueError: the identity has no first letter
    """

    __slots__ = ()

    def __new__(cls, length: int, first: str | None = None) -> WeylWord:
        if length < 0:
            raise ValueError("length must be nonnegative")
        if length == 0:
            if first is not None:
                raise ValueError("the identity has no first letter")
        elif first not in ("s", "t"):
            raise ValueError(f"first letter must be 's' or 't', not {first!r}")
        return tuple.__new__(cls, (length, first))

    length = property(itemgetter(0))
    first = property(itemgetter(1))  # None for the identity

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    @classmethod
    def identity(cls) -> WeylWord:
        return cls(0, None)

    @classmethod
    def parse(cls, text: str) -> WeylWord:
        """Parse "e" or a reduced alternating string; reject anything else."""
        if text == "e":
            return cls(0, None)
        if not text or any(ch not in "st" for ch in text):
            raise ValueError(f"not a Weyl word: {text!r}")
        for a, b in zip(text, text[1:]):
            if a == b:
                raise ValueError(f"not a reduced alternating word: {text!r}")
        return cls(len(text), text[0])

    @property
    def letters(self) -> str:
        if self.length == 0:
            return ""
        out = []
        letter = self.first
        for _ in range(self.length):
            out.append(letter)
            letter = _OTHER[letter]
        return "".join(out)

    @property
    def last(self) -> str | None:
        if self.length == 0:
            return None
        return self.first if self.length % 2 == 1 else _OTHER[self.first]

    def inverse(self) -> WeylWord:
        # reversing an alternating string gives the alternating string
        # starting from the old last letter
        if self.length == 0:
            return self
        return WeylWord(self.length, self.last)

    def __mul__(self, other: WeylWord) -> WeylWord:
        return word_mul(self, other)

    def __str__(self) -> str:
        return "e" if self.length == 0 else self.letters

    def __repr__(self) -> str:
        return str(self)


E = WeylWord.identity()
S = WeylWord(1, "s")
T = WeylWord(1, "t")


# _word((length, first)) is WeylWord(length, first) without the validation,
# for a normal form computed from valid words
_word = partial(tuple.__new__, WeylWord)


def word_mul(x: WeylWord, y: WeylWord) -> WeylWord:
    """Product in normal form.

    Once the boundary letters match, cancellation telescopes until the
    shorter factor is exhausted, so the case analysis is O(1).

    >>> word_mul(S, S)
    e
    >>> word_mul(WeylWord.parse("st"), WeylWord.parse("st"))
    stst
    """
    xl, xf = x
    yl, yf = y
    if not xl:
        return y
    if not yl:
        return x
    if (xf if xl % 2 else _OTHER[xf]) != yf:  # the last letter of x
        return _word((xl + yl, xf))
    if xl > yl:
        return _word((xl - yl, xf))
    if xl < yl:
        # the first l(x) letters of y are consumed
        return _word((yl - xl, _OTHER[yf] if xl % 2 else yf))
    return E


def bruhat_leq(x: WeylWord, w: WeylWord) -> bool:
    """Bruhat order: x <= w iff x == w or l(x) < l(w).

    In the infinite dihedral group every alternating word of length below
    l(w) is a subword of the reduced word of w (Bjorner-Brenti, ch. 2), so
    the subword criterion reduces to comparing lengths.

    >>> bruhat_leq(S, WeylWord.parse("sts"))
    True
    >>> bruhat_leq(WeylWord.parse("stst"), WeylWord.parse("sts"))
    False
    >>> bruhat_leq(S, T)
    False
    """
    return x == w or x.length < w.length


def st_power(n: int) -> WeylWord:
    """(st)^n for n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return E if n == 0 else WeylWord(2 * n, "s")


def ts_power(n: int) -> WeylWord:
    """(ts)^n for n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return E if n == 0 else WeylWord(2 * n, "t")


def all_words(max_length: int):
    """All group elements of length <= max_length, shortest first."""
    yield E
    for n in range(1, max_length + 1):
        yield WeylWord(n, "s")
        yield WeylWord(n, "t")
