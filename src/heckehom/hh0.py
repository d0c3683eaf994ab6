"""The trace quotient HH0 = A/[A,A] of the Hecke algebra.

The quotient has basis {[T_s], [T_t], [T_{(st)^n}] : n >= 0}; the class of
T_e is the n = 0 entry, written [E(n)] for [T_{(st)^n}].  Reduction of an
arbitrary element to this basis is a terminating rewriting procedure on
basis words:

  * an even word is a cyclic rotation of (st)^n when lengths add, so its
    class is [E(n)];
  * rotating the first letter of an odd word to the back creates an
    adjacent repeated generator, and the quadratic relation then strictly
    shortens the word:  [T_{g(hg)^m}] = (q-1) [E(m)] + q [T_{h(gh)^{m-1}}].

Each quadratic step reduces length by two, so the rewriting terminates.
Unrolled, it is a closed form,

    [T_{g(hg)^m}] = sum_{k<m} (q-1) q^k [E(m-k)] + q^m [T_y],

with y = g for even m and y = h for odd m; ``class_of_word`` keeps the
step-by-step rewriting.  ``reduce_to_hh0`` sums the closed form over all
the odd words of an element at once: with A(m) the summed coefficient of
the words of length 2m+1, the coefficient of [E(j)], j >= 1, is (q-1) S(j)
for S(j) = A(j) + q S(j+1), one Horner pass from the longest word down, in
which every power of q is an exponent shift and the factor q - 1 a shift
and a difference.
"""

from __future__ import annotations

from .laurent import LaurentQ, ONE, ZERO, Q, to_laurent
from .sparse import Sparse, add_term
from .weyl import WeylWord, _OTHER
from .hecke import HeckeElement

_Q_MINUS_1 = Q - 1


class HH0Class(Sparse):
    """Element of HH0 in the canonical basis.

    Keyed by "s" for [T_s], "t" for [T_t] and n >= 0 for [T_{(st)^n}]
    (n = 0 is the class of T_e), with LaurentQ coefficients.

    >>> HH0Class({"t": 1, "s": -1, 2: 1, 0: 2})
    2*[E(0)] + [E(2)] - [Ts] + [Tt]
    """

    __slots__ = ()

    _coerce = staticmethod(to_laurent)

    @staticmethod
    def _token(key) -> str:
        return f"[T{key}]" if key in ("s", "t") else f"[E({key})]"

    _order = staticmethod(lambda key: (key in ("s", "t"), key))

    def _key(self, key):
        if key in ("s", "t"):
            return key
        if key < 0:
            raise ValueError("even-part index must be nonnegative")
        return int(key)


_WORD_CLASS_CACHE: dict[WeylWord, HH0Class] = {}


def class_of_word(word: WeylWord) -> HH0Class:
    """The class of T_w in the canonical basis.

    >>> class_of_word(WeylWord(2, "t"))
    [E(1)]
    >>> class_of_word(WeylWord(3, "s"))
    (-1 + q)*[E(1)] + q*[Tt]
    """
    cached = _WORD_CLASS_CACHE.get(word)
    if cached is not None:
        return cached
    if word.length % 2 == 0:
        result = HH0Class({word.length // 2: ONE})
    elif word.length == 1:
        result = HH0Class({word.first: ONE})
    else:
        # rotate the leading generator to the back; the trailing repeat
        # resolves by the quadratic relation
        m = (word.length - 1) // 2
        shorter = WeylWord(word.length - 2, _OTHER[word.first])
        result = HH0Class({m: _Q_MINUS_1}) + class_of_word(shorter).scale(Q)
    _WORD_CLASS_CACHE[word] = result
    return result


def reduce_to_hh0(a: HeckeElement) -> HH0Class:
    """The class of a Hecke element in the trace quotient, LaurentQ-linearly:
    the closed form of the module docstring, summed by one Horner pass.

    >>> from .hecke import basis
    >>> reduce_to_hh0(basis(WeylWord(3, "s")) + basis(WeylWord(5, "t")).scale(2))
    (-1 - q + 2*q^2)*[E(1)] + (-2 + 2*q)*[E(2)] + (q + 2*q^2)*[Tt]
    """
    out: dict = {}
    odd: dict[int, LaurentQ] = {}  # m -> A(m)
    for word, c in a._terms.items():
        m, r = divmod(word.length, 2)
        if not r:
            add_term(out, m, c)
            continue
        add_term(odd, m, c)
        y = word.first if m % 2 == 0 else _OTHER[word.first]
        add_term(out, y, c.shift(m))
    horner = ZERO  # S(j)
    for j in range(max(odd, default=0), 0, -1):
        horner = horner.shift(1)
        if j in odd:
            horner = horner + odd[j]
        add_term(out, j, horner.times_q_minus_1())
    return HH0Class._new(out)
