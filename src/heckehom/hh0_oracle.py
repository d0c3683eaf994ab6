"""Independent character oracle for the trace quotient.

The class of T_w is solved from five values of T_w: the trace of the
universal unramified principal series pi, on the basis (v, w = T_s v) over
Z[q^±1][lambda^±1], with q^-1 T_st acting on v by lambda,

    T_s v = w,  T_s w = q v + (q - 1) w,  T_t v = -lambda (q - 1) v + lambda w,
    T_t w = (q lambda^-1 - (q - 1)^2 (1 + lambda)) v + (q - 1)(1 + lambda) w,

and the characters (T_s, T_t) -> (q, q), (q, -1), (-1, q).  They separate
the canonical tokens: the rank-one case of density (Kazhdan, J. Analyse
Math. 47, 1986; Ciubotaru-He, JEMS 19, 2017).  The module never rotates or
rewrites words and never forms a Hecke product.
"""

from __future__ import annotations

from .laurent import ONE, Q, ZERO
from .sparse import add_into, add_term
from .weyl import E, WeylWord, _OTHER
from .hh0 import HH0Class

_Q_MINUS_1 = Q - 1
_GENERATORS = {  # pi(T_s), pi(T_t): rows of entries {lambda exponent: LaurentQ}
    "s": (({}, {0: Q}), ({0: ONE}, {0: _Q_MINUS_1})),
    "t": (
        ({1: -_Q_MINUS_1}, {-1: Q, 0: -_Q_MINUS_1 * _Q_MINUS_1, 1: -_Q_MINUS_1 * _Q_MINUS_1}),
        ({1: ONE}, {0: _Q_MINUS_1, 1: _Q_MINUS_1}),
    ),
}
_CHARACTERS = {"s": (Q, Q, -ONE), "t": (Q, -ONE, Q)}  # under (q, q), (q, -1), (-1, q)


def _product(x: dict, y: dict) -> dict:
    out: dict = {}
    for e, c in x.items():
        for f, d in y.items():
            add_term(out, e + f, c * d)
    return out


def _times(g: tuple, m: tuple) -> tuple:
    """The 2x2 matrix product g m."""
    return tuple(
        tuple(add_into(_product(row[0], m[0][j]), _product(row[1], m[1][j])) for j in (0, 1))
        for row in g
    )


class TruncatedTraceOracle:
    """Trace-quotient classes of the words up to cutoff, from characters: the
    matrix of a word is the generator in front times that of the rest, and
    only the trace and the three character values of each word are kept."""

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self._values = {E: ({0: 2 * ONE}, (ONE, ONE, ONE))}
        # the words of the current length, by the letter that extends them
        ends = dict.fromkeys("st", ((({0: ONE}, {}), ({}, {0: ONE})), (ONE, ONE, ONE)))
        for n in range(1, cutoff + 1):
            longer = {}
            for g, (matrix, chars) in ends.items():
                matrix = _times(_GENERATORS[g], matrix)
                chars = tuple(x * y for x, y in zip(_CHARACTERS[g], chars))
                self._values[WeylWord(n, g)] = (add_into(dict(matrix[0][0]), matrix[1][1]), chars)
                longer[_OTHER[g]] = (matrix, chars)
            ends = longer

    def class_of_word(self, word: WeylWord) -> HH0Class:
        """Solve the values of T_w for its class: e_n = q^-n [lambda^n] tr
        (n >= 1); rest = chi_(q,q) - sum e_n q^2n; a_s + a_t = (2 rest -
        [lambda^0] tr) / (q + 1); e_0 = rest - q (a_s + a_t); a_s - a_t =
        (chi_(q,-1) - chi_(-1,q)) / (q + 1).  Raises RuntimeError on a trace
        not symmetric in lambda and NotDivisible on a class that is not
        Laurent: disagreements to report, not to repair.

        >>> TruncatedTraceOracle(3).class_of_word(WeylWord(3, "s"))
        (-1 + q)*[E(1)] + q*[Tt]
        """
        if word.length > self.cutoff:
            raise ValueError(f"word length {word.length} exceeds oracle cutoff {self.cutoff}")
        trace, (trivial, mixed_s, mixed_t) = self._values[word]
        if any(trace.get(-n) != c for n, c in trace.items()):
            raise RuntimeError(f"the trace of T[{word}] is not symmetric in lambda")
        out = {n: c.shift(-n) for n, c in trace.items() if n > 0}
        rest = trivial
        for n, c in out.items():
            rest = rest - c.shift(2 * n)
        total = (2 * rest - trace.get(0, ZERO)).divide_exact(Q + 1)
        difference = (mixed_s - mixed_t).divide_exact(Q + 1)
        out[0] = rest - total.shift(1)
        out["s"] = (total + difference).divide_exact(2)
        out["t"] = (total - difference).divide_exact(2)
        return HH0Class(out)
