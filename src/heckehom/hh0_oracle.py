"""Independent linear-algebra oracle for the trace quotient.

Works in the truncated space span{T_v : l(v) <= M} modulo the subspace
spanned by all commutators [T_x, T_y] with l(x) + l(y) <= M: a
``linalg.QuotientSpace`` of the canonical basis tokens by the commutator
span, over the Laurent polynomials Z[q, q^-1], whose fraction-free
elimination needs no field of fractions.  The class of T_w is its
coordinates in the tokens, compared with the rewriting route; the
truncation level M = cutoff + MARGIN is part of the oracle's definition.

This module is deliberately independent of hh0.class_of_word: it never
rotates or rewrites words.
"""

from __future__ import annotations

from .laurent import LaurentQ
from .weyl import WeylWord, all_words, st_power
from .hecke import HeckeElement, basis, t_mul
from .hh0 import HH0Class
from .linalg import GaussianBasis, QuotientSpace

MARGIN = 2  # the truncation window extends the cutoff by this many letters


class TruncatedTraceOracle:
    """Trace-quotient classes via commutator-space elimination.

    cutoff is the largest word length the oracle is trusted for; the
    truncation window is M = cutoff + MARGIN.
    """

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self.window = cutoff + MARGIN
        self._columns = {w: i for i, w in enumerate(all_words(self.window))}
        self._basis = GaussianBasis()
        self._build_commutator_rows()
        self._tokens, elements = zip(*self._canonical_tokens())
        self._quotient = QuotientSpace(self._basis, [self._vector(e) for e in elements])
        if self._quotient.dim != len(self._tokens):
            raise RuntimeError(f"the {len(self._tokens)} canonical tokens are dependent in the"
                               f" truncated quotient: they span {self._quotient.dim} dimensions")

    def _vector(self, element: HeckeElement) -> dict[int, LaurentQ]:
        columns = self._columns
        return {columns[word]: coeff for word, coeff in element.terms.items()}

    def _build_commutator_rows(self) -> None:
        words = [w for w in all_words(self.window) if w.length >= 1]
        for x in words:
            for y in words:
                if x.length + y.length > self.window:
                    continue
                if (x.length, x.first) >= (y.length, y.first):
                    continue
                commutator = t_mul(basis(x), basis(y)) - t_mul(basis(y), basis(x))
                if not commutator.is_zero:
                    self._basis.insert(self._vector(commutator))

    def _canonical_tokens(self):
        yield ("s", basis(WeylWord(1, "s")))
        yield ("t", basis(WeylWord(1, "t")))
        for n in range(0, self.window // 2 + 1):
            yield (n, basis(st_power(n)))

    def class_of_word(self, word: WeylWord) -> HH0Class:
        """Solve for the class of T_w in the canonical tokens.

        The class is the coordinates of T_w in the tokens over Z[q, q^-1].
        Raises RuntimeError if T_w does not lie in the canonical span, and
        NotDivisible if a coefficient of the class fails to be a Laurent
        polynomial; either event would be a genuine disagreement to report,
        not to repair.

        >>> sts = WeylWord(3, "s")
        >>> TruncatedTraceOracle(3).class_of_word(sts)
        (-1 + q)*[E(1)] + q*[Tt]
        >>> from heckehom.hh0 import class_of_word
        >>> class_of_word(sts)
        (-1 + q)*[E(1)] + q*[Tt]
        """
        if word.length > self.cutoff:
            raise ValueError(f"word length {word.length} exceeds oracle cutoff {self.cutoff}")
        try:
            coords = self._quotient.coords(self._vector(basis(word)))
        except ValueError:
            raise RuntimeError(f"class of T[{word}] does not lie in the canonical span") from None
        # the tokens are the keys of HH0Class, and coords holds nonzero LaurentQs
        return HH0Class._new({self._tokens[index]: coeff for index, coeff in coords.items()})
