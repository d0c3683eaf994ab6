"""Independent linear-algebra oracle for the trace quotient.

Works in the truncated space span{T_v : l(v) <= M} modulo the subspace
spanned by all commutators [T_x, T_y] with l(x) + l(y) <= M, by the
fraction-free elimination of ``linalg`` over the Laurent polynomials
Z[q, q^-1], which needs no field of fractions.  The class of T_w is solved for in terms of
the canonical basis tokens and compared with the rewriting route; the
truncation level M = cutoff + MARGIN is part of the oracle's definition.

This module is deliberately independent of hh0.class_of_word: it never
rotates or rewrites words.
"""

from __future__ import annotations

from .laurent import LaurentQ
from .weyl import WeylWord, all_words, st_power
from .hecke import HeckeElement, basis, t_mul
from .hh0 import HH0Class
from .linalg import GaussianBasis

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
        self._insert_canonical_tokens()

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

    def _insert_canonical_tokens(self) -> None:
        """Each canonical token as a row with payload {token: 1}, so that a
        reduction reports its combination of the tokens; verified independent."""
        for token, element in self._canonical_tokens():
            pivot, _ = self._basis.insert(self._vector(element), payload={token: 1})
            if pivot is None:
                raise RuntimeError(
                    f"canonical token {token!r} is dependent in the truncated quotient"
                )

    def class_of_word(self, word: WeylWord) -> HH0Class:
        """Solve for the class of T_w in the canonical tokens.

        scale*T_w reduces to combo, a combination of the tokens over
        Z[q, q^-1], and the class is combo / scale.  Raises RuntimeError if
        T_w does not reduce into the canonical span, and NotDivisible if a
        coefficient of the class fails to be a Laurent polynomial; either
        event would be a genuine disagreement to report, not to repair.

        >>> sts = WeylWord(3, "s")
        >>> TruncatedTraceOracle(3).class_of_word(sts)
        (-1 + q)*[E(1)] + q*[Tt]
        >>> from heckehom.hh0 import class_of_word
        >>> class_of_word(sts)
        (-1 + q)*[E(1)] + q*[Tt]
        """
        if word.length > self.cutoff:
            raise ValueError(f"word length {word.length} exceeds oracle cutoff {self.cutoff}")
        leftover, combo, scale = self._basis.reduce(self._vector(basis(word)))
        if leftover:
            raise RuntimeError(f"class of T[{word}] does not lie in the canonical span")
        # the tokens are the keys of HH0Class, and combo holds nonzero LaurentQs
        return HH0Class._new(
            {token: coeff.divide_exact(scale) for token, coeff in combo.items()}
        )
