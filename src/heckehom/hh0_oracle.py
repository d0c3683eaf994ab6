"""Independent linear-algebra oracle for the trace quotient.

Works in the truncated space span{T_v : l(v) <= M} modulo the subspace
spanned by all commutators [T_x, T_y] with l(x) + l(y) <= M, by exact
Gaussian elimination over the rational function field Q(q).  The class of
T_w is solved for in terms of the canonical basis tokens and compared with
the rewriting route; the truncation level M = cutoff + MARGIN is part of
the oracle's definition.

This module is deliberately independent of hh0.class_of_word: it never
rotates or rewrites words.
"""

from __future__ import annotations

from .laurent import LaurentQ, ONE, ZERO
from .weyl import E, WeylWord, all_words, st_power
from .hecke import HeckeElement, basis, t_mul
from .hh0 import HH0Class
from .linalg import GaussianBasis
from .sparse import add_term, exact_quotient

MARGIN = 2  # the truncation window extends the cutoff by this many letters


def _ordinary(poly: LaurentQ) -> dict[int, object]:
    """Shift a nonzero Laurent polynomial to valuation zero."""
    val = poly.valuation()
    return {e - val: c for e, c in poly.terms.items()}


def _poly_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    db = max(b)
    lead = b[db]
    quot: dict[int, object] = {}
    rem = dict(a)
    while rem and max(rem) >= db:
        da = max(rem)
        c = exact_quotient(rem[da], lead)
        e = da - db
        quot[e] = c
        for be, bc in b.items():
            add_term(rem, be + e, -c * bc)
    return quot, rem


def poly_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """Monic gcd of the ordinary-polynomial parts (gcd up to units of Q[q, q^-1])."""
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    x, y = _ordinary(a), _ordinary(b)
    while y:
        _, r = _poly_divmod(x, y)
        x, y = y, r
    return _monic(LaurentQ(x))


def _monic(p: LaurentQ) -> LaurentQ:
    if p.is_zero:
        return ZERO
    data = _ordinary(p)
    lead = data[max(data)]
    return LaurentQ({e: exact_quotient(c, lead) for e, c in data.items()})


class QFrac:
    """Element of Q(q) as a reduced fraction of Laurent polynomials.

    Normalized so the denominator is an ordinary monic polynomial with
    nonzero constant term; the element is a Laurent polynomial exactly when
    the denominator is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQ, den: LaurentQ = ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        num = num.divide_exact(g)
        den = den.divide_exact(g)
        # push the denominator's unit part (leading coeff and q-power) into num
        shift = den.valuation()
        lead = den.terms[den.degree()]
        num = LaurentQ({e - shift: exact_quotient(c, lead) for e, c in num.terms.items()})
        self.num, self.den = num, _monic(den)

    @classmethod
    def of(cls, value) -> QFrac:
        if isinstance(value, QFrac):
            return value
        if isinstance(value, LaurentQ):
            return cls(value)
        return cls(LaurentQ.const(value))

    @property
    def is_laurent(self) -> bool:
        return self.den == ONE

    def as_laurent(self) -> LaurentQ:
        if not self.is_laurent:
            raise ValueError(f"not a Laurent polynomial: ({self.num})/({self.den})")
        return self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QFrac):
            other = QFrac.of(other)
        return self.num == other.num and self.den == other.den

    def __add__(self, other) -> QFrac:
        other = QFrac.of(other)
        return QFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> QFrac:
        out = QFrac.__new__(QFrac)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other) -> QFrac:
        return self + (-QFrac.of(other))

    def __rsub__(self, other) -> QFrac:
        return QFrac.of(other) + (-self)

    def __mul__(self, other) -> QFrac:
        other = QFrac.of(other)
        return QFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QFrac:
        other = QFrac.of(other)
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QFrac(self.num * other.den, self.den * other.num)

    def __repr__(self) -> str:
        if self.is_laurent:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


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
        self._canonical = self._reduce_canonical_tokens()

    def _vector(self, element: HeckeElement) -> dict[int, QFrac]:
        out = {}
        for word, coeff in element.terms.items():
            out[self._columns[word]] = QFrac.of(coeff)
        return out

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

    def _reduce_canonical_tokens(self):
        """Residues of the canonical basis tokens; verified independent."""
        solver = GaussianBasis()
        for token, element in self._canonical_tokens():
            residue, _, _ = self._basis.reduce(self._vector(element))
            pivot, _ = solver.insert(residue, payload={token: QFrac.of(1)})
            if pivot is None:
                raise RuntimeError(
                    f"canonical token {token!r} is dependent in the truncated quotient"
                )
        return solver

    def class_of_word(self, word: WeylWord) -> HH0Class:
        """Solve for the class of T_w in the canonical tokens.

        Raises if T_w does not reduce into the canonical span or if any
        solved coefficient fails to be a Laurent polynomial; either event
        would be a genuine disagreement to report, not to repair.
        """
        if word.length > self.cutoff:
            raise ValueError(f"word length {word.length} exceeds oracle cutoff {self.cutoff}")
        residue, _, _ = self._basis.reduce(self._vector(basis(word)))
        # Q(q) rows are monic, so the scale of a reduction over Q(q) is 1
        leftover, combo, _ = self._canonical.reduce(residue)
        if leftover:
            raise RuntimeError(f"class of T[{word}] does not lie in the canonical span")
        coeff_s = coeff_t = ZERO
        even = {}
        for token, value in combo.items():
            coeff = value.as_laurent()
            if token == "s":
                coeff_s = coeff
            elif token == "t":
                coeff_t = coeff
            else:
                even[token] = coeff
        return HH0Class(coeff_s, coeff_t, even)
