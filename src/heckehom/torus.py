"""Hochschild chains of the group algebra of a lattice and the torus picture.

Chains of degree p over the lattice Z^r are spanned by (p+1)-tuples of
integer vectors.  The Hochschild structure is the one of ``hochschild``,
with lattice addition as the product of two basis vectors and the zero
vector as the unit: the boundary b adds adjacent entries, the cyclic
operator rotates with sign, and the normalized Connes operator B inserts
the zero vector in front of the cyclic norm.  Compact restriction is the
diagonal action of ``hochschild`` whose weight keeps the tuples with entries
summing to zero.  The comparison side is the
algebra of differential forms on the dual torus: a p-form is a combination
of monomial times dlog(z_{i_1}) ^ ... ^ dlog(z_{i_p}), reached through the
map

    f0 (x) f1 (x) ... (x) fp  ->  (1/p!) f0 df1 ^ ... ^ dfp.

All homology statements are verified on exponent-windowed truncations; the
chain complex is graded by the total exponent vector, which every structure
map preserves, so windowed computations inside one grade are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add

from . import hochschild as hh
from .linalg import (
    QuotientSpace,
    intersect_with_columns,
    kernel_vectors,
    span_basis,
)
from .sparse import Sparse, add_term, exact, exact_quotient, linear

ChainKey = tuple[tuple[int, ...], ...]
FormKey = tuple[tuple[int, ...], tuple[int, ...]]


class _LatticeElement(Sparse):
    """A sum over basis keys of one rank and one degree, exact coefficients."""

    __slots__ = ("rank", "degree")

    _shape = ("rank", "degree")
    _coerce = staticmethod(exact)

    def __init__(self, rank: int, degree: int, terms=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.rank = rank
        self.degree = degree
        super().__init__(terms)


class LatticeChain(_LatticeElement):
    """Degree-p Hochschild chain of the group algebra of Z^rank."""

    __slots__ = ()

    def _key(self, key) -> ChainKey:
        key = tuple(tuple(int(x) for x in vec) for vec in key)
        if len(key) != self.degree + 1 or any(len(vec) != self.rank for vec in key):
            raise ValueError(f"bad chain key {key} for degree {self.degree}, rank {self.rank}")
        return key

    @classmethod
    def from_key(cls, rank: int, key: ChainKey, coeff=1) -> LatticeChain:
        return cls(rank, len(key) - 1, {key: coeff})

    @classmethod
    def from_tensors(cls, factors) -> LatticeChain:
        """Chain from a tuple of MultiLaurent group-algebra elements."""
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one tensor factor")
        terms: dict[ChainKey, object] = {}
        for combo in itertools.product(*(f.terms.items() for f in factors)):
            coeff = 1
            for _, c in combo:
                coeff *= c
            add_term(terms, tuple(vec for vec, _ in combo), coeff)
        return cls(factors[0].rank, len(factors) - 1, terms)

    def render(self) -> str:
        if not self._terms:
            return "0"
        bits = [f"{c}*{key}" for key, c in sorted(self._terms.items())]
        return " + ".join(bits)


class TorusForm(_LatticeElement):
    """Differential form on the dual torus, in monomial/dlog coordinates."""

    __slots__ = ()

    def _key(self, key) -> FormKey:
        exps, idx = key
        exps = tuple(int(x) for x in exps)
        idx = tuple(int(i) for i in idx)
        if len(exps) != self.rank or len(idx) != self.degree:
            raise ValueError("bad form key")
        if any(a >= b for a, b in zip(idx, idx[1:])) or any(
            i < 0 or i >= self.rank for i in idx
        ):
            raise ValueError("index set must be strictly increasing within range")
        return exps, idx

    def render(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (exps, idx), c in sorted(self._terms.items()):
            wedge = "^".join(f"dlog{i + 1}" for i in idx) or "1"
            bits.append(f"{c}*z^{list(exps)}*{wedge}")
        return " + ".join(bits)


def _vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def _total(key: ChainKey) -> tuple[int, ...]:
    total = key[0]
    for vec in key[1:]:
        total = _vec_add(total, vec)
    return total


def _lattice_mul(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The product of two basis vectors of the group algebra: lattice addition."""
    return {_vec_add(a, b): 1}


def boundary_key(key: ChainKey) -> dict[ChainKey, int]:
    """Alternating face sum on a single basis tuple (unnormalized)."""
    return hh.boundary(key, _lattice_mul)


def _is_degenerate(key: ChainKey) -> bool:
    return hh.is_degenerate(key, (0,) * len(key[0]))


def connes_b_key(key: ChainKey) -> dict[ChainKey, int]:
    """Normalized Connes operator on a basis tuple: the zero vector in front
    of the signed cyclic norm, zero on a tuple containing the zero vector."""
    return hh.connes_B(key, (0,) * len(key[0]))


def hkr_key(rank: int, key: ChainKey) -> dict[FormKey, object]:
    """HKR value on a monomial tuple: (1/p!) f0 df1 ^ ... ^ dfp."""
    p = len(key) - 1
    total = _total(key)
    if p == 0:
        return {(total, ()): 1}
    if p > rank:
        return {}
    rows = key[1:]
    out: dict[FormKey, object] = {}
    for idx in itertools.combinations(range(rank), p):
        det = _int_det([[row[j] for j in idx] for row in rows])
        if det:
            out[(total, idx)] = exact_quotient(det, factorial(p))
    return out


def _int_det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            term = matrix[0][j] * _int_det(minor)
            total += term if j % 2 == 0 else -term
    return total


def de_rham_d_key(rank: int, fkey: FormKey) -> dict[FormKey, int]:
    exps, idx = fkey
    out: dict[FormKey, int] = {}
    for j in range(rank):
        if exps[j] == 0 or j in idx:
            continue
        position = sum(1 for i in idx if i < j)
        sign = 1 if position % 2 == 0 else -1
        new_idx = tuple(sorted(idx + (j,)))
        out[(exps, new_idx)] = sign * exps[j]
    return out


def hochschild_b(chain: LatticeChain) -> LatticeChain:
    """Alternating face-map boundary; undefined in degree zero."""
    if chain.degree < 1:
        raise ValueError("the boundary is not defined on degree-0 chains")
    return LatticeChain._new(
        linear(boundary_key, chain._terms), rank=chain.rank, degree=chain.degree - 1
    )


def cyclic_t(chain: LatticeChain) -> LatticeChain:
    """Rotate each tuple right by one, with sign (-1)^degree."""
    out = {}
    for key, c in chain._terms.items():
        rotated, sign = hh.cyclic(key)
        out[rotated] = sign * c
    return chain._like(out)


def normalize_chain(chain: LatticeChain) -> LatticeChain:
    """Project onto the normalized complex: drop tuples with an interior zero."""
    return chain._like(hh.normalize(chain._terms, (0,) * chain.rank))


def connes_B(chain: LatticeChain) -> LatticeChain:
    """Normalized Connes operator, degree p -> p+1."""
    return LatticeChain._new(
        linear(connes_b_key, chain._terms), rank=chain.rank, degree=chain.degree + 1
    )


def hkr(chain: LatticeChain) -> TorusForm:
    out = linear(lambda key: hkr_key(chain.rank, key), chain._terms)
    return TorusForm._new(out, rank=chain.rank, degree=chain.degree)


def pi0(form: TorusForm) -> TorusForm:
    """Projection onto translation-invariant forms (trivial monomial part)."""
    zero = (0,) * form.rank
    return form._like({k: c for k, c in form._terms.items() if k[0] == zero})


def de_rham_d(form: TorusForm) -> TorusForm:
    out = linear(lambda fkey: de_rham_d_key(form.rank, fkey), form._terms)
    return TorusForm._new(out, rank=form.rank, degree=form.degree + 1)


def _compact(key: ChainKey) -> int:
    """1 when the entries of the tuple sum to zero, else 0: the indicator of
    the trivial subgroup, the compact part of a lattice, at their product."""
    return int(not any(_total(key)))


def class_action(chain: LatticeChain) -> LatticeChain:
    """Compact restriction on chains, ``hochschild.class_action`` with the
    weight ``_compact``: exactly the tuples whose entries sum to zero survive."""
    return chain._like(hh.class_action(chain._terms, _compact))


# ---------------------------------------------------------------------------
# windowed enumeration and the commuting-square verification


def window_vectors(rank: int, window: int):
    return itertools.product(range(-window, window + 1), repeat=rank)


def windowed_keys(rank: int, degree: int, window: int):
    """All degree-p basis tuples with every entry in [-window, window]^rank."""
    return itertools.product(window_vectors(rank, window), repeat=degree + 1)


def sector_keys(rank: int, degree: int, window: int, total: tuple[int, ...]):
    """Windowed basis tuples with a prescribed total exponent vector."""
    for prefix in itertools.product(window_vectors(rank, window), repeat=degree):
        partial = (0,) * rank
        for vec in prefix:
            partial = _vec_add(partial, vec)
        last = tuple(t - x for t, x in zip(total, partial))
        if all(-window <= x <= window for x in last):
            yield prefix + (last,)


def _in_window(key: ChainKey, window: int) -> bool:
    return all(all(-window <= x <= window for x in vec) for vec in key)


@dataclass
class SquareReport:
    """Result of one commuting-square verification.

    The dimensions refer to the invariant (total exponent zero) sector of
    the windowed complex, which is where the projection acts nontrivially.
    """

    rank: int
    window: int
    degree: int
    dim_cycles: int
    dim_boundaries: int
    dim_invariant: int
    square_commutes: bool
    hkr_b_constant: int | Fraction | None
    hkr_b_consistent: bool
    passed: bool

    def as_dict(self) -> dict:
        c = self.hkr_b_constant
        return {
            "rank": self.rank,
            "window": self.window,
            "degree": self.degree,
            "dim_cycles": self.dim_cycles,
            "dim_boundaries": self.dim_boundaries,
            "dim_invariant": self.dim_invariant,
            "hkr_b_constant": str(c) if c is not None else None,
            "pass": self.passed,
        }


def _sector_cycles(keys, degree: int) -> list[dict]:
    """Spanning cycles of the span of the given degree-p basis tuples."""
    if degree == 0:
        return [{key: 1} for key in keys]
    cycles, _ = kernel_vectors((key, boundary_key(key)) for key in keys)
    return cycles


def _sector_boundary_basis(rank: int, degree: int, window: int):
    """Echelon basis of the windowed degree-p boundaries of the zero-total
    sector: b of its degree-(p+1) chains, intersected with the window."""
    source = sector_keys(rank, degree + 1, window, (0,) * rank)
    raw = (boundary_key(key) for key in source)
    return span_basis(intersect_with_columns(raw, lambda key: _in_window(key, window)))


def _invariant_sector_dims(rank: int, degree: int, window: int):
    """(cycles, quotient by the boundaries) of the windowed zero-total sector."""
    cycles = _sector_cycles(sector_keys(rank, degree, window, (0,) * rank), degree)
    return cycles, QuotientSpace(_sector_boundary_basis(rank, degree, window), cycles)


def check_square_on_key(rank: int, key: ChainKey) -> bool:
    """hkr(class_action(x)) == pi0(hkr(x)) on a single basis tuple."""
    chain = LatticeChain.from_key(rank, key)
    return hkr(class_action(chain)) == pi0(hkr(chain))


def measure_hkr_b_constant(rank: int, degree: int, window: int):
    """Find c with hkr(B(x)) = c * d(hkr(x)) on windowed normalized chains.

    Returns (constant, consistent): constant is None when both sides vanish
    identically on the window (the relation is then vacuous).
    """
    ratios = set()
    for key in windowed_keys(rank, degree, window):
        if _is_degenerate(key):
            continue
        chain = LatticeChain.from_key(rank, key)
        left = hkr(connes_B(chain))._terms
        right = de_rham_d(hkr(chain))._terms
        # left may not have support beyond right
        if left.keys() - right.keys():
            return None, False
        ratios.update(exact_quotient(left.get(fkey, 0), value) for fkey, value in right.items())
        if len(ratios) > 1:
            return None, False
    return (ratios.pop() if ratios else None), True


def homology_square_check(rank: int, window: int, degree: int) -> SquareReport:
    """Verify the compact-restriction/invariant-forms square on a window.

    On windowed degree-p cycles, checks hkr . class_action = pi0 . hkr up to
    b-boundaries by exact linear algebra, and reports the dimensions of the
    invariant sector of the windowed homology.

    Exhaustive over the window: the work grows like (2*window+1)^(rank*(p+2)),
    so large ranks want window 1.
    """
    if rank < 1 or window < 1 or degree < 0 or degree > rank:
        raise ValueError("need rank >= 1, window >= 1, 0 <= degree <= rank")
    square_commutes = all(
        check_square_on_key(rank, key) for key in windowed_keys(rank, degree, window)
    )
    cycles, quotient = _invariant_sector_dims(rank, degree, window)
    constant, consistent = measure_hkr_b_constant(rank, degree, window)
    passed = square_commutes and consistent
    return SquareReport(
        rank=rank,
        window=window,
        degree=degree,
        dim_cycles=len(cycles),
        dim_boundaries=quotient.boundary_rank,
        dim_invariant=quotient.dim,
        square_commutes=square_commutes,
        hkr_b_constant=constant,
        hkr_b_consistent=consistent,
        passed=passed,
    )


def compact_part_of_b_image_is_boundary(rank: int, degree: int, window: int) -> bool:
    """Homology-level vanishing of the compact part of the Connes operator.

    For every windowed normalized cycle z of the zero-total sector, the
    chain class_action(B(z)) must be a boundary of the windowed zero-total
    sector one degree up.  This is the lattice instance of the vanishing of
    compact restriction composed with B.
    """
    keys = sector_keys(rank, degree, window, (0,) * rank)
    cycles = _sector_cycles((k for k in keys if not _is_degenerate(k)), degree)
    basis = _sector_boundary_basis(rank, degree + 1, window)
    images = (hh.class_action(linear(connes_b_key, vec), _compact) for vec in cycles)
    return all(basis.contains(image) for image in images if image)
