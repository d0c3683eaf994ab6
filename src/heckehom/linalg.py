"""Sparse exact Gaussian elimination, fraction-free.

Vectors are dicts {column: coefficient} with no stored zeros.  Coefficients
are ints and Fractions; no float ever enters.

The elimination stays in the integers, in the manner of Bareiss (Math.
Comp. 22, 1968).  Every stored row is a primitive integer row with a
positive lead: it is divided, together with its payload, an integer
vector, only by the gcd of their combined content.  ``reduce`` clears a
vector's denominators once, on entry, and then reduces it by
cross-multiplication, ``residue <- a*residue - b*row`` with a = lead/g
and b = coeff/g for g = gcd(coeff, lead).  It tracks the product of the
factors a as ``scale``, so that scale*vec = residue + the combination of
rows.  The one division of coefficients is ``QuotientSpace.coords``,
which returns combo / scale in the cycles as given.

    >>> basis = GaussianBasis()
    >>> basis.insert({0: 4, 1: 2, 2: 6}), basis.row(0)
    ((0, None), ({0: 2, 1: 1, 2: 3}, None))
    >>> basis.reduce({0: 1, 1: 1})
    ({1: 1, 2: -3}, {}, 2)
    >>> space = QuotientSpace(GaussianBasis(), [{0: 2, 1: 1}])
    >>> space.coords({0: 1, 1: Fraction(1, 2)}), space.coords({0: 4, 1: 2})
    ({0: Fraction(1, 2)}, {0: 2})

Pivot choice is always the minimum column of the residue, so every stored
row has its pivot at its minimum column; reductions therefore clear columns
left to right and terminate.  The pivot columns present in a residue are
kept in a heap, so each reduction step pops the next one instead of
rescanning the residue.  All results are deterministic.

Under min-column pivoting the set of pivot columns depends only on the row
space, so the order in which vectors are inserted changes the work and the
stored rows, never a rank, a pivot set or a dimension.  The engine and the
torus insert the sources of every boundary map in one order,
``elimination_order``: decreasing key order.  The reason is a
matching of sources with faces, as in algebraic discrete Morse theory
(Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998; Skoldberg,
Trans. AMS 358, 2006).  The lead of a Hochschild boundary image is mostly
an outer face of its source, the one that multiplies the first entry with
a neighbour.  Taken in decreasing order, that face is mostly not a pivot
yet, so the source is stored on its own face with few reduction steps, and
the rows stay sparse; in increasing order almost every pivot is a column
that reduction filled in.  On b_5 of Q[Z/5], 855 of the 1,020 stored rows
have their pivot on a face of their own source (26 in increasing order),
432 are stored with no step at all (17), and the rows hold 8,765 entries
instead of 20,903.  The top pass of ``homology`` on a closed complex stops
inserting once its rank equals the number of cycles below.  The (b, B)
total complex, on keys (j, key) with j descending first, is eliminated only
by the tests, as the oracle of the engine's cyclic homology; there high j
first puts the sources whose images carry the Connes operator first, and so
spans the cycles sooner.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .sparse import add_into, exact_quotient


def _cleared(vec: dict) -> tuple[dict, int]:
    """(den * vec, den) with den the lcm of the denominators of vec's Fractions.

    A copy of vec with scale 1 when it holds no Fraction.
    """
    dens = {v.denominator for v in vec.values() if type(v) is Fraction}
    if not dens:
        return dict(vec), 1
    den = lcm(*dens)
    return {col: (val * den).numerator for col, val in vec.items()}, den


def _primitive(vecs: list[dict], sign: int = 1) -> list[dict]:
    """The integer vectors vecs divided by their combined content, so that it
    is 1; sign = -1 negates them as well.
    """
    divisor = sign * gcd(*(val for vec in vecs for val in vec.values()))
    if divisor == 1:
        return vecs
    return [{col: val // divisor for col, val in vec.items()} for vec in vecs]


class GaussianBasis:
    """Incremental echelon basis of a row space, with optional payloads.

    A payload, an integer vector, rides along with its row under
    normalization; reducing a vector reports the payload combination of the
    rows that were used.  Payloads are how kernels, intersections and
    quotient coordinates are extracted from one elimination pass.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict = {}  # pivot column -> (row vector, payload or None)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        return self._rows.keys()

    def row(self, pivot):
        return self._rows[pivot]

    def reduce(self, vec: dict):
        """Return (residue, combo, scale): scale*vec = residue + the rows used.

        combo is the same combination of the rows' payloads (rows without
        payloads contribute nothing to it).  scale is a positive integer: the
        lcm of vec's denominators times every factor a of the steps.
        """
        rows = self._rows
        residue, scale = _cleared(vec)
        combo: dict = {}
        # every pivot column of the residue is in the heap; a column that
        # cancelled after it was pushed is stale and skipped when popped
        heap = [col for col in residue if col in rows]
        heapify(heap)
        while heap:
            col = heappop(heap)
            coeff = residue.pop(col, None)
            if coeff is None:
                continue
            row, payload = rows[col]
            lead = row[col]
            if lead != 1:
                g = gcd(coeff, lead)
                a, coeff = lead // g, coeff // g
                if a != 1:
                    scale *= a
                    for c in residue:
                        residue[c] *= a
                    for c in combo:
                        combo[c] *= a
            # inline, not add_into: most of engine-spec's time; also feeds the heap
            for c, v in row.items():
                if c == col:
                    continue
                old = residue.get(c)
                if old is None:
                    residue[c] = -coeff * v
                    if c in rows:
                        heappush(heap, c)
                else:
                    new = old - coeff * v
                    if new:
                        residue[c] = new
                    else:
                        del residue[c]
            if payload is not None:
                add_into(combo, payload, coeff)
        return residue, combo, scale

    def insert(self, vec: dict, payload: dict | None = None):
        """Insert a vector; return (pivot, dependency).

        pivot is None when vec is dependent on the stored rows.  In that
        case dependency is scale*payload - combo, as built: the payload
        expression of the dependency (a kernel element when payloads track
        preimages), which a caller that keeps it makes primitive.
        """
        residue, combo, scale = self.reduce(vec)
        if payload is None:
            dependency = None
        else:
            dependency = add_into({k: scale * v for k, v in payload.items()}, combo, -1)
        if not residue:
            return None, dependency
        pivot = min(residue)
        vecs = [residue] if dependency is None else [residue, dependency]
        vecs = _primitive(vecs, -1 if residue[pivot] < 0 else 1)
        self._rows[pivot] = (vecs[0], None if dependency is None else vecs[1])
        return pivot, None

    def without_payloads(self) -> GaussianBasis:
        """A basis of the same rows, shared, with no payloads."""
        basis = GaussianBasis()
        basis._rows = {pivot: (row, None) for pivot, (row, _) in self._rows.items()}
        return basis


def elimination_order(keys) -> list:
    """The sources of a boundary map in the order a pass inserts them:
    decreasing key order (see the module docstring).

    >>> elimination_order([(0, (1,)), (0, (2,)), (1, (0,))])
    [(1, (0,)), (0, (2,)), (0, (1,))]
    """
    return sorted(keys, reverse=True)


def span_basis(vectors) -> GaussianBasis:
    """Echelon basis, without payloads, of the span of the vectors."""
    basis = GaussianBasis()
    for vec in vectors:
        basis.insert(vec)
    return basis


def kernel_vectors(images) -> tuple[list[dict], GaussianBasis]:
    """Kernel and image of a linear map given as (source_index, image_vector) pairs.

    Returns the coefficient vectors over the source indices spanning the
    kernel, and the echelon basis of the image, each row with its payload,
    the combination of sources whose image it is.  The image basis has the
    pivots of the one span_basis builds from the same vectors in the same
    order, each row a positive multiple of the row there: a row is made
    primitive together with its payload.
    """
    basis = GaussianBasis()
    kernel = []
    for idx, vec in images:
        pivot, dependency = basis.insert(vec, payload={idx: 1})
        if pivot is None and dependency:
            kernel.append(_primitive([dependency])[0])
    return kernel, basis


def intersect_with_columns(vectors, keep) -> list[dict]:
    """Spanning set of span(vectors) ∩ {support inside keep}.

    ``keep`` is a predicate on columns.  Eliminates on the discarded
    columns while tracking full vectors, cleared of denominators, as
    payloads; dependencies are exactly the combinations supported on the
    kept columns.  The test oracle of the torus boundaries, which the torus
    itself no longer cuts to a window.
    """
    basis = GaussianBasis()
    result = []
    for vec, _ in map(_cleared, vectors):
        outside = {c: v for c, v in vec.items() if not keep(c)}
        if not outside:
            result.append(vec)
            continue
        pivot, dependency = basis.insert(outside, payload=vec)
        if pivot is None and dependency and all(keep(c) for c in dependency):
            result.append(_primitive([dependency])[0])
    return result


class QuotientSpace:
    """Quotient of a span of cycles by a span of boundaries.

    ``boundaries`` is the echelon basis of the boundary span.  Its rows may
    carry the payloads a kernel pass leaves, each row b(w) with payload w:
    the quotient keeps that basis apart for preimage(), and extends a copy
    without payloads by the cycles, each inserted with payload {index: 1},
    so that coords() and is_boundary() read the representatives only.
    ``cycles`` keeps the cycles as given, and the representatives are those
    that get a pivot; coords() expresses any vector of cycles+boundaries in
    them.  ``dim_cycles`` counts the cycles, their dimension when they are
    independent, as those of a kernel pass are.
    """

    def __init__(self, boundaries: GaussianBasis, cycles: list[dict]):
        self._preimages = boundaries
        self._basis = boundaries.without_payloads()
        self.cycles = cycles
        self.representatives: list[dict] = []
        for vec in cycles:
            pivot, _ = self._basis.insert(vec, payload={len(self.representatives): 1})
            if pivot is not None:
                self.representatives.append(vec)

    @property
    def dim(self) -> int:
        return len(self.representatives)

    @property
    def dim_cycles(self) -> int:
        return len(self.cycles)

    def coords(self, vec: dict) -> dict:
        """Coordinates of vec in the representatives: the combo of ``reduce``
        divided by its scale, by ``exact_quotient``.  Raises ValueError if vec
        is not in cycles + boundaries.
        """
        residue, combo, scale = self._basis.reduce(vec)
        if residue:
            raise ValueError("vector does not lie in cycles + boundaries")
        if scale == 1:
            return combo
        return {idx: exact_quotient(val, scale) for idx, val in combo.items()}

    def is_boundary(self, vec: dict) -> bool:
        """Whether vec lies in the boundary span; False on a vector that is
        not in cycles + boundaries, so in particular on a non-cycle."""
        residue, combo, _ = self._basis.reduce(vec)
        return not residue and not combo

    def preimage(self, vec: dict) -> dict:
        """A chain w with b(w) = vec, from the payloads of the boundary rows:
        0 for vec = 0.  Raises ValueError if vec is not a boundary, or is not
        0 and the boundary rows carry no payloads, as those of a top pass.
        """
        if not vec:
            return {}
        residue, combo, scale = self._preimages.reduce(vec)
        if residue:
            raise ValueError("vector is not a boundary")
        if not combo:
            raise ValueError("the boundary rows keep no preimages")
        if scale == 1:
            return combo
        return {key: exact_quotient(val, scale) for key, val in combo.items()}


def homology(bases, boundary, closed: bool = True) -> list[QuotientSpace]:
    """H_0..H_top of a complex with basis keys bases[p] of C_p, p <= top + 1.

    boundary(key) is the image in C_{p-1} of a basis key of C_p.  Each map
    is eliminated once, its sources in ``elimination_order``: the kernel
    pass of the boundary on C_p gives the cycles of degree p, and its
    echelon rows are the boundary basis of degree p - 1; only the top map
    gets a pass of its own, without payloads.  The cycles of a kernel pass
    are independent (each has its own dependent source), so there are
    dim Z of them.  ``closed`` states that the images of C_{top+1} lie in
    the span of bases[top]: then every boundary is a cycle there, and the
    top pass stops once its rank reaches dim Z, when every later source is
    dependent.  A truncated complex whose images leave its bases, as the
    torus window, is not closed, and its top pass runs in full.  Each kernel
    pass leaves the preimage payloads of its rows to the quotient of the
    degree below (``QuotientSpace.preimage``); the top pass keeps none, so
    H_top has no preimages.

    The boundary of a triangle, then of the filled triangle:

    >>> d = lambda c: {c[1]: 1, c[0]: -1} if len(c) == 2 else {(1, 2): 1, (0, 2): -1, (0, 1): 1}
    >>> edges = [(0, 1), (1, 2), (0, 2)]
    >>> [[h.dim for h in homology([[0, 1, 2], edges, top], d)] for top in ([], [(0, 1, 2)])]
    [[1, 1], [1, 0]]
    """
    quotients = []
    cycles = [{key: 1} for key in bases[0]]
    for keys in bases[1:-1]:
        images = ((key, boundary(key)) for key in elimination_order(keys))
        next_cycles, boundaries = kernel_vectors(images)
        quotients.append(QuotientSpace(boundaries, cycles))
        cycles = next_cycles
    boundaries = GaussianBasis()
    for key in elimination_order(bases[-1]):
        if closed and boundaries.rank == len(cycles):
            break
        boundaries.insert(boundary(key))
    quotients.append(QuotientSpace(boundaries, cycles))
    return quotients
