"""Sparse exact Gaussian elimination over an exact field.

Vectors are dicts {column: coefficient} with no stored zeros.  Coefficients
are ints or Fractions, or any other exact field type supporting +, -, *, /,
bool and ==.  Arithmetic stays in the integers as long as it can: a row is
normalised by its lead only when that lead is not 1, a lead of -1 negates,
and any other lead divides through ``sparse.exact_quotient``, so an
integral quotient stays an int.  No float ever enters.

Pivot choice is always the minimum column of the residue, so every stored
row has its pivot at its minimum column; reductions therefore clear columns
left to right and terminate.  The pivot columns present in a residue are
kept in a heap, so each reduction step pops the next one instead of
rescanning the residue.  All results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .sparse import add_into, exact_quotient


def _divided(vec: dict, lead) -> dict:
    """vec / lead, exactly; vec itself when lead is 1."""
    if lead == 1:
        return vec
    if lead == -1:
        return {col: -val for col, val in vec.items()}
    if isinstance(lead, (int, Fraction)):
        return {col: exact_quotient(val, lead) for col, val in vec.items()}
    return {col: val / lead for col, val in vec.items()}


class GaussianBasis:
    """Incremental echelon basis of a row space, with optional payloads.

    A payload rides along with its row under normalization; reducing a
    vector reports the payload combination of the rows that were used.
    Payloads are how kernels, intersections and quotient coordinates are
    extracted from one elimination pass.
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

    def without_payloads(self) -> GaussianBasis:
        """The same rows (shared, not copied) with every payload dropped."""
        out = GaussianBasis()
        out._rows = {pivot: (row, None) for pivot, (row, _) in self._rows.items()}
        return out

    def reduce(self, vec: dict):
        """Return (residue, combo): vec = residue + sum(combo-of-payload rows).

        combo accumulates coeff * payload over the rows that were subtracted
        (rows without payloads contribute nothing to combo).
        """
        rows = self._rows
        residue = dict(vec)
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
        return residue, combo

    def insert(self, vec: dict, payload: dict | None = None):
        """Insert a vector; return (pivot, residue_payload).

        pivot is None when vec is dependent on the stored rows.  In that
        case residue_payload is payload - combo, i.e. the payload expression
        of the dependency (a kernel element when payloads track preimages).
        """
        residue, combo = self.reduce(vec)
        if payload is None:
            dependency = None
        else:
            dependency = add_into(dict(payload), combo, -1)
        if not residue:
            return None, dependency
        pivot = min(residue)
        lead = residue[pivot]
        stored_payload = None if dependency is None else _divided(dependency, lead)
        self._rows[pivot] = (_divided(residue, lead), stored_payload)
        return pivot, None

    def contains(self, vec: dict) -> bool:
        residue, _ = self.reduce(vec)
        return not residue


def span_basis(vectors) -> GaussianBasis:
    """Echelon basis, without payloads, of the span of the vectors."""
    basis = GaussianBasis()
    for vec in vectors:
        basis.insert(vec)
    return basis


def kernel_vectors(images) -> tuple[list[dict], GaussianBasis]:
    """Kernel and image of a linear map given as (source_index, image_vector) pairs.

    Returns the coefficient vectors over the source indices spanning the
    kernel, and the echelon basis of the image without payloads.  The image
    basis is the one span_basis builds from the same vectors in the same
    order, since payloads never change the rows.
    """
    basis = GaussianBasis()
    kernel = []
    for idx, vec in images:
        pivot, dependency = basis.insert(vec, payload={idx: 1})
        if pivot is None and dependency:
            kernel.append(dependency)
    return kernel, basis.without_payloads()


def intersect_with_columns(vectors, keep) -> list[dict]:
    """Spanning set of span(vectors) ∩ {support inside keep}.

    ``keep`` is a predicate on columns.  Eliminates on the discarded
    columns while tracking full vectors; dependencies are exactly the
    combinations supported on the kept columns.
    """
    basis = GaussianBasis()
    result = []
    for vec in vectors:
        outside = {c: v for c, v in vec.items() if not keep(c)}
        if not outside:
            result.append(dict(vec))
            continue
        pivot, dependency = basis.insert(outside, payload=dict(vec))
        if pivot is None and dependency:
            if all(keep(c) for c in dependency):
                result.append(dependency)
    return result


class QuotientSpace:
    """Quotient of a span of cycles by a span of boundaries.

    ``boundaries`` is the echelon basis of the boundary span, with no
    payloads; the quotient takes it over and extends it by the cycles.
    Homology representatives are the reduced cycle rows; coords() expresses
    any vector of cycles+boundaries in that representative basis.
    """

    def __init__(self, boundaries: GaussianBasis, cycles):
        self._basis = boundaries
        self.boundary_rank = boundaries.rank
        self.representatives: list[dict] = []
        for vec in cycles:
            pivot, _ = self._basis.insert(vec)
            if pivot is not None:
                # the stored normalized row is itself the chosen representative
                row, _ = self._basis._rows[pivot]
                index = len(self.representatives)
                self._basis._rows[pivot] = (row, {index: 1})
                self.representatives.append(row)

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coords(self, vec: dict) -> dict:
        """Coordinates of vec in the representative basis.

        Raises ValueError if vec is not in cycles + boundaries.
        """
        residue, combo = self._basis.reduce(vec)
        if residue:
            raise ValueError("vector does not lie in cycles + boundaries")
        return combo
