"""Hochschild chains of the group algebra of a lattice and the torus picture.

A vector v of Z^r is one int label, encode(v) = sum v_i * 2^(16 (r-1-i)),
signed digits with the most significant first: an additive homomorphism
Z^r -> Z, injective on the box |v_i| < 2^15, where int order is
lexicographic vector order (every coordinate the suite forms is a sum of a
few windowed entries, far inside the box).  A degree-p chain is a sparse
dict (see ``sparse``) over (p+1)-tuples of labels, with the Hochschild
structure of ``hochschild`` for addition as the product and 0 as the unit:
b adds adjacent entries, t rotates with sign, and the normalized Connes
operator B inserts 0 in front of the cyclic norm.  Compact restriction is
``hochschild.class_action`` with the weight ``_compact``, which keeps the
tuples whose entries sum to zero.  Labels are decoded only where
coordinates are read: in ``hkr_key`` and in ``_printed``, the witness
text of ``chain_identity_failures`` and ``homology_square_check``.  The
comparison side is the algebra of differential forms on the dual torus: a
p-form is a sparse dict over keys (exps, idx), the monomial z^exps times
dlog(z_{i_1}) ^ ... ^ dlog(z_{i_p}) for idx = (i_1 < ... < i_p), reached
through the map

    f0 (x) f1 (x) ... (x) fp  ->  (1/p!) f0 df1 ^ ... ^ dfp.

All homology statements are verified on exponent-windowed truncations; the
chain complex is graded by the total exponent vector, which every structure
map preserves, so windowed computations inside one grade are exact.

The chain identities and the compact weight are checked in the identity
sweep of ``hochschild`` (``chain_identity_failures``).  ``homology_square_check``
forms hkr(x) and hkr(B(x)) once per windowed tuple and returns what the square,
the constant of hkr . B = c * d . hkr and pi0 . hkr . B = 0 find from them; the
homology of the invariant sector is the ladder of ``_invariant_sector_dims``,
each degree eliminated once, whose cycles the SBI check also reads.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial, reduce
from math import factorial

from . import hochschild as hh
from .linalg import QuotientSpace, homology
from .sparse import exact_quotient, linear

ChainKey = tuple[int, ...]
FormKey = tuple[tuple[int, ...], tuple[int, ...]]
_BITS, _BOX = 16, 1 << 15  # bits per coordinate; the box is |v_i| < _BOX


def encode(vector) -> int:
    """The label of a lattice vector."""
    return reduce(lambda label, x: (label << _BITS) + x, vector, 0)


def decode(label: int, rank: int) -> tuple[int, ...]:
    """The vector of Z^rank in the box with that label: (1, -1) for 65535 at rank 2."""
    if not rank:
        return ()
    high, digit = divmod(label + _BOX, 2 * _BOX)
    return decode(high, rank - 1) + (digit - _BOX,)


# the product of two basis vectors of the group algebra, lattice addition:
# the label of the product, which has coefficient 1
_LATTICE = hh.LabelProduct(operator.add)


def boundary_key(key: ChainKey) -> dict[ChainKey, int]:
    """Alternating face sum on a single basis tuple (unnormalized)."""
    return hh.boundary(key, _LATTICE)


def connes_b_key(key: ChainKey) -> dict[ChainKey, int]:
    """Normalized Connes operator on a basis tuple: the zero vector in front
    of the signed cyclic norm, zero on a tuple containing the zero vector."""
    return hh.connes_B(key, 0)


def hkr_key(key: ChainKey, rank: int, vectors: dict | None = None) -> dict[FormKey, object]:
    """HKR value on a monomial tuple of Z^rank: (1/p!) f0 df1 ^ ... ^ dfp.
    vectors, when given, maps each label of key[1:] to its vector."""
    p = len(key) - 1
    if p > rank:
        return {}
    rows = [vectors[label] if vectors else decode(label, rank) for label in key[1:]]
    total, out = decode(sum(key), rank), {}
    for idx in itertools.combinations(range(rank), p):
        det = _int_det([[row[j] for j in idx] for row in rows])
        if det:
            out[(total, idx)] = exact_quotient(det, factorial(p))
    return out


def _int_det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            term = matrix[0][j] * _int_det(minor)
            total += term if j % 2 == 0 else -term
    return total


def hkr(vec: dict, rank: int, vectors: dict | None = None) -> dict:
    """The HKR map from chains over Z^rank to forms, linear in the tuples.

    >>> hkr({(2, 3): 1}, 1)
    {((5,), (0,)): 3}
    """
    return linear(lambda key: hkr_key(key, rank, vectors), vec)


def de_rham_d_key(fkey: FormKey) -> dict[FormKey, int]:
    exps, idx = fkey
    out: dict[FormKey, int] = {}
    for j in range(len(exps)):
        if exps[j] == 0 or j in idx:
            continue
        position = sum(1 for i in idx if i < j)
        sign = 1 if position % 2 == 0 else -1
        new_idx = tuple(sorted(idx + (j,)))
        out[(exps, new_idx)] = sign * exps[j]
    return out


def de_rham_d(form: dict) -> dict:
    """The de Rham differential on forms, p -> p + 1."""
    return linear(de_rham_d_key, form)


def pi0(form: dict) -> dict:
    """Projection onto translation-invariant forms (trivial monomial part)."""
    return {fkey: c for fkey, c in form.items() if not any(fkey[0])}


def _compact(key: ChainKey) -> int:
    """1 when the entries of the tuple sum to zero, else 0: the indicator of
    the trivial subgroup, the compact part of a lattice, at their product."""
    return int(not sum(key))


# ---------------------------------------------------------------------------
# windowed enumeration and the commuting-square verification


def window_labels(rank: int, window: int) -> list[int]:
    """The labels of [-window, window]^rank, in increasing order."""
    return [encode(v) for v in itertools.product(range(-window, window + 1), repeat=rank)]


def windowed_keys(rank: int, degree: int, window: int):
    """All degree-p basis tuples with every entry in [-window, window]^rank."""
    return itertools.product(window_labels(rank, window), repeat=degree + 1)


def sector_keys(rank: int, degree: int, window: int):
    """Windowed basis tuples whose entries sum to the zero vector."""
    labels = window_labels(rank, window)
    inside = set(labels)
    for prefix in itertools.product(labels, repeat=degree):
        if (last := -sum(prefix)) in inside:
            yield prefix + (last,)


def _printed(rank: int, key: ChainKey) -> str:
    """A tuple of labels as the tuple of its vectors, the torus witness text."""
    return str(tuple(decode(label, rank) for label in key))


def chain_identity_failures(rank: int, window: int, wanted: dict) -> dict[str, str]:
    """``hochschild.identity_failures`` on the windowed tuples, for wanted,
    each identity to check with its degrees, with lattice addition, the
    zero vector and the compact weight: the witness of each that fails, a
    tuple printed as its vectors."""
    tuples = lambda p: windowed_keys(rank, p, window)
    return hh.identity_failures(tuples, wanted, _LATTICE, 0, _compact, partial(_printed, rank))


def _invariant_sector_dims(rank: int, window: int, top: int) -> list[QuotientSpace]:
    """H_0..H_top of the windowed zero-total sector, by ``homology``.

    The boundaries are b of the windowed chains one degree up.  They leave
    the window, so the complex is not closed, and are not cut back to it:
    every image is a cycle and the windowed zero-total chains are the span
    of ``sector_keys``, so a windowed chain lies in their span exactly when
    it lies in the part inside the window."""
    bases = [sector_keys(rank, p, window) for p in range(top + 2)]
    return homology(bases, boundary_key, closed=False)


def check_square_on_key(key: ChainKey, form: dict) -> bool:
    """hkr(class_action(x)) == pi0(hkr(x)) on a basis tuple x, with
    form = hkr(x): the action scales x by its weight, and hkr with it."""
    weight = _compact(key)
    return {fkey: weight * c for fkey, c in form.items() if weight * c} == pi0(form)


def measure_hkr_b_constant(ratios: set, image: dict, form: dict) -> bool:
    """One normalized tuple x of the search for c with hkr(B(x)) = c * d(hkr(x)),
    given image = hkr(B(x)) and form = hkr(x): adds the ratios of image to
    d(form) to ratios, and is False once no single c can hold, because image
    has support beyond d(form) or ratios has two values."""
    right = de_rham_d(form)
    # image may not have support beyond right
    if image.keys() - right.keys():
        return False
    ratios.update(exact_quotient(image.get(fkey, 0), value) for fkey, value in right.items())
    return len(ratios) <= 1


def homology_square_check(rank: int, window: int, degree: int) -> tuple:
    """Verify the compact-restriction/invariant-forms square on a window.

    One sweep over the windowed degree-p tuples forms hkr(x) and, on the
    normalized ones, hkr(B(x)) once per tuple, and returns what its three
    checks find: whether the square hkr . class_action = pi0 . hkr holds at
    chain level (``check_square_on_key``), which implies it on cycles up to
    b-boundaries; whether one constant c gives hkr . B = c * d . hkr
    (``measure_hkr_b_constant``), and c, None when both sides vanish on the
    window; and the first normalized tuple with pi0(hkr(B(x))) != 0, printed
    as its vectors, or None.  The homology of the invariant sector is H_p of
    ``_invariant_sector_dims``.

    Exhaustive over the window: the work grows like (2*window+1)^(rank*(p+1)),
    so large ranks want window 1.
    """
    if rank < 1 or window < 1 or degree < 0 or degree > rank:
        raise ValueError("need rank >= 1, window >= 1, 0 <= degree <= rank")
    square_commutes, consistent, ratios, pi0_after_b = True, True, set(), None
    vectors = {label: decode(label, rank) for label in window_labels(rank, window)}
    for key in windowed_keys(rank, degree, window):
        form = hkr_key(key, rank, vectors)
        square_commutes = square_commutes and check_square_on_key(key, form)
        if hh.is_degenerate(key, 0):
            continue
        image = hkr(connes_b_key(key), rank, vectors)
        consistent = consistent and measure_hkr_b_constant(ratios, image, form)
        if pi0_after_b is None and pi0(image):
            pi0_after_b = _printed(rank, key)
    constant = ratios.pop() if consistent and ratios else None
    return square_commutes, consistent, constant, pi0_after_b


def compact_part_of_b_image_is_boundary(h_p: QuotientSpace, h_p1: QuotientSpace) -> bool:
    """Homology-level vanishing of the compact part of the Connes operator.

    For every cycle z of h_p, H_p of the windowed zero-total sector, the
    chain class_action(B(z)) must be a boundary in h_p1, H_{p+1} of the same
    ladder (``_invariant_sector_dims``): the lattice instance of the vanishing
    of compact restriction composed with B.  The compact weight is 1 on the
    zero-total sector, so the check is that B sends invariant cycles to
    boundaries.  At p = 0 it is vacuous: the only degree-0 cycle is the unit,
    which B kills, as it kills (0, 0) among the degree-1 cycles (a, -a).
    """
    images = (hh.class_action(linear(connes_b_key, z), _compact) for z in h_p.cycles)
    return all(h_p1.is_boundary(image) for image in images)
