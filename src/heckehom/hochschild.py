"""The Hochschild complex of a unital algebra, on tuple keys.

An algebra enters through the product of two basis labels and the label
of its unit.  The product has one of two forms: ``mul(a, b) -> {label:
coeff}``, or, when the basis is closed under multiplication with
coefficient 1 (a monoid, as for a group algebra), a ``LabelProduct``
whose ``label(a, b)`` is the label of the product.  Then the Hochschild
complex is the linearized cyclic bar construction, a cyclic set (Loday,
*Cyclic Homology*, 7.3-7.4): every face of a tuple is one tuple, and the
faces form no dict.  A degree-p chain is a sparse dict over (p+1)-tuples
of labels.  This module holds the structure every such algebra shares
(Loday, ch. 1-2):

- the faces d_i, one tuple or a dict as the product's form, and the
  alternating boundary b = sum (-1)^i d_i, on any tuple;
- the signed cyclic operator t;
- the degeneracy test and the projection onto the normalized complex
  C(A)/D, spanned by the tuples with no unit after the first entry;
- the normalized Connes operator B = s N, which puts the unit in front of
  the signed cyclic norm.  ``boundary`` and ``connes_B`` add their image
  times coeff into the caller's dict ``out``;
- the diagonal action of a weight on tuples.  Restriction to compact
  subgroups acts on the chains of a group algebra this way, with the
  weight F(g_0 ... g_p) for F the indicator of the compact elements;
- ``identity_failures``, the one sweep of the engine and the torus that
  checks the chain identities of ``IDENTITIES``, the weight among them,
  and prints the witness of each that fails.  It walks the tuples one
  cyclic rotation orbit at a time, from the smallest rotation: B of every
  tuple of an orbit is a signed sum over the same tuples, the unit in front
  of each rotation, so the normalized b of each tuple the orbit's B-images
  hold is formed once, in a table that lives only as long as the orbit.
  b b, bB + Bb and B B add into one dict each.

On the lattice Z (labels are integers, the product is addition, the unit
is 0), in both forms:

>>> import operator
>>> add, labels = lambda a, b: {a + b: 1}, LabelProduct(operator.add)
>>> face((1, 2, 3), 1, add), face((1, 2, 3), 1, labels)
({(1, 5): 1}, (1, 5))
>>> boundary((1, 2, 3), add) == boundary((1, 2, 3), labels) == {(3, 3): 1, (1, 5): -1, (4, 2): 1}
True
>>> boundary((1, -1), labels)
{}
>>> connes_B((1, 2), 0)
{(0, 1, 2): 1, (0, 2, 1): -1}
>>> connes_B((0, 2), 0)
{}
"""

from __future__ import annotations

from collections import namedtuple

from .sparse import add_into, add_term, linear


class LabelProduct(namedtuple("LabelProduct", "label")):
    """The product of a monoid basis: label(a, b) is the label of the
    product of the basis vectors a and b, whose coefficient is 1."""

    __slots__ = ()


def face(key: tuple, i: int, mul) -> tuple | dict:
    """d_i on one tuple: entries i and i + 1 multiplied; d_p multiplies the
    last entry into the first.  One tuple for a ``LabelProduct``, else a
    dict with one tuple per term of the product.  Faces exist from degree 1
    on, so their composites d_i d_j exist from degree 2 on."""
    p = len(key) - 1
    if i < p:
        head, a, b, tail = key[:i], key[i], key[i + 1], key[i + 2 :]
    else:
        head, a, b, tail = (), key[p], key[0], key[1:p]
    if type(mul) is LabelProduct:
        return head + (mul.label(a, b),) + tail
    return {head + (label,) + tail: c for label, c in mul(a, b).items()}


def boundary(key: tuple, mul, out: dict | None = None, coeff=1) -> dict:
    """out += coeff * b(key) as ``sparse.add_into`` adds, for b = sum_i (-1)^i d_i
    on one tuple (zero in degree 0); returns out, a new dict when None.
    Each face, or each term of a face of a dict product, goes in by
    ``sparse.add_term``.

    >>> boundary((1, 2, 3), lambda a, b: {a + b: 1}, {(3, 3): -2}, 2)
    {(1, 5): -2, (4, 2): 2}
    """
    out, p = {} if out is None else out, len(key) - 1
    label = mul.label if type(mul) is LabelProduct else None
    for i in range(p + 1) if p else ():
        # the faces of ``face`` inline, so that a label product forms no dict
        if i < p:
            head, a, b, tail = key[:i], key[i], key[i + 1], key[i + 2 :]
        else:
            head, a, b, tail = (), key[p], key[0], key[1:p]
        sign = -coeff if i % 2 else coeff
        if label:  # one tuple, coefficient 1: no product dict
            add_term(out, head + (label(a, b),) + tail, sign)
            continue
        for x, c in mul(a, b).items():
            add_term(out, head + (x,) + tail, c * sign)
    return out


def cyclic(key: tuple) -> tuple[tuple, int]:
    """t on one tuple: (the tuple rotated right by one, the sign (-1)^p)."""
    return key[-1:] + key[:-1], (-1 if len(key) % 2 == 0 else 1)


def is_degenerate(key: tuple, unit) -> bool:
    """True when the unit sits after the first entry, so the tuple lies in D."""
    return unit in key[1:]


def normalize(vec: dict, unit) -> dict:
    """The projection onto the normalized complex: drop the degenerate tuples."""
    return {key: c for key, c in vec.items() if unit not in key[1:]}


def connes_B(key: tuple, unit, out: dict | None = None, coeff=1) -> dict:
    """out += coeff * B(key) as in ``boundary``, for the normalized B = s N
    on one tuple, degree p -> p + 1; zero on a tuple containing the unit,
    since every rotation of it with the unit in front has the unit in an
    interior slot."""
    out = {} if out is None else out
    if unit in key:
        return out
    p, signs = len(key) - 1, (coeff, -coeff)
    for j in range(p + 1):
        # the rotation t^j, carrying the sign (-1)^(p j)
        add_term(out, (unit,) + key[p + 1 - j :] + key[: p + 1 - j], signs[p * j % 2])
    return out


def class_action(vec: dict, weight) -> dict:
    """The diagonal action: each tuple scaled by weight(tuple), zeros dropped.

    On the lattice Z only 0 is compact, so compact restriction keeps the
    tuples whose entries sum to zero:

    >>> class_action({(1, -1): 3, (1, 1): 2}, lambda key: int(sum(key) == 0))
    {(1, -1): 3}
    """
    scaled = ((key, c * weight(key)) for key, c in vec.items())
    return {key: c for key, c in scaled if c}


# the chain identities of ``identity_failures``, each the name of its report case
IDENTITIES = ("precyclic-identities", "b-squared", "normalized-identities", "class-action-commutes")


def identity_failures(tuples, wanted: dict, mul, unit, weight=None, show=str) -> dict[str, str]:
    """The witness of each chain identity that fails, keyed by its name:
    show of its least failing tuple, least by (degree, tuple).  tuples(p)
    gives the degree-p tuples, closed under rotation, and wanted maps each
    name of ``IDENTITIES`` to check to its degrees; any other name raises
    ValueError.

    - "precyclic-identities": t^(p+1) = 1, and d_i d_j = d_{j-1} d_i (i < j)
      from degree 2 on, whose witness names the failing pair, not the tuple;
    - "b-squared": b b = 0;
    - "normalized-identities": B B = 0 and bB + Bb = 0 on the normalized tuples;
    - "class-action-commutes": every face, t and B keep the weight of the tuple.

    On Z with a weight that reads only the first entry, B sends (-1,), of
    weight 0, to (0, -1), of weight 1:

    >>> first = lambda key: int(key[0] == 0)
    >>> tuples = lambda p: [(-1,), (0,), (1,)]
    >>> identity_failures(tuples, {"class-action-commutes": [0]},
    ...                   lambda a, b: {a + b: 1}, 0, first, "tuple {}".format)
    {'class-action-commutes': 'tuple (-1,)'}
    """
    if unknown := wanted.keys() - set(IDENTITIES):
        raise ValueError(f"unknown chain identities: {', '.join(sorted(unknown))}")
    failed: dict = {}
    single = type(mul) is LabelProduct  # then every face is one tuple, not a dict
    add_face = add_term if single else add_into

    def fail(name, key, text=None):
        if name not in failed or key < failed[name][0]:
            failed[name] = (key, text)

    for p in sorted(set().union(*wanted.values())):
        # an identity that failed in a lower degree keeps that witness
        todo = {name for name, degrees in wanted.items() if p in degrees and name not in failed}
        precyclic, b_squared = "precyclic-identities" in todo, "b-squared" in todo
        normalized, weighed = "normalized-identities" in todo, "class-action-commutes" in todo
        for start in tuples(p):
            # walk each orbit from its smallest rotation, which begins with the least entry
            if min(start) < start[0]:
                continue
            orbit = [start[j:] + start[:j] for j in range(p + 1)]
            if min(orbit) < start:
                continue
            b_of: dict = {}  # normalized b of the tuples in this orbit's B-images
            for key in dict.fromkeys(orbit):
                key_faces = [face(key, i, mul) for i in range(p + 1)] if p else []
                if precyclic:
                    text = _precyclic_failure(key, key_faces, mul, show)
                    if text is not None:
                        fail("precyclic-identities", key, text)
                if b_squared or normalized:  # b only where it is checked
                    b_image: dict = {}
                    for i, image in enumerate(key_faces):
                        add_face(b_image, image, -1 if i % 2 else 1)
                    if b_squared:
                        bb: dict = {}
                        for other, c in b_image.items():
                            boundary(other, mul, bb, c)
                        if bb:
                            fail("b-squared", key)
                if normalized or weighed:
                    B_image = connes_B(key, unit)
                if normalized and not is_degenerate(key, unit):
                    BB, bB_Bb = {}, {}
                    for other, c in B_image.items():
                        if other not in b_of:
                            b_of[other] = normalize(boundary(other, mul), unit)
                        add_into(bB_Bb, b_of[other], c)
                        connes_B(other, unit, BB, c)
                    for other, c in b_image.items():  # B is zero on D: B of normalized b
                        connes_B(other, unit, bB_Bb, c)
                    if BB or bB_Bb:
                        fail("normalized-identities", key)
                if weighed:
                    # one tuple per face: the list of faces is one image
                    faces = [key_faces] if single else key_faces
                    here, images = weight(key), (B_image, (cyclic(key)[0],), *faces)
                    if any(weight(other) != here for image in images for other in image):
                        fail("class-action-commutes", key)

    witness = lambda key, text: show(key) if text is None else text
    return {name: witness(*failed[name]) for name in IDENTITIES if name in failed}


def _precyclic_failure(key: tuple, key_faces: list, mul, show) -> str | None:
    """t^(p+1) = 1 and, for p >= 2, d_i d_j = d_{j-1} d_i (i < j) on one
    tuple of degree p, given its faces: None when both hold, and otherwise
    the witness of the first that fails, the tuple printed by show.

    Each double face is one ``face`` call on a face that is the tuple of a
    ``LabelProduct``, and goes through ``linear`` on a face that is a dict."""
    p = len(key) - 1
    current, sign = key, 1
    for _ in range(p + 1):
        current, step = cyclic(current)
        sign *= step
    if (current, sign) != (key, 1):
        return f"t^{p + 1} != 1 at degree {p}, {show(key)}"
    for j in range(1, p + 1) if p >= 2 else ():  # in degree 1 a face lands in degree 0
        for i in range(j):
            if _face_of(key_faces[j], i, mul) != _face_of(key_faces[i], j - 1, mul):
                return f"d_{i} d_{j} != d_{j - 1} d_{i} at degree {p}"
    return None


def _face_of(image: tuple | dict, i: int, mul) -> tuple | dict:
    """d_i on a face: one ``face`` call on the tuple of a ``LabelProduct``,
    ``linear`` on the dict of any other product."""
    if type(image) is tuple:
        return face(image, i, mul)
    return linear(lambda x: face(x, i, mul), image)
