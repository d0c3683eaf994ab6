"""The Hochschild complex of a unital algebra, on tuple keys.

An algebra enters through the product of two basis labels,
``mul(a, b) -> {label: coeff}``, and the label of its unit.  A degree-p
chain is a sparse dict over (p+1)-tuples of labels.  This module holds the
structure every such algebra shares (Loday, *Cyclic Homology*, ch. 1-2):

- the faces d_i and the alternating boundary b = sum (-1)^i d_i, on any
  tuple;
- the signed cyclic operator t;
- the degeneracy test and the projection onto the normalized complex
  C(A)/D, spanned by the tuples with no unit after the first entry;
- the normalized Connes operator B = s N, which puts the unit in front of
  the signed cyclic norm;
- the diagonal action of a weight on tuples, and the check that it commutes
  with the faces, t and B.  Restriction to compact subgroups acts on the
  chains of a group algebra this way, with the weight F(g_0 ... g_p) for F
  the indicator of the compact elements;
- ``identity_failures``, the one sweep of the engine and the torus that
  checks the chain identities on their tuples.  It walks the tuples one
  cyclic rotation orbit at a time, from the smallest rotation: B of every
  tuple of an orbit is a signed sum over the same tuples, the unit in front
  of each rotation, so b of each tuple the orbit's B-images hold is formed
  once, in a table that lives only as long as the orbit.

On the lattice Z (labels are integers, the product is addition, the unit
is 0):

>>> add = lambda a, b: {a + b: 1}
>>> boundary((1, 2, 3), add)
{(3, 3): 1, (1, 5): -1, (4, 2): 1}
>>> boundary((1, -1), add)
{}
>>> connes_B((1, 2), 0)
{(0, 1, 2): 1, (0, 2, 1): -1}
>>> connes_B((0, 2), 0)
{}
"""

from __future__ import annotations

from .sparse import add_into, add_term, linear


def face(key: tuple, i: int, mul) -> dict:
    """d_i on one tuple: entries i and i + 1 multiplied; d_p multiplies the
    last entry into the first.  Faces exist from degree 1 on, so their
    composites d_i d_j exist from degree 2 on."""
    p = len(key) - 1
    if i < p:
        head, a, b, tail = key[:i], key[i], key[i + 1], key[i + 2 :]
    else:
        head, a, b, tail = (), key[p], key[0], key[1:p]
    return {head + (label,) + tail: c for label, c in mul(a, b).items()}


def faces(key: tuple, mul) -> list[dict]:
    """[d_0, ..., d_p] on one tuple; none in degree 0."""
    return [face(key, i, mul) for i in range(len(key))] if len(key) > 1 else []


def boundary(key: tuple, mul) -> dict:
    """b = sum_i (-1)^i d_i on one tuple; zero in degree 0."""
    out: dict = {}
    p = len(key) - 1
    for i in range(p + 1) if p else ():
        # the faces of ``face`` and the accumulation of ``sparse.add_term``,
        # inline: this loop is the hot path of the engine and the torus
        if i < p:
            head, a, b, tail = key[:i], key[i], key[i + 1], key[i + 2 :]
        else:
            head, a, b, tail = (), key[p], key[0], key[1:p]
        for label, c in mul(a, b).items():
            image = head + (label,) + tail
            value = -c if i % 2 else c
            old = out.get(image)
            new = value if old is None else old + value
            if new:
                out[image] = new
            elif old is not None:
                del out[image]
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


def connes_B(key: tuple, unit) -> dict:
    """Normalized B = s N on one tuple, degree p -> p + 1.

    Zero on a tuple containing the unit: every rotation of it with the unit
    in front has the unit in an interior slot.
    """
    if unit in key:
        return {}
    p = len(key) - 1
    out: dict = {}
    for j in range(p + 1):
        # the rotation t^j, carrying the sign (-1)^(p j)
        add_term(out, (unit,) + key[p + 1 - j :] + key[: p + 1 - j], -1 if p * j % 2 else 1)
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


def class_action_commutes(key: tuple, weight, images: list[dict]) -> bool:
    """True when t and the maps whose images of the tuple are given (every
    face d_i and B, see ``faces`` and ``connes_B``) send it only to tuples
    of its own weight, so the diagonal action commutes with them (and with
    b) on it."""
    here = weight(key)
    images = images + [{cyclic(key)[0]: 1}]
    return all(weight(other) == here for vec in images for other in vec)


def identity_failures(tuples, wanted: dict, mul, unit, weight=None) -> dict:
    """The first failing tuple of each chain identity, least by (degree,
    tuple), with a detail, keyed by the identity's name.  tuples(p) gives
    the degree-p tuples, closed under rotation, and wanted maps the name of
    each identity to check to its degrees:

    - "precyclic": t^(p+1) = 1, and d_i d_j = d_{j-1} d_i (i < j) from
      degree 2 on, with the detail of ``_precyclic_failure``;
    - "b-squared": b b = 0;
    - "normalized": B B = 0 and bB + Bb = 0 on the normalized tuples;
    - "weight": every face, t and B keep the weight (``class_action_commutes``).

    The other details are None, and an identity that holds has no entry.
    """
    failed: dict = {}
    b = lambda key: boundary(key, mul)
    B = lambda key: connes_B(key, unit)

    def fail(name, key, detail=None):
        if name not in failed or key < failed[name][0]:
            failed[name] = (key, detail)

    for p in sorted(set().union(*wanted.values())):
        # an identity that failed in a lower degree keeps that witness
        todo = {name for name, degrees in wanted.items() if p in degrees and name not in failed}
        precyclic, b_squared = "precyclic" in todo, "b-squared" in todo
        normalized, weighed = "normalized" in todo, "weight" in todo
        for start in tuples(p):
            # walk each orbit from its smallest rotation, which begins with the least entry
            if min(start) < start[0]:
                continue
            orbit = [start[j:] + start[:j] for j in range(p + 1)]
            if min(orbit) < start:
                continue
            b_of: dict = {}  # b of the tuples in this orbit's B-images
            for key in dict.fromkeys(orbit):
                key_faces = faces(key, mul)
                if precyclic:
                    detail = _precyclic_failure(key, key_faces, mul)
                    if detail is not None:
                        fail("precyclic", key, detail)
                if b_squared or normalized:  # b only where it is checked
                    b_image: dict = {}
                    for i, image in enumerate(key_faces):
                        add_into(b_image, image, -1 if i % 2 else None)
                    if b_squared and linear(b, b_image):
                        fail("b-squared", key)
                if normalized or weighed:
                    B_image = connes_B(key, unit)
                if normalized and not is_degenerate(key, unit):
                    for other in B_image.keys() - b_of.keys():
                        b_of[other] = b(other)
                    bB = linear(b_of.__getitem__, B_image)
                    Bb = linear(B, normalize(b_image, unit))
                    if linear(B, B_image) or add_into(normalize(bB, unit), Bb):
                        fail("normalized", key)
                if weighed and not class_action_commutes(key, weight, key_faces + [B_image]):
                    fail("weight", key)
    return failed


def _precyclic_failure(key: tuple, key_faces: list[dict], mul) -> tuple | None:
    """t^(p+1) = 1 and, for p >= 2, d_i d_j = d_{j-1} d_i (i < j) on one
    tuple of degree p, given its faces: None when both hold, () when
    t^(p+1) = 1 fails, and otherwise (i, j) for the first failing face identity."""
    p = len(key) - 1
    current, sign = key, 1
    for _ in range(p + 1):
        current, step = cyclic(current)
        sign *= step
    if (current, sign) != (key, 1):
        return ()
    for j in range(1, p + 1) if p >= 2 else ():  # in degree 1 a face lands in degree 0
        for i in range(j):
            left = linear(lambda x: face(x, i, mul), key_faces[j])
            right = linear(lambda x: face(x, j - 1, mul), key_faces[i])
            if left != right:
                return (i, j)
    return None
