"""Lattice Hochschild chains, the forms picture, and windowed homology, on
tuple dicts over the int labels of lattice vectors."""

from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, strategies as st

from heckehom import hochschild as hh
from heckehom import torus as tr
from heckehom.linalg import homology, intersect_with_columns, span_basis
from heckehom.sparse import add_into, linear
from heckehom.suites import ConfigError, SuiteConfig

BOX = 2**15  # the encoding is exact on |v_i| < BOX


def _key(*vectors):
    """A tuple of lattice vectors as the tuple of their labels."""
    return tuple(map(tr.encode, vectors))


def _chain(vec):
    """A chain over tuples of lattice vectors, moved onto labels."""
    return {_key(*vectors): c for vectors, c in vec.items()}


def b(vec):
    return linear(tr.boundary_key, vec)


def B(vec):
    return linear(tr.connes_b_key, vec)


def t(vec):
    out = {}
    for key, c in vec.items():
        rotated, sign = hh.cyclic(key)
        out[rotated] = sign * c
    return out


def compact(vec):
    return hh.class_action(vec, tr._compact)


_PAIRS = st.integers(1, 4).flatmap(
    lambda rank: st.tuples(*[st.tuples(*[st.integers(1 - BOX, BOX - 1)] * rank)] * 2)
)


@given(_PAIRS)
def test_decode_inverts_encode(pair):
    for vector in pair:
        assert tr.decode(tr.encode(vector), len(vector)) == vector


@given(_PAIRS)
def test_label_order_is_lexicographic_vector_order(pair):
    u, v = pair
    assert (tr.encode(u) < tr.encode(v)) == (u < v)
    near = u[:-1] + v[-1:]  # agrees with u but in the last coordinate
    assert (tr.encode(u) < tr.encode(near)) == (u < near)


@given(_PAIRS)
def test_labels_add_as_vectors_inside_the_box(pair):
    u, v = pair
    total = tuple(map(add, u, v))
    assume(all(abs(x) < BOX for x in total))
    assert tr.encode(u) + tr.encode(v) == tr.encode(total)
    assert tr.decode(tr.encode(u) + tr.encode(v), len(total)) == total


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_window_labels_increase_in_vector_order(rank):
    labels = tr.window_labels(rank, 2)
    assert labels == sorted(set(labels))
    assert [tr.decode(label, rank) for label in labels] == sorted(
        tr.decode(label, rank) for label in labels
    )


def test_every_admitted_plan_stays_inside_the_encoding_box():
    """The largest coordinate any torus plan admits can form, from the caps
    that ``SuiteConfig.torus_plan`` applies (_TORUS_SWEEP_CAP to the sweep,
    _TORUS_SQUARE_CAP to the square side) and the planning rules alone, with
    no check run.  Every label a check forms is a sum of entries of one
    enumerated tuple, each coordinate at most its window.  The sweep forms b
    and B of its tuples of degree max(swept); the square side enumerates
    sector tuples up to degree top + 1, top as in ``suite_torus`` (the square
    degrees and p + 1 for each SBI degree p <= 1), whose prefix sums
    ``sector_keys`` forms, and windowed tuples of lower degree.  A plan is
    refused from the first window where it fits no square degree, since the
    square cap only tightens as the window grows.  The largest is 998, at
    rank 1, window 499."""
    largest, rank = 0, 1
    while True:
        try:
            SuiteConfig(torus_ranks=(rank,), torus_window=1).torus_plan
        except ConfigError:
            break  # no sweep within _TORUS_SWEEP_CAP from this rank on
        window = 1
        while True:
            try:
                sweep_window, swept, wanted = SuiteConfig(
                    torus_ranks=(rank,), torus_window=window
                ).torus_plan[rank]
            except ConfigError:
                break
            largest = max(largest, (max(swept) + 1) * sweep_window)
            top = max(wanted + [p + 1 for p in wanted if p <= 1])
            largest = max(largest, (top + 1) * window)
            window += 1
        rank += 1
    assert rank == 5  # ranks 1 to 4 are admitted
    assert largest < BOX


def test_boundary_examples():
    assert b(_chain({((2,), (3,)): 1})) == {}  # commutativity of the lattice
    assert tr.boundary_key(_key((1,), (2,), (4,))) == _chain(
        {((3,), (4,)): 1, ((1,), (6,)): -1, ((5,), (2,)): 1}
    )
    assert tr.boundary_key(_key((1,))) == {}  # zero in degree 0


def test_cyclic_t_examples():
    assert t(_chain({((1,), (2,)): 1})) == _chain({((2,), (1,)): -1})
    point = _chain({((5,),): 1})
    assert t(point) == point
    value = _chain({((1, 0), (0, 1), (2, 2)): 1})
    rotated = value
    for _ in range(3):
        rotated = t(rotated)
    assert rotated == value  # t^(p+1) = 1


def test_connes_B_examples():
    point = _chain({((3,),): 1})
    assert B(point) == _chain({((0,), (3,)): 1})
    assert tr.connes_b_key(_key((0,))) == {}
    assert B(B(point)) == {}
    assert B({}) == {}


def test_hkr_examples():
    assert tr.hkr(_chain({((2,), (3,)): 1}), 1) == {((5,), (0,)): 3}
    assert tr.hkr(_chain({((4,),): 1}), 1) == {((4,), ()): 1}
    symmetrized = _chain({((2,), (3,)): 1, ((3,), (2,)): 1})
    assert tr.hkr(symmetrized, 1) == {((5,), (0,)): 5}
    assert tr.hkr(_chain({((1, 0), (0, 1), (1, 1)): 1}), 2) == {((2, 2), (0, 1)): Fraction(-1, 2)}
    assert tr.hkr(_chain({((1,), (1,), (1,)): 1}), 1) == {}  # degree above the rank


def test_pi0_examples():
    assert tr.pi0({((3,), (0,)): 1}) == {}
    invariant = {((0, 0), (0, 1)): 5}
    assert tr.pi0(invariant) == invariant
    assert tr.pi0({}) == {}


def test_class_action_examples():
    keep = _chain({((1,), (-1,)): 1})
    assert compact(keep) == keep
    assert compact(_chain({((1,), (1,)): 1})) == {}
    assert compact({}) == {}


def test_de_rham_examples():
    form = tr.hkr(_chain({((3,),): 1}), 1)
    assert tr.de_rham_d(form) == {((3,), (0,)): 3}
    two_var = {((1, 2), ()): 1}
    assert tr.de_rham_d(two_var) == {((1, 2), (0,)): 1, ((1, 2), (1,)): 2}
    assert tr.de_rham_d(tr.de_rham_d(two_var)) == {}
    invariant = {((0, 0), (1,)): 7}
    assert tr.de_rham_d(invariant) == {}


def test_chain_identities_windowed():
    for rank, window in ((1, 2), (2, 1)):
        unit = tr.encode((0,) * rank)
        for degree in range(rank + 2):
            for key in tr.windowed_keys(rank, degree, window):
                value = {key: 1}
                assert b(b(value)) == {}
                if hh.is_degenerate(key, unit):
                    continue
                assert B(B(value)) == {}
                left = hh.normalize(b(B(value)), unit)
                right = B(hh.normalize(b(value), unit))
                assert add_into(left, right) == {}


@pytest.mark.parametrize("rank, window", [(1, 2), (2, 1)])
def test_chain_identity_sweep_takes_every_windowed_tuple_once(monkeypatch, rank, window):
    """The orbit walk forms B once on each windowed tuple of every degree
    0..rank+1: the other calls of B are on tuples one degree up or down."""
    connes_B = hh.connes_B
    for degree in range(rank + 2):
        seen = []

        def counting(key, unit, out=None, coeff=1):
            if len(key) == degree + 1:
                seen.append(key)
            return connes_B(key, unit, out, coeff)

        monkeypatch.setattr(hh, "connes_B", counting)
        names = ("b-squared", "normalized-identities", "class-action-commutes")
        wanted = dict.fromkeys(names, [degree])
        assert tr.chain_identity_failures(rank, window, wanted) == {}
        assert Counter(seen) == Counter(tr.windowed_keys(rank, degree, window))
        assert set(Counter(seen).values()) == {1}


def test_rank_three_weight_witness_is_decoded_across_a_borrow(monkeypatch):
    """Negative control at rank 3: the weight flipped on ((1, -1, 0), (0, 1, 1)),
    which is not the smallest rotation of its orbit.  The least failing tuple
    is that rotation, whose label 2^32 - 2^16 for (1, -1, 0) decodes only
    through the borrow of its negative middle digit."""
    target, compact = _key((1, -1, 0), (0, 1, 1)), tr._compact
    assert tr.encode((1, -1, 0)) == 2**32 - 2**16
    flipped = lambda key: 1 - compact(key) if key == target else compact(key)
    monkeypatch.setattr(tr, "_compact", flipped)
    names = ("b-squared", "normalized-identities", "class-action-commutes")
    failed = tr.chain_identity_failures(3, 1, dict.fromkeys(names, [0, 1]))
    assert failed == {"class-action-commutes": "((0, 1, 1), (1, -1, 0))"}


def test_class_action_commutes_with_structure_maps():
    for key in tr.windowed_keys(1, 2, 1):
        value = {key: 1}
        assert compact(b(value)) == b(compact(value))
        assert compact(t(value)) == t(compact(value))
        assert compact(B(value)) == B(compact(value))


def _square(rank, window, degree):
    """The findings of the square check, (square commutes, c consistent, c,
    pi0 witness), with H_degree of its own homology ladder."""
    quotient = tr._invariant_sector_dims(rank, window, degree)[degree]
    return tr.homology_square_check(rank, window, degree), quotient


def _sbi(rank, window, degree):
    """The SBI check on H_degree and H_{degree+1} of its own homology ladder."""
    ladder = tr._invariant_sector_dims(rank, window, degree + 1)
    return tr.compact_part_of_b_image_is_boundary(ladder[degree], ladder[degree + 1])


def test_square_check_rank_one():
    for degree, expected in ((0, 1), (1, 1)):
        (commutes, consistent, _, _), quotient = _square(1, 2, degree)
        assert commutes and consistent
        assert quotient.dim == expected
    (_, _, constant, _), _ = _square(1, 2, 0)
    assert constant == Fraction(1)


def test_square_check_rank_two_window_one():
    (commutes, consistent, constant, _), quotient = _square(2, 1, 1)
    assert commutes and consistent
    assert quotient.dim == 2
    assert constant == Fraction(1)


def test_square_check_rank_three_window_one():
    for degree, expected in ((0, 1), (1, 3)):
        (commutes, consistent, constant, _), quotient = _square(3, 1, degree)
        assert commutes and consistent
        assert quotient.dim == expected
        assert constant == Fraction(1)


def test_square_check_can_fail(monkeypatch):
    """Negative control: a compact part that reads only the first entry breaks
    the square on tuples such as ((1,), (-1,))."""
    monkeypatch.setattr(tr, "_compact", lambda key: int(not key[0]))  # the first label is 0
    key = _key((1,), (-1,))
    assert not tr.check_square_on_key(key, tr.hkr({key: 1}, 1))
    commutes, _, _, _ = tr.homology_square_check(1, 1, 1)
    assert not commutes


def test_square_check_validation():
    with pytest.raises(ValueError):
        tr.homology_square_check(1, 2, 2)
    with pytest.raises(ValueError):
        tr.homology_square_check(0, 2, 0)


def test_hkr_b_constant_is_one_where_defined():
    # hand computation: with the 1/p! normalization both sides agree exactly
    for rank, degree in ((1, 0), (2, 0), (2, 1)):
        _, consistent, constant, _ = tr.homology_square_check(rank, 2, degree)
        assert consistent
        assert constant == Fraction(1)
    _, consistent, constant, _ = tr.homology_square_check(1, 2, 1)
    assert consistent and constant is None  # vacuous at degree = rank


def test_hkr_b_constant_fails_on_two_ratios_or_extra_support():
    form = {((1,), ()): 1}  # hkr of ((1,),), with d(form) = {((1,), (0,)): 1}
    ratios = set()
    assert tr.measure_hkr_b_constant(ratios, {((1,), (0,)): 2}, form) and ratios == {2}
    assert not tr.measure_hkr_b_constant(ratios, {((1,), (0,)): 3}, form)
    assert not tr.measure_hkr_b_constant(set(), {((2,), (0,)): 1}, form)


def test_compact_part_of_b_image_bounds():
    assert _sbi(1, 2, 0)
    assert _sbi(1, 2, 1)
    assert _sbi(2, 2, 0)


def test_normalize_chain():
    mixed = _chain({((0,), (1,)): 1, ((1,), (0,)): 1})
    assert hh.normalize(mixed, tr.encode((0,))) == _chain({((0,), (1,)): 1})


def test_suite_torus_eliminates_each_sector_degree_once_per_rank(monkeypatch):
    # verify torus --window 1: one homology ladder per rank, in which every
    # sector source of degrees 1 to top + 1 is taken once, and no boundary
    # is formed outside a ladder
    from heckehom.suites import SuiteConfig, suite_torus

    calls, seen, outside, running = [], [], [], []
    homology, boundary_key = tr.homology, tr.boundary_key

    def counting_homology(bases, boundary, closed=True):
        calls.append(len(bases) - 2)
        seen.clear()
        running.append(True)
        quotients = homology(bases, boundary, closed)
        running.pop()
        # labels carry no rank: the sources of exactly one of ranks 1 and 2
        # are taken, those of the rank of this call, in --rank order
        sources = lambda rank: sorted(
            key for p in range(1, len(bases)) for key in tr.sector_keys(rank, p, 1)
        )
        ranks = {rank for rank in (1, 2) if sorted(seen) == sources(rank)}
        assert len(ranks) == 1
        rank = ranks.pop()
        assert rank == len(calls)
        assert sorted(seen) == sources(rank)
        return quotients

    def counting_boundary(key):
        (seen if running else outside).append(key)
        return boundary_key(key)

    monkeypatch.setattr(tr, "homology", counting_homology)
    monkeypatch.setattr(tr, "boundary_key", counting_boundary)
    assert suite_torus(SuiteConfig(torus_window=1)).passed
    assert calls == [2, 2]  # ranks 1 and 2, up to H_2
    assert outside == []


def test_open_sector_needs_the_full_top_pass():
    """Negative control for closed=False: the b-images of the windowed
    sector leave the window, so stopping the top pass once its rank reaches
    the number of cycles leaves H_2 far too large."""
    bases = lambda: [tr.sector_keys(2, p, 1) for p in range(4)]
    closed = homology(bases(), tr.boundary_key)
    assert [q.dim for q in closed] == [1, 2, 20]
    assert [q.dim for q in homology(bases(), tr.boundary_key, closed=False)] == [1, 2, 1]
    assert [q.dim for q in tr._invariant_sector_dims(2, 1, 2)] == [1, 2, 1]


@pytest.mark.parametrize("rank", [1, 2])
def test_sbi_instance_can_fail(monkeypatch, rank):
    """Negative control: a Connes operator with one term doubled sends a
    windowed cycle to a chain that is not a boundary (not even a cycle), and
    the check says so instead of raising."""
    connes_B = hh.connes_B

    def doubled(key, unit):
        image = dict(connes_B(key, unit))
        if image:
            first = next(iter(image))
            image[first] *= 2
        return image

    assert _sbi(rank, 1, 1)
    monkeypatch.setattr(hh, "connes_B", doubled)
    assert not _sbi(rank, 1, 1)


@pytest.mark.parametrize("rank, degree, window", [(1, 0, 2), (1, 1, 2), (2, 1, 2), (2, 2, 1)])
def test_dim_boundaries_is_the_rank_of_the_boundaries_inside_the_window(rank, degree, window):
    # oracle: the rank of the boundary span cut to the window
    source = tr.sector_keys(rank, degree + 1, window)
    images = [tr.boundary_key(key) for key in source]
    inside = lambda key: all(
        -window <= x <= window for label in key for x in tr.decode(label, rank)
    )
    windowed = span_basis(intersect_with_columns(images, inside)).rank
    _, quotient = _square(rank, window, degree)
    assert quotient.dim_cycles - quotient.dim == windowed
    if degree >= 2:
        # a face of a zero-total source of degree 3 or more can leave the
        # window, so there the cut is not a no-op
        assert span_basis(images).rank > windowed
