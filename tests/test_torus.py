"""Lattice Hochschild chains, the forms picture, and windowed homology."""

from fractions import Fraction

import pytest

from heckehom.laurent import MultiLaurent
from heckehom import torus as tr


def chain(rank, terms):
    degree = len(next(iter(terms))) - 1
    return tr.LatticeChain(rank, degree, terms)


def test_boundary_examples():
    pair = chain(1, {((2,), (3,)): 1})
    assert tr.hochschild_b(pair).is_zero  # commutativity of the lattice
    triple = chain(1, {((1,), (2,), (4,)): 1})
    expected = chain(
        1, {((3,), (4,)): 1, ((1,), (6,)): -1, ((5,), (2,)): 1}
    )
    assert tr.hochschild_b(triple) == expected
    with pytest.raises(ValueError):
        tr.hochschild_b(tr.LatticeChain(1, 0, {((1,),): 1}))


def test_cyclic_t_examples():
    pair = chain(1, {((1,), (2,)): 1})
    assert tr.cyclic_t(pair) == chain(1, {((2,), (1,)): -1})
    point = chain(1, {((5,),): 1})
    assert tr.cyclic_t(point) == point
    value = chain(2, {((1, 0), (0, 1), (2, 2)): 1})
    rotated = value
    for _ in range(3):
        rotated = tr.cyclic_t(rotated)
    assert rotated == value  # t^(p+1) = 1


def test_connes_B_examples():
    point = chain(1, {((3,),): 1})
    assert tr.connes_B(point) == chain(1, {((0,), (3,)): 1})
    assert tr.connes_B(chain(1, {((0,),): 1})).is_zero
    assert tr.connes_B(tr.connes_B(point)).is_zero
    assert tr.connes_B(tr.LatticeChain(1, 0)).is_zero


def test_hkr_examples():
    pair = chain(1, {((2,), (3,)): 1})
    assert tr.hkr(pair) == tr.TorusForm(1, 1, {((5,), (0,)): 3})
    point = chain(1, {((4,),): 1})
    assert tr.hkr(point) == tr.TorusForm(1, 0, {((4,), ()): 1})
    symmetrized = chain(1, {((2,), (3,)): 1, ((3,), (2,)): 1})
    assert tr.hkr(symmetrized) == tr.TorusForm(1, 1, {((5,), (0,)): 5})


def test_pi0_examples():
    form = tr.TorusForm(1, 1, {((3,), (0,)): 1})
    assert tr.pi0(form).is_zero
    invariant = tr.TorusForm(2, 2, {((0, 0), (0, 1)): 5})
    assert tr.pi0(invariant) == invariant
    assert tr.pi0(tr.TorusForm(1, 0)).is_zero


def test_class_action_examples():
    keep = chain(1, {((1,), (-1,)): 1})
    assert tr.class_action(keep) == keep
    drop = chain(1, {((1,), (1,)): 1})
    assert tr.class_action(drop).is_zero
    assert tr.class_action(tr.LatticeChain(1, 1)).is_zero


def test_de_rham_examples():
    form = tr.hkr(chain(1, {((3,),): 1}))
    assert tr.de_rham_d(form) == tr.TorusForm(1, 1, {((3,), (0,)): 3})
    two_var = tr.TorusForm(2, 0, {((1, 2), ()): 1})
    dd = tr.de_rham_d(tr.de_rham_d(two_var))
    assert dd.is_zero
    invariant = tr.TorusForm(2, 1, {((0, 0), (1,)): 7})
    assert tr.de_rham_d(invariant).is_zero


def test_chain_identities_windowed():
    for rank, window in ((1, 2), (2, 1)):
        for degree in range(rank + 2):
            for key in tr.windowed_keys(rank, degree, window):
                value = tr.LatticeChain.from_key(rank, key)
                if degree >= 2:
                    assert tr.hochschild_b(tr.hochschild_b(value)).is_zero
                if tr._is_degenerate(key):
                    continue
                assert tr.connes_B(tr.connes_B(value)).is_zero
                left = tr.normalize_chain(tr.hochschild_b(tr.connes_B(value)))
                right = (
                    tr.connes_B(tr.normalize_chain(tr.hochschild_b(value)))
                    if degree >= 1
                    else tr.LatticeChain(rank, 0)
                )
                assert (left + right).is_zero


def test_class_action_commutes_with_structure_maps():
    for key in tr.windowed_keys(1, 2, 1):
        value = tr.LatticeChain.from_key(1, key)
        assert tr.class_action(tr.hochschild_b(value)) == tr.hochschild_b(tr.class_action(value))
        assert tr.class_action(tr.cyclic_t(value)) == tr.cyclic_t(tr.class_action(value))
        assert tr.class_action(tr.connes_B(value)) == tr.connes_B(tr.class_action(value))


def test_square_check_rank_one():
    for degree, expected in ((0, 1), (1, 1)):
        report = tr.homology_square_check(1, 2, degree)
        assert report.passed and report.square_commutes
        assert report.dim_invariant == expected
    zero_degree = tr.homology_square_check(1, 2, 0)
    assert zero_degree.hkr_b_constant == Fraction(1)


def test_square_check_rank_two_window_one():
    report = tr.homology_square_check(2, 1, 1)
    assert report.passed
    assert report.dim_invariant == 2
    assert report.hkr_b_constant == Fraction(1)


def test_square_check_rank_three_window_one():
    for degree, expected in ((0, 1), (1, 3)):
        report = tr.homology_square_check(3, 1, degree)
        assert report.passed
        assert report.dim_invariant == expected
        assert report.hkr_b_constant == Fraction(1)


def test_square_check_validation():
    with pytest.raises(ValueError):
        tr.homology_square_check(1, 2, 2)
    with pytest.raises(ValueError):
        tr.homology_square_check(0, 2, 0)


def test_hkr_b_constant_is_one_where_defined():
    # hand computation: with the 1/p! normalization both sides agree exactly
    for rank, degree in ((1, 0), (2, 0), (2, 1)):
        constant, consistent = tr.measure_hkr_b_constant(rank, degree, 2)
        assert consistent
        assert constant == Fraction(1)
    constant, consistent = tr.measure_hkr_b_constant(1, 1, 2)
    assert consistent and constant is None  # vacuous at degree = rank


def test_compact_part_of_b_image_bounds():
    assert tr.compact_part_of_b_image_is_boundary(1, 0, 2)
    assert tr.compact_part_of_b_image_is_boundary(1, 1, 2)
    assert tr.compact_part_of_b_image_is_boundary(2, 0, 2)


def test_chain_from_multilaurent_tensors():
    x = MultiLaurent(1, {(1,): 1, (-1,): 1})
    y = MultiLaurent.monomial(1, (2,), Fraction(1, 2))
    built = tr.LatticeChain.from_tensors([x, y])
    assert built == tr.LatticeChain(
        1, 1, {((1,), (2,)): Fraction(1, 2), ((-1,), (2,)): Fraction(1, 2)}
    )


def test_normalize_chain():
    mixed = tr.LatticeChain(1, 1, {((0,), (1,)): 1, ((1,), (0,)): 1})
    assert tr.normalize_chain(mixed) == tr.LatticeChain(1, 1, {((0,), (1,)): 1})
