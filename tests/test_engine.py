"""The structure-constants homology engine on the toy algebra zoo."""

import json
from fractions import Fraction

import pytest

from heckehom import engine as eg
from heckehom.linalg import QuotientSpace, kernel_vectors, span_basis


def test_load_validates_examples():
    assert eg.load_algebra(eg.ground_field()).dim == 1
    assert eg.load_algebra(eg.dual_numbers()).dim == 2
    bad = eg.AlgebraSpec(
        name="bad",
        dim=3,
        products={
            (0, 0): {0: Fraction(1)},
            (0, 1): {1: Fraction(1)},
            (1, 0): {1: Fraction(1)},
            (0, 2): {2: Fraction(1)},
            (2, 0): {2: Fraction(1)},
            (1, 1): {2: Fraction(1)},
            (1, 2): {0: Fraction(1)},
        },
        unit={0: Fraction(1)},
    )
    with pytest.raises(eg.NotAssociative) as err:
        eg.load_algebra(bad)
    assert err.value.witness == (1, 1, 1)
    with pytest.raises(eg.NoUnit):
        eg.load_algebra(
            eg.AlgebraSpec(name="nounit", dim=1, products={(0, 0): {0: Fraction(1)}}, unit=None)
        )


def test_group_algebra_examples():
    assert eg.group_algebra(1).dim == 1
    two = eg.group_algebra(2)
    assert two.product_vec(1, 1) == {0: Fraction(1)}
    assert eg.group_algebra(3).dim == 3
    with pytest.raises(ValueError):
        eg.group_algebra(0)


def test_size_guard():
    with pytest.raises(eg.TooLarge):
        eg.compute_hochschild(eg.group_algebra(6), 6)


def test_precyclic_identities():
    for spec in (eg.dual_numbers(), eg.group_algebra(2), eg.upper_triangular_2()):
        stack = eg.ChainStack(spec, 3)
        stack.verify_structure_identities()


def test_mixed_complex_identities():
    stack = eg.ChainStack(eg.dual_numbers(), 4)
    for p in range(2, 4):
        for index in range(stack.dim_chain(p)):
            assert not stack.apply_linear(
                lambda x: stack.boundary(p - 1, x), stack.boundary(p, index)
            )
    for p in range(0, 3):
        for index in range(stack.dim_chain(p)):
            assert not stack.apply_linear(
                lambda x: stack.connes_B(p + 1, x), stack.connes_B(p, index)
            )
    for p in range(1, 3):
        for index in range(stack.dim_chain(p)):
            anti = stack.apply_linear(
                lambda x: stack.boundary(p + 1, x), stack.connes_B(p, index)
            )
            for key, coeff in stack.apply_linear(
                lambda x: stack.connes_B(p - 1, x), stack.boundary(p, index)
            ).items():
                value = anti.get(key, 0) + coeff
                if value:
                    anti[key] = value
                else:
                    anti.pop(key, None)
            assert not anti


def test_hochschild_dimensions():
    assert eg.compute_hochschild(eg.ground_field(), 4).hh_dims == [1, 0, 0, 0, 0]
    assert eg.compute_hochschild(eg.group_algebra(2), 3).hh_dims == [2, 0, 0, 0]
    assert eg.compute_hochschild(eg.dual_numbers(), 3).hh_dims == [2, 1, 1, 1]
    assert eg.compute_hochschild(eg.upper_triangular_2(), 3).hh_dims == [2, 0, 0, 0]


def test_cyclic_dimensions_and_degree_zero():
    field = eg.compute_cyclic(eg.ground_field(), 4)
    assert field.hc_dims == [1, 0, 1, 0, 1]
    two = eg.compute_cyclic(eg.group_algebra(2), 4)
    assert two.hc_dims == [2, 0, 2, 0, 2]
    dual = eg.compute_cyclic(eg.dual_numbers(), 4)
    # forced by exactness given the HH dims, with HC_1 = (forms)/(exact) = 0
    assert dual.hc_dims == [2, 0, 2, 0, 2]
    for report in (field, two, dual):
        assert report.hc_dims[0] == report.hh_dims[0]


def test_sbi_exactness():
    report = eg.compute_cyclic(eg.ground_field(), 4)
    nodes = eg.sbi_exactness_check(report)
    assert nodes and all(node.exact for node in nodes)
    assert report.sbi_exact
    # S: HC_2 -> HC_0 is an isomorphism for the ground field
    s_matrix = report.s_maps[2]
    assert eg._mat_rank(s_matrix) == 1 == report.hc_dims[2] == report.hc_dims[0]
    for spec in (eg.group_algebra(3), eg.upper_triangular_2(), eg.dual_numbers()):
        result = eg.compute_cyclic(spec, 3)
        assert all(node.exact for node in eg.sbi_exactness_check(result))


def test_class_function_action():
    spec = eg.group_algebra(2)
    report = eg.compute_cyclic(spec, 3)
    stack = report._stack
    indicator = {0: Fraction(1)}
    action = eg.class_function_action(spec, indicator, stack)
    # F = 1 acts as the identity in every degree
    ones = eg.ClassFunctionAction(spec, {0: Fraction(1), 1: Fraction(1)})
    for p in range(3):
        for index in range(stack.dim_chain(p)):
            assert ones.factor(stack, p, index) == 1
    # degree 1: keeps exactly the tuples (g0, g1) with g0 g1 = e
    kept = [
        index
        for index in range(stack.dim_chain(1))
        if action.factor(stack, 1, index)
    ]
    assert [stack.decode(1, index) for index in kept] == [(0, 0), (1, 1)]
    # idempotence: the action squares to itself pointwise
    for index in range(stack.dim_chain(1)):
        factor = action.factor(stack, 1, index)
        assert factor * factor == factor
    assert action.commutes_with_structure_maps(stack, 2)
    with pytest.raises(ValueError):
        eg.ClassFunctionAction(eg.dual_numbers(), indicator)


def test_idempotent_commutator_square_zero():
    spec = eg.group_algebra(2)
    report = eg.compute_cyclic(spec, 3)
    everything = {0: Fraction(1), 1: Fraction(1)}
    indicator = {0: Fraction(1)}
    assert eg.idempotent_commutator_square_is_zero(report, everything, indicator)
    assert eg.idempotent_commutator_square_is_zero(report, indicator, indicator)


def test_spec_json_round_trip(tmp_path):
    for name, builder in eg.BUILTIN_ALGEBRAS.items():
        spec = builder()
        text = eg.spec_to_json(spec)
        again = eg.spec_from_json(text)
        assert again.dim == spec.dim
        assert again.products == spec.products
        assert again.unit == spec.unit
    path = tmp_path / "field.json"
    path.write_text(eg.spec_to_json(eg.ground_field()))
    assert eg.load_algebra_file(path).dim == 1


def test_shipped_spec_files():
    import importlib.resources as resources

    for name in eg.BUILTIN_ALGEBRAS:
        data = resources.files("heckehom").joinpath(f"algebras/{name}.json").read_text()
        spec = eg.spec_from_json(data)
        built = eg.BUILTIN_ALGEBRAS[name]()
        assert spec.dim == built.dim and spec.products == built.products
        assert json.loads(data)["name"] == name


def _two_pass_quotients(dims, boundary, cutoff):
    """Reference route: for each degree, a kernel pass for the cycles and a
    second pass over every boundary image, in Fraction arithmetic."""

    def image(p, i):
        return {k: Fraction(c) for k, c in boundary(p, i).items()}

    quotients = []
    for p in range(cutoff + 1):
        if p == 0:
            cycles = [{i: Fraction(1)} for i in range(dims[0])]
        else:
            cycles, _ = kernel_vectors((i, image(p, i)) for i in range(dims[p]))
        boundaries = span_basis(image(p + 1, i) for i in range(dims[p + 1]))
        quotients.append(QuotientSpace(boundaries, cycles))
    return quotients


def _same_columns(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert list(a.items()) == list(b.items())


@pytest.mark.parametrize(
    "name", ["ground_field", "dual_numbers", "cyclic_2", "cyclic_3", "upper_triangular_2"]
)
def test_single_pass_homology_matches_two_pass_oracle(name):
    cutoff = 3
    spec = eg.BUILTIN_ALGEBRAS[name]()
    report = eg.compute_cyclic(spec, cutoff)
    stack = report._stack
    hh_dims = [stack.dim_chain(p) for p in range(cutoff + 2)]
    offsets = [eg._tot_offsets(stack, n) for n in range(cutoff + 2)]
    tot_dims = [eg._tot_dim(stack, offsets[n], n) for n in range(cutoff + 2)]

    def tot_boundary(n, i):
        return eg._tot_boundary(stack, n, offsets[n], offsets[n - 1], i)

    oracle = eg.HomologyReport(algebra=name, cutoff=cutoff, hh_dims=[], _stack=stack)
    oracle._hh = _two_pass_quotients(hh_dims, stack.boundary, cutoff)
    oracle._hc = _two_pass_quotients(tot_dims, tot_boundary, cutoff)
    oracle._tot_offsets = dict(enumerate(offsets[: cutoff + 1]))
    eg._build_sbi_maps(oracle)

    assert [q.dim for q in oracle._hh] == report.hh_dims
    assert [q.dim for q in oracle._hc] == report.hc_dims
    for mine, theirs in zip(report._hh + report._hc, oracle._hh + oracle._hc):
        assert mine.boundary_rank == theirs.boundary_rank
        _same_columns(mine.representatives, theirs.representatives)
    for maps, oracle_maps in (
        (report.i_maps, oracle.i_maps),
        (report.s_maps, oracle.s_maps),
        (report.b_maps, oracle.b_maps),
    ):
        assert maps.keys() == oracle_maps.keys()
        for n in maps:
            _same_columns(maps[n], oracle_maps[n])
