"""Sparse exact elimination: heap-ordered pivots against a rescanning reference."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from heckehom import engine as eg
from heckehom.linalg import GaussianBasis, QuotientSpace, homology, kernel_vectors, span_basis
from heckehom.sparse import add_into, exact_quotient, linear


class RescanBasis:
    """Reference elimination: rescans the residue for its least pivot column
    on every step and normalises every row by exact Fraction division."""

    def __init__(self):
        self._rows = {}

    def reduce(self, vec):
        residue = dict(vec)
        combo = {}
        while True:
            hits = [col for col in residue if col in self._rows]
            if not hits:
                return residue, combo
            col = min(hits)
            coeff = residue.pop(col)
            row, payload = self._rows[col]
            for c, v in row.items():
                if c == col:
                    continue
                new = residue.get(c, 0) - coeff * v
                if new:
                    residue[c] = new
                else:
                    residue.pop(c, None)
            if payload is not None:
                add_into(combo, payload, coeff)

    def insert(self, vec, payload=None):
        residue, combo = self.reduce(vec)
        if payload is None:
            dependency = None
        else:
            dependency = dict(payload)
            add_into(dependency, combo, -1)
        if not residue:
            return None, dependency
        pivot = min(residue)
        lead = Fraction(residue[pivot])
        row = {c: v / lead for c, v in residue.items()}
        stored = None
        if dependency is not None:
            stored = {c: v / lead for c, v in dependency.items()}
        self._rows[pivot] = (row, stored)
        return pivot, None


def _random_matrix(rng, n_rows, n_cols, rational):
    """Sparse rows over columns 0..n_cols-1; about a third are combinations
    of earlier rows, so dependent inserts and cancellations occur."""

    def entry():
        value = rng.choice([-3, -2, -1, 1, 1, 1, 2, 3])
        return Fraction(value, rng.randint(1, 3)) if rational else value

    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            vec = {}
            for _ in range(rng.randint(1, 3)):
                add_into(vec, rng.choice(rows), entry())
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, 6))
            vec = {c: entry() for c in cols}
        rows.append(vec)
    return rows


def _same(left: dict, right: dict) -> bool:
    """Equal values with equal key order."""
    return list(left.items()) == list(right.items())


def _over(vec: dict, divisor) -> dict:
    """vec / divisor, exactly and in key order."""
    return {key: exact_quotient(value, divisor) for key, value in vec.items()}


def _assert_exact(vec: dict):
    for value in vec.values():
        assert type(value) in (int, Fraction), f"{value!r} is a {type(value).__name__}"


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("seed", range(6))
def test_heap_reduce_matches_rescanning_reference(seed, rational):
    """The fraction-free basis agrees with the monic reference up to scalars:
    residue and combo over the scale, rows and payloads over the row's lead,
    and dependencies up to a positive factor."""
    rng = random.Random(1000 * seed + rational)
    basis, reference = GaussianBasis(), RescanBasis()

    def assert_reduce_matches(vec):
        residue, combo, scale = basis.reduce(vec)
        ref_residue, ref_combo = reference.reduce(vec)
        assert type(scale) is int and scale > 0
        assert _same(_over(residue, scale), ref_residue)
        assert _same(_over(combo, scale), ref_combo)

    for idx, vec in enumerate(_random_matrix(rng, 40, 24, rational)):
        assert_reduce_matches(vec)
        pivot, dependency = basis.insert(vec, payload={idx: 1})
        ref_pivot, ref_dependency = reference.insert(vec, payload={idx: 1})
        assert pivot == ref_pivot
        assert (dependency is None) == (ref_dependency is None)
        if dependency:
            first = next(iter(ref_dependency))
            factor = exact_quotient(dependency[first], ref_dependency[first])
            assert factor > 0 and _same(_over(dependency, factor), ref_dependency)
        elif dependency is not None:
            assert not ref_dependency
    assert list(basis.pivots) == list(reference._rows)
    for pivot, (ref_row, ref_payload) in reference._rows.items():
        row, payload = basis.row(pivot)
        lead = row[pivot]
        assert min(row) == pivot and lead > 0
        assert _same(_over(row, lead), ref_row) and _same(_over(payload, lead), ref_payload)
    for vec in _random_matrix(rng, 20, 30, rational):
        assert_reduce_matches(vec)


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("seed", range(4))
def test_fraction_free_invariants(seed, rational):
    """Stored rows are primitive integer rows with a positive lead, a row and
    its payload have combined content 1, and scale * vec = residue + the
    combination of rows, exactly, where a kernel-pass payload names the row
    as a combination of the inserted vectors."""
    rng = random.Random(50 + 10 * seed + rational)
    vectors = _random_matrix(rng, 40, 24, rational)

    def preimage(payload):
        return linear(vectors.__getitem__, payload)

    basis = GaussianBasis()
    for idx, vec in enumerate(vectors):
        basis.insert(vec, payload={idx: 1})
    for pivot in basis.pivots:
        row, payload = basis.row(pivot)
        entries = [*row.values(), *payload.values()]
        assert all(type(value) is int for value in entries)
        assert row[pivot] > 0 and gcd(*entries) == 1
        assert preimage(payload) == row
    for vec in vectors + _random_matrix(rng, 20, 30, rational):
        residue, combo, scale = basis.reduce(vec)
        assert all(type(value) is int for value in (*residue.values(), *combo.values()))
        assert {key: scale * value for key, value in vec.items()} == add_into(
            dict(residue), preimage(combo)
        )


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_coefficients_are_never_float(rational):
    rng = random.Random(7 + rational)
    vectors = _random_matrix(rng, 50, 20, rational)
    images = list(enumerate(vectors))
    kernel, image = kernel_vectors(images)
    assert kernel
    for vec in kernel:
        _assert_exact(vec)
    for pivot in image.pivots:
        row, payload = image.row(pivot)
        _assert_exact(row)
        _assert_exact(payload)


def test_engine_homology_coefficients_are_exact():
    report = eg.compute_cyclic(eg.builtin_algebra("upper_triangular_2"), 2)
    for quotient in report.hh + report.hc:
        for pivot in quotient._basis.pivots:
            row, payload = quotient._basis.row(pivot)
            _assert_exact(row)
            if payload is not None:
                _assert_exact(payload)
    for maps in (report.i_maps, report.s_maps, report.b_maps):
        for cols in maps.values():
            for col in cols:
                _assert_exact(col)


def test_integer_leads_stay_integral():
    basis = GaussianBasis()
    basis.insert({0: 1, 1: 3})
    basis.insert({1: -1, 2: 4})
    basis.insert({2: 2, 3: 4})
    rows = {pivot: basis.row(pivot)[0] for pivot in basis.pivots}
    assert rows == {0: {0: 1, 1: 3}, 1: {1: 1, 2: -4}, 2: {2: 1, 3: 2}}
    assert all(type(v) is int for row in rows.values() for v in row.values())
    basis.insert({3: 3, 4: 1})
    assert basis.row(3)[0] == {3: 3, 4: 1}


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_kernel_pass_image_equals_boundary_pass(rational):
    """The image basis of a kernel pass is the span basis of the same
    vectors, row for row and in key order, up to each row's positive scalar:
    a row is made primitive together with its payload, the combination of
    the vectors whose image it is."""
    rng = random.Random(31 + rational)
    vectors = _random_matrix(rng, 45, 25, rational)
    _, image = kernel_vectors(enumerate(vectors))
    span = span_basis(vectors)
    assert list(image.pivots) == list(span.pivots)
    for pivot in span.pivots:
        (row, payload), span_row = image.row(pivot), span.row(pivot)[0]
        assert _same(_over(row, row[pivot]), _over(span_row, span_row[pivot]))
        assert linear(vectors.__getitem__, payload) == row


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_insertion_order_changes_no_rank_or_pivot(rational):
    """Under min-column pivoting the pivot set is a function of the row
    space: shuffling the vectors changes neither the rank, nor the pivots,
    nor the number of kernel vectors."""
    rng = random.Random(41 + rational)
    vectors = _random_matrix(rng, 40, 60, rational)
    span = span_basis(vectors)
    kernel, image = kernel_vectors(enumerate(vectors))
    assert set(image.pivots) == set(span.pivots)
    # neither every column nor every vector: the pivot set is a real choice
    assert span.rank < 60 and len(kernel) == len(vectors) - span.rank > 0
    order = list(range(len(vectors)))
    for _ in range(5):
        rng.shuffle(order)
        shuffled = span_basis(vectors[i] for i in order)
        assert shuffled.rank == span.rank
        assert set(shuffled.pivots) == set(span.pivots)
        shuffled_kernel, shuffled_image = kernel_vectors((i, vectors[i]) for i in order)
        assert set(shuffled_image.pivots) == set(span.pivots)
        assert len(shuffled_kernel) == len(kernel)


def test_kernel_vectors_span_the_kernel():
    rng = random.Random(5)
    vectors = _random_matrix(rng, 30, 12, rational=False)
    kernel, _ = kernel_vectors(enumerate(vectors))
    rank = span_basis(vectors).rank
    assert len(kernel) == len(vectors) - rank
    for combo in kernel:
        total = {}
        for idx, coeff in combo.items():
            add_into(total, vectors[idx], coeff)
        assert not total


def test_torus_coefficients_are_never_float():
    """The torus maps on chain and form dicts, and the torus sector rows, follow
    sparse.exact: integer chains stay integral except for the 1/p! of HKR, a
    Fraction chain gives the exact rational multiple of the integer image, and
    the HKR/B constant is exact."""
    from heckehom import hochschild as hh
    from heckehom import torus as tr

    maps = (
        lambda vec: linear(tr.boundary_key, vec),
        lambda vec: linear(tr.connes_b_key, vec),
        lambda vec: {hh.cyclic(key)[0]: hh.cyclic(key)[1] * c for key, c in vec.items()},
        lambda vec: hh.class_action(vec, tr._compact),
        lambda vec: tr.hkr(vec, 2),
        lambda vec: tr.de_rham_d(tr.hkr(vec, 2)),
        lambda vec: tr.pi0(tr.hkr(vec, 2)),
    )
    for degree in (1, 2):
        for key in tr.windowed_keys(2, degree, 1):
            for op in maps:
                image = op({key: 3})
                _assert_integer_first(image)
                halved = op({key: Fraction(1, 2)})
                _assert_exact(halved)
                assert halved == {k: exact_quotient(c, 6) for k, c in image.items()}
    for degree in (1, 2):
        keys = tr.sector_keys(2, degree, 1)
        cycles, _ = kernel_vectors((key, tr.boundary_key(key)) for key in keys)
        for vec in cycles:
            _assert_exact(vec)
    for quotient in tr._invariant_sector_dims(2, 1, 2):
        for pivot in quotient._basis.pivots:
            row, payload = quotient._basis.row(pivot)
            _assert_exact(row)
            if payload is not None:
                _assert_exact(payload)
    _, consistent, constant, _ = tr.homology_square_check(2, 1, 1)
    assert consistent
    _assert_integer_first({"c_p": constant})


def _scalars(value):
    """Every scalar coefficient inside an element or a dict of them."""
    from heckehom.sparse import Sparse

    if isinstance(value, (Sparse, dict)):
        for coeff in (value.terms if isinstance(value, Sparse) else value).values():
            yield from _scalars(coeff)
    else:
        yield value


def _assert_integer_first(value):
    """Coefficients follow sparse.exact: an int, or a Fraction that is not integral."""
    for c in _scalars(value):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_hecke_side_coefficients_are_integer_first():
    """Integer inputs keep the Hecke side in ints through every division: the
    inverse, exact division, negative powers, the trace reduction, the spectral
    maps and the character oracle over Z[q, q^-1]."""
    from heckehom import spectral as sp
    from heckehom.hecke import basis, t_inverse, t_mul
    from heckehom.hh0 import reduce_to_hh0
    from heckehom.hh0_oracle import TruncatedTraceOracle
    from heckehom.laurent import Q, LaurentQ, qpow
    from heckehom.weyl import all_words, st_power

    words = list(all_words(5))
    for x in words:
        _assert_integer_first(t_inverse(x))
        for y in words:
            product = t_mul(basis(x), basis(y))
            _assert_integer_first(product)
            _assert_integer_first(reduce_to_hh0(product))
    for num, den in [((Q - 1) ** 2, Q * (Q - 1)), (2 * Q**2 - 2, 2 * Q + 2), (Q + 1, 2 * Q),
                     (3 * Q**3 - 3, LaurentQ({0: 3}))]:
        _assert_integer_first(num.divide_exact(den))
    for unit in (qpow(3), 2 * qpow(-1), LaurentQ({2: Fraction(1, 2)}), LaurentQ({1: -1})):
        _assert_integer_first(unit**-1)
        _assert_integer_first(unit**-2)
    for n in range(-4, 5):
        lam = sp.LambdaElement({n: Q - 1})
        for value in (sp.pind_map(lam), sp.opind_map(lam), sp.one_mc(lam), sp.chi_m(lam)):
            _assert_integer_first(value)
    for n in range(6):
        _assert_integer_first(sp.pres_map(sp.HH0Class({n: 1})))
        _assert_integer_first(sp.commutator_direct(n))
        _assert_integer_first(sp.commutator_closed_form(n))
        _assert_integer_first(reduce_to_hh0(basis(st_power(n))))
    oracle = TruncatedTraceOracle(cutoff=4)
    for word in all_words(4):
        _assert_integer_first(oracle.class_of_word(word))


@pytest.mark.parametrize("name", eg.BUILTIN_ALGEBRAS)
def test_quotient_coords_of_representatives(name):
    """coords is the one division: each representative has coordinates
    {i: 1}, half of it {i: 1/2}, and every S/B/I matrix entry follows
    sparse.exact."""
    report = eg.compute_cyclic(eg.builtin_algebra(name), 3)
    for quotient in report.hh + report.hc:
        for index, rep in enumerate(quotient.representatives):
            coords = quotient.coords(rep)
            assert coords == {index: 1} and type(coords[index]) is int
            assert quotient.coords(_over(rep, 2)) == {index: Fraction(1, 2)}
    for maps in (report.i_maps, report.s_maps, report.b_maps):
        for cols in maps.values():
            for col in cols:
                _assert_integer_first(col)


def test_quotient_representatives_are_the_cycles_as_given():
    """A cycle that is not primitive stays the representative, and coords
    are in it: half of it has coordinate 1/2."""
    cycle = {0: 4, 1: 2}
    space = QuotientSpace(GaussianBasis(), [cycle, {0: 2, 1: 1}, {1: 1, 2: 3}])
    assert space.representatives == [{0: 4, 1: 2}, {1: 1, 2: 3}]
    assert space.representatives[0] is cycle
    assert space.coords({0: 2, 1: 1}) == {0: Fraction(1, 2)}
    assert space.coords({0: 4, 1: 3, 2: 3}) == {0: 1, 1: 1}


def _triangle_boundary(cell):
    return {cell[1]: 1, cell[0]: -1} if len(cell) == 2 else {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_is_boundary():
    """True on a boundary, False on a cycle that is not one and on a chain
    that is not a cycle, where coords raises."""
    edges = [(0, 1), (1, 2), (0, 2)]
    h0, h1 = homology([[0, 1, 2], edges, [(0, 1, 2)]], _triangle_boundary)
    assert h0.is_boundary({1: 1, 0: -1}) and not h0.is_boundary({0: 1})
    rim = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    assert h1.is_boundary(rim) and h1.is_boundary(_over(rim, 2))
    hollow = homology([[0, 1, 2], edges, []], _triangle_boundary)[1]
    assert hollow.coords(rim) and not hollow.is_boundary(rim)
    assert not h1.is_boundary({(0, 1): 1})
    with pytest.raises(ValueError):
        h1.coords({(0, 1): 1})


def test_preimage_reads_the_payloads_of_a_kernel_pass():
    """b(preimage(v)) = v on every boundary below the top, and coords and
    is_boundary still read the representatives only; boundary rows without
    payloads, as those of a top pass, give no preimage."""
    edges = [(0, 1), (1, 2), (0, 2)]
    bases = [[0, 1, 2], edges, [(0, 1, 2)], []]
    h0, h1, h2 = homology(bases, _triangle_boundary)
    rim = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    assert h1.preimage(rim) == {(0, 1, 2): 1}
    assert h1.preimage(_over(rim, 2)) == {(0, 1, 2): Fraction(1, 2)}
    assert linear(_triangle_boundary, h0.preimage({2: 1, 0: -1})) == {2: 1, 0: -1}
    assert h1.is_boundary(rim) and h1.coords(rim) == {} and h1.dim == 0
    assert h0.coords({2: 1, 0: -1}) == {} and h0.dim == 1
    assert h2.preimage({}) == {}
    with pytest.raises(ValueError):
        h1.preimage({(0, 1): 1})  # not a boundary
    top = homology(bases[:3], _triangle_boundary)[1]
    assert top.is_boundary(rim)
    with pytest.raises(ValueError):
        top.preimage(rim)


def _square_zero_spec(coeff: str) -> str:
    """Q[x]/(x^3) on the basis 1, x, y with x * x = coeff * y."""
    products = [{"i": 0, "j": j, "coeffs": ["1" if k == j else "0" for k in range(3)]}
                for j in range(3)]
    products += [{"i": i, "j": 0, "coeffs": ["1" if k == i else "0" for k in range(3)]}
                 for i in (1, 2)]
    products.append({"i": 1, "j": 1, "coeffs": ["0", "0", coeff]})
    name = "square_" + coeff.replace("/", "_over_")  # a spec name has no "/"
    return json.dumps({"name": name, "dim": 3, "unit": ["1", "0", "0"], "products": products})


def test_rational_structure_constant_matches_integer_rescaling():
    """x * x = 3/2 y and, for 2x in place of x, x * x = 6 y are one algebra."""
    rational = eg.compute_cyclic(eg.spec_from_json(_square_zero_spec("3/2")), 3)
    integral = eg.compute_cyclic(eg.spec_from_json(_square_zero_spec("6")), 3)
    assert rational.hh_dims == integral.hh_dims
    assert rational.hc_dims == integral.hc_dims
    assert sum(rational.hh_dims) > 4
