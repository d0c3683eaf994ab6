"""The class-function action on tuple keys and its commutation check."""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from heckehom import engine as eg
from heckehom import hochschild as hh
from heckehom import suites
from heckehom import torus as tr
from heckehom.sparse import add_into, add_term


def _lattice_z(form="dict"):
    """Tuples of Z with entries in [-2, 2], degrees 0..2, addition as the
    product in the form asked for, and F(product) for F the indicator of 0."""
    keys = [key for p in range(3) for key in itertools.product(range(-2, 3), repeat=p + 1)]
    mul = hh.LabelProduct(operator.add) if form == "label" else lambda a, b: {a + b: 1}
    return keys, mul, 0, lambda key: int(sum(key) == 0)


def _cyclic_3(form="dict"):
    """Tuples of Z/3, degrees 0..2, the product in the form asked for, and
    F(product) for F the indicator of e."""
    spec = eg.builtin_algebra("cyclic_3")
    keys = [key for p in range(3) for key in itertools.product(range(3), repeat=p + 1)]
    table = eg.monoid_table(spec)
    mul = hh.LabelProduct(lambda a, b: table[a][b]) if form == "label" else spec.product_vec
    return keys, mul, 0, eg.class_weight(spec, {0: 1})


ALGEBRAS = {"lattice_Z": _lattice_z, "cyclic_3": _cyclic_3}
# the two forms of a product: {label: coeff} dicts, and a ``LabelProduct``
FORMS = ("dict", "label")
# each fixture in each form; the dict form keeps the fixture's name as its id
IN_BOTH_FORMS = [
    pytest.param(name, form, id=name if form == "dict" else f"{name}-{form}")
    for name in ALGEBRAS
    for form in FORMS
]


def _unit_times_1_is_the_unit(mul, unit):
    """The product with unit * 1 = unit instead of 1, in the form of mul."""
    if isinstance(mul, hh.LabelProduct):
        return hh.LabelProduct(lambda a, b: unit if (a, b) == (unit, 1) else mul.label(a, b))
    return lambda a, b: {unit: 1} if (a, b) == (unit, 1) else mul(a, b)


def _by_degree(keys):
    """tuples(p) of the sweep over a key list closed under rotation."""
    return lambda p: [key for key in keys if len(key) == p + 1]


@pytest.mark.parametrize("name, form", IN_BOTH_FORMS)
def test_weight_of_the_product_commutes(name, form):
    keys, mul, unit, weight = ALGEBRAS[name](form)
    wanted = {"class-action-commutes": range(3)}
    assert hh.identity_failures(_by_degree(keys), wanted, mul, unit, weight) == {}


@pytest.mark.parametrize("name, form", IN_BOTH_FORMS)
def test_weight_of_the_first_entry_fails(name, form):
    """Negative control: a weight that reads only the first entry is not
    preserved by B, which puts the unit in front."""
    keys, mul, unit, _ = ALGEBRAS[name](form)
    first = lambda key: int(key[0] == unit)
    wanted = {"class-action-commutes": range(3)}
    failed = hh.identity_failures(_by_degree(keys), wanted, mul, unit, first)
    assert list(failed) == ["class-action-commutes"]


@pytest.mark.parametrize("name, form", IN_BOTH_FORMS)
def test_identity_sweep_holds_and_each_identity_fails_on_a_wrong_product(name, form):
    """Every identity of the shared sweep holds through degree 2, and
    each fails alone when the unit times 1 is the unit instead of 1."""
    keys, mul, unit, weight = ALGEBRAS[name](form)
    tuples = lambda p: [key for key in keys if len(key) == p + 1]
    wanted = dict.fromkeys(hh.IDENTITIES, range(3))
    assert hh.identity_failures(tuples, wanted, mul, unit, weight) == {}
    wrong = _unit_times_1_is_the_unit(mul, unit)
    for identity in hh.IDENTITIES:
        failed = hh.identity_failures(tuples, {identity: range(3)}, wrong, unit, weight)
        assert list(failed) == [identity]


def _B_with_a_unit_term(monkeypatch):
    """A B that also puts the unit in front of the degree-2 tuples that
    begin with it."""
    connes_B = hh.connes_B

    def wrong(key, unit, out=None, coeff=1):
        out = connes_B(key, unit, out, coeff)
        if len(key) == 3 and key[0] == unit:
            add_term(out, (unit,) + key, coeff)
        return out

    monkeypatch.setattr(hh, "connes_B", wrong)


def test_B_squared_alone_fails_the_normalized_identities(monkeypatch):
    """The B of ``_B_with_a_unit_term`` breaks B B = 0 only, in both product
    forms: the tuples it changes are exactly the B-images that B B reads,
    and bB + Bb never applies B to them."""
    _B_with_a_unit_term(monkeypatch)
    for form in FORMS:
        keys, mul, unit, _ = _lattice_z(form)
        wanted = {"normalized-identities": range(2)}
        failed = hh.identity_failures(_by_degree(keys), wanted, mul, unit)
        assert failed == {"normalized-identities": "(-2, -1)"}, form


@pytest.mark.parametrize("name", ALGEBRAS)
def test_both_product_forms_give_the_same_failures(name, monkeypatch):
    """The sweep returns the same dict with the dict product and with the
    ``LabelProduct``: on passing input, and under each mutant above, the
    wrong unit product, the first-entry weight and the B of
    ``_B_with_a_unit_term``; each identity asked for alone and all at once."""
    wanted = [{identity: range(3)} for identity in hh.IDENTITIES]
    wanted.append(dict.fromkeys(hh.IDENTITIES, range(3)))

    def failures(form):
        keys, mul, unit, weight = ALGEBRAS[name](form)
        first = lambda key: int(key[0] == unit)
        runs = [(mul, weight), (_unit_times_1_is_the_unit(mul, unit), weight), (mul, first)]
        found = [hh.identity_failures(_by_degree(keys), w, m, unit, f) for m, f in runs for w in wanted]
        with monkeypatch.context() as m:
            _B_with_a_unit_term(m)
            return found + [hh.identity_failures(_by_degree(keys), w, mul, unit, weight) for w in wanted]

    found = failures("dict")
    assert found == failures("label")
    assert {} in found and len({str(failed) for failed in found}) > 2


def test_identity_failures_refuses_an_unknown_name():
    """A misspelt name would give a case that cannot fail: it is refused."""
    keys, mul, unit, _ = _lattice_z()
    with pytest.raises(ValueError, match="normalized"):
        hh.identity_failures(_by_degree(keys), {"normalized": range(3)}, mul, unit)


def test_precyclic_identities_hold_on_the_2x2_matrices():
    """Faces of a degree-1 tuple land in degree 0, where no face is defined:
    degree 1 checks t^2 = 1 only, else (ab)^2 = (ba)^2 would be demanded."""
    spec = eg.unit_basis(eg.builtin_algebra("matrix_2"))
    tuples = lambda p: itertools.product(range(spec.dim), repeat=p + 1)
    unit = next(iter(spec.unit))
    wanted = {"precyclic-identities": range(1, 4)}
    assert hh.identity_failures(tuples, wanted, spec.product_vec, unit) == {}


# Q[x]/(x^2) on the basis {1, y = 1 + x}, where y y = 2y - 1: the faces of
# (y, y, ...) have two terms; and Q[x]/(x^2 - 4), where x x = 4: one-tuple
# faces with a coefficient other than 1.  Both are dict products, so every
# double face of the precyclic check goes through ``linear``
_MULTI_TERM = {
    "two-term": {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 2, 0: -1}},
    "scaled": {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 4}},
}


def _multi_term(name):
    spec = eg.load_algebra(eg.AlgebraSpec(name=name, dim=2, products=_MULTI_TERM[name], unit={0: 1}))
    return lambda p: itertools.product(range(2), repeat=p + 1), spec.product_vec


@pytest.mark.parametrize("name", _MULTI_TERM)
def test_precyclic_identities_hold_with_several_terms_and_coefficients(name, monkeypatch):
    tuples, mul = _multi_term(name)
    linear, calls = hh.linear, []
    monkeypatch.setattr(hh, "linear", lambda op, vec: calls.append(vec) or linear(op, vec))
    wanted = {"precyclic-identities": range(1, 4)}
    assert hh.identity_failures(tuples, wanted, mul, 0) == {}
    assert calls


@pytest.mark.parametrize("i, witness", [(0, "d_0 d_1 != d_0 d_0"), (2, "d_0 d_2 != d_1 d_0")])
def test_a_face_that_drops_a_term_fails_the_precyclic_identities(i, witness, monkeypatch):
    """d_i that keeps only the first term of a two-term image, the other
    faces intact: the double faces through ``linear`` see it in degree 2."""
    tuples, mul = _multi_term("two-term")
    face = hh.face

    def wrong(key, j, mul):
        out = face(key, j, mul)
        return dict([next(iter(out.items()))]) if j == i and len(out) == 2 else out

    monkeypatch.setattr(hh, "face", wrong)
    failed = hh.identity_failures(tuples, {"precyclic-identities": range(1, 4)}, mul, 0)
    assert failed == {"precyclic-identities": f"{witness} at degree 2"}


def test_class_action_drops_zero_weights():
    vec = {(0, 1): 2, (1, 1): 5, (2, 1): -1}
    assert hh.class_action(vec, lambda key: key[0]) == {(1, 1): 5, (2, 1): -2}
    tot = {(0, (1, 2)): 3, (1, (1,)): 4}
    assert hh.class_action(tot, lambda tot_key: len(tot_key[1]) - 1) == {(0, (1, 2)): 3}


def test_torus_class_action_case_can_fail(monkeypatch):
    monkeypatch.setattr(tr, "_compact", lambda key: int(not key[0]))  # the first label is 0
    cfg = suites.SuiteConfig(torus_ranks=(1,), torus_window=1)
    cases = {case.id: case.passed for case in suites.suite_torus(cfg).cases}
    assert cases["torus/b-squared/r1"] and cases["torus/normalized-identities/r1"]
    assert not cases["torus/class-action-commutes/r1"]


def _product_and_unit(name):
    """The product, the unit and some labels: Z with entries in [-2, 2], in
    either form, or a built-in algebra with the product of its
    ``ChainStack``, a ``LabelProduct`` on Z/3, and dicts on the dual numbers,
    where eps * eps = {}, and on M_2, whose products in the basis of
    ``unit_basis`` have two terms."""
    if name.startswith("lattice_Z"):
        return _lattice_z("label" if name.endswith("-label") else "dict")[1], 0, range(-2, 3)
    stack = eg.ChainStack(eg.builtin_algebra(name))
    return stack.mul, stack.unit, range(stack.spec.dim)


_COEFFS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@pytest.mark.parametrize(
    "name", ["lattice_Z", "lattice_Z-label", "cyclic_3", "dual_numbers", "matrix_2"]
)
@settings(max_examples=50)
@given(data=st.data())
def test_boundary_and_connes_B_add_into_out(name, data):
    """op(key, arg, out, c) is add_into(out, op(key, arg), c), in out itself,
    for c = 0 and a drawn c, with out drawn to cancel part of the image, so
    no zero may be stored."""
    mul, unit, labels = _product_and_unit(name)
    tuples = st.lists(st.sampled_from(labels), min_size=1, max_size=4).map(tuple)
    key = data.draw(tuples)
    for op, arg in ((hh.boundary, mul), (hh.connes_B, unit)):
        image = op(key, arg)
        for c in (0, data.draw(_COEFFS)):
            out = data.draw(st.dictionaries(tuples, _COEFFS.filter(bool), max_size=3))
            cancelled = data.draw(st.sets(st.sampled_from(list(image)))) if image else ()
            add_into(out, {k: image[k] for k in cancelled}, -c)
            want = add_into(dict(out), image, c)
            got = op(key, arg, out, c)
            assert got is out and got == want and all(got.values())
