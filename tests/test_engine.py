"""The structure-constants homology engine on the toy algebra zoo."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckehom import engine as eg
from heckehom import hochschild as hh
from heckehom import suites
from heckehom.linalg import QuotientSpace, elimination_order, homology, kernel_vectors, span_basis
from heckehom.sparse import add_into, add_term, linear


def test_load_validates_examples():
    assert eg.load_algebra(eg.builtin_algebra("ground_field")).dim == 1
    assert eg.load_algebra(eg.builtin_algebra("dual_numbers")).dim == 2
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


def _dense_witness(spec):
    """The first basis triple (i, j, k) on which (e_i e_j) e_k != e_i (e_j e_k),
    from a scan of every triple, or None."""
    for i, j, k in itertools.product(range(spec.dim), repeat=3):
        left = spec.multiply(spec.product_vec(i, j), {k: 1})
        if left != spec.multiply({i: 1}, spec.product_vec(j, k)):
            return (i, j, k)
    return None


def test_load_algebra_multiplies_on_quadratically_many_triples(monkeypatch):
    """On Q^30 with the diagonal product, e_i e_j = 0 for i != j, so only the
    triples with i = j or j = k are visited: O(dim^2) products, not dim^3."""
    dim = 30
    spec = eg.AlgebraSpec(
        name="diagonal",
        dim=dim,
        products={(i, i): {i: 1} for i in range(dim)},
        unit={i: 1 for i in range(dim)},
    )
    calls = []
    multiply = eg.AlgebraSpec.multiply
    monkeypatch.setattr(eg.AlgebraSpec, "multiply", lambda *args: calls.append(1) or multiply(*args))
    assert eg.load_algebra(spec) is spec
    assert len(calls) <= 5 * dim**2


def _random_unital_spec(rng, dim):
    """e_0 is the unit; every other product is zero or a random sparse vector."""
    products = {(0, j): {j: 1} for j in range(dim)}
    products.update({(i, 0): {i: 1} for i in range(1, dim)})
    for i, j in itertools.product(range(1, dim), repeat=2):
        if rng.random() < 0.3:
            products[(i, j)] = {k: rng.choice([-1, 1, 2]) for k in rng.sample(range(dim), 1)}
    return eg.AlgebraSpec(name="random", dim=dim, products=products, unit={0: 1})


def test_load_algebra_witness_matches_a_dense_scan():
    """The sparse scan of load_algebra names the first failing triple of a
    scan of all dim^3 triples, and accepts exactly the associative specs."""
    rng = random.Random(17)
    outcomes = set()
    for _ in range(200):
        spec = _random_unital_spec(rng, rng.randint(2, 5))
        witness = _dense_witness(spec)
        try:
            eg.load_algebra(spec)
            found = None
        except eg.NotAssociative as err:
            found = err.witness
        assert found == witness
        outcomes.add(witness is None)
    assert outcomes == {False, True}


def test_size_guard():
    with pytest.raises(eg.TooLarge, match=r"^dim\^\(N\+1\) = 6\^7 exceeds the guard 100000$"):
        eg.compute_hochschild(eg.builtin_algebra("cyclic_6"), 6)


def test_within_compares_the_power_without_building_it():
    for base in range(6):
        for exponent in range(40):
            for cap in (1, 20_000, 100_000, 1_000_000):
                assert eg.within(base, exponent, cap) == (base**exponent <= cap)
    # 2^(10^12) has about 3 * 10^11 digits; the test is decided at 2^17
    assert not eg.within(2, 10**12, eg.CHAIN_GUARD)
    assert eg.within(1, 10**12, 1)


def test_precyclic_identities():
    for name in ("dual_numbers", "cyclic_2", "upper_triangular_2"):
        stack = eg.ChainStack(eg.builtin_algebra(name))
        assert stack.verify_structure_identities({"precyclic-identities": range(1, 4)}) == {}


# d_1 replaced by d_0: on Q[Z/3] the first identity it breaks is at degree 3
_BROKEN_FACE = """
from heckehom import hochschild as hh
from heckehom import suites
face = hh.face
hh.face = lambda key, i, mul: face(key, 0 if i == 1 else i, mul)
cfg = suites.SuiteConfig(engine_cutoff=2)
cases = suites.suite_engine(cfg).cases
print(next(c.actual for c in cases if c.id == "engine/cyclic_3/precyclic-identities"))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_precyclic_identities_case_fails_without_assert(flags):
    # python -O strips assert statements; the case must fail all the same
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_FACE], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "fail d_0 d_2 != d_1 d_0 at degree 3"


def _verify_engine_spec(path, cutoff, capsys) -> dict:
    """verify engine with one --spec file: its exit code must be 0; its cases by id."""
    from heckehom.cli import main

    argv = ["verify", "engine", "--engine-cutoff", str(cutoff), "--spec", str(path)]
    assert main(argv + ["--format", "json"]) == 0
    return {case["id"]: case for case in json.loads(capsys.readouterr().out)["cases"]}


def test_matrix_2_spec_passes_every_engine_case(capsys):
    """M_2(Q) is noncommutative, with (ab)^2 != (ba)^2 for some basis pairs,
    which a face identity in degree 1 would demand; its homology is that of
    the ground field (Morita invariance)."""
    cases = _verify_engine_spec(eg._ALGEBRA_DIR / "matrix_2.json", 4, capsys)
    assert all(case["pass"] for case in cases.values())
    assert cases["engine/matrix_2/precyclic-identities"]["actual"] == "pass"
    assert cases["engine/matrix_2/hh-dims"]["actual"] == "[1, 0, 0, 0, 0]"
    assert cases["engine/matrix_2/hc-dims"]["actual"] == "[1, 0, 1, 0, 1]"


def test_symmetric_3_spec_passes_every_engine_case(tmp_path, monkeypatch, capsys):
    """Q[S_3], a noncommutative group algebra given as a spec file: HH_0 is
    spanned by the 3 conjugacy classes, and over Q the higher HH vanish."""
    perms = list(itertools.permutations(range(3)))  # the identity first
    products = [
        {"i": i, "j": j, "coeffs": [int(c == tuple(a[k] for k in b)) for c in perms]}
        for i, a in enumerate(perms)
        for j, b in enumerate(perms)
    ]
    path = tmp_path / "symmetric_3.json"
    path.write_text(json.dumps(
        {"name": "symmetric_3", "dim": 6, "unit": [1, 0, 0, 0, 0, 0], "products": products}
    ))
    monkeypatch.setitem(suites.ENGINE_ORACLE_DIMS, "symmetric_3", (3, 0, 3))
    cases = _verify_engine_spec(path, 3, capsys)
    assert all(case["pass"] for case in cases.values())
    assert cases["engine/symmetric_3/hh-dims"]["actual"] == "[3, 0, 0, 0]"
    assert cases["engine/symmetric_3/hc-dims"]["actual"] == "[3, 0, 3, 0]"


def test_mixed_complex_identities():
    """b^2 = 0, B^2 = 0 and bB + Bb = 0 on the normalized complex."""
    for name in ("dual_numbers", "upper_triangular_2"):
        stack = eg.ChainStack(eg.builtin_algebra(name))
        b, B = stack.boundary, stack.connes_B
        for p in range(4):
            for key in stack.keys(p):
                if p >= 2:
                    assert not linear(b, b(key)), key
                if p <= 2:
                    assert not linear(B, B(key)), key
                    assert not add_into(linear(b, B(key)), linear(B, b(key))), key


def test_unit_basis():
    # upper_triangular_2: e11 is replaced by the unit e11 + e22
    stack = eg.ChainStack(eg.builtin_algebra("upper_triangular_2"))
    assert stack.spec.unit == {0: 1} and stack.unit == 0
    assert stack.spec.products == {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1},
        (1, 2): {1: 1}, (2, 0): {2: 1}, (2, 2): {2: 1},
    }
    # the unit e0 / 2 becomes the basis vector; integral coefficients are ints
    changed = eg.unit_basis(_half_unit_dual_numbers())
    assert changed.unit == {0: 1}
    assert changed.products == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    for vec in changed.products.values():
        assert all(type(c) is int for c in vec.values())
    # a unit that is already a basis vector keeps the spec as it is
    spec = eg.builtin_algebra("dual_numbers")
    assert eg.unit_basis(spec) is spec


def test_chain_dims_are_normalized():
    report = eg.compute_hochschild(eg.builtin_algebra("cyclic_5"), 3)
    stack = report.stack
    assert report.chain_dims == [5, 20, 80, 320, 1280]
    for p in range(5):
        keys = stack.keys(p)
        assert len(keys) == stack.dim_chain(p) == len(set(keys))
        assert keys == sorted(keys)
        assert not any(hh.is_degenerate(key, stack.unit) for key in keys)


def test_hochschild_dimensions():
    assert eg.compute_hochschild(eg.builtin_algebra("ground_field"), 4).hh_dims == [1, 0, 0, 0, 0]
    assert eg.compute_hochschild(eg.builtin_algebra("cyclic_2"), 3).hh_dims == [2, 0, 0, 0]
    assert eg.compute_hochschild(eg.builtin_algebra("dual_numbers"), 3).hh_dims == [2, 1, 1, 1]
    assert eg.compute_hochschild(eg.builtin_algebra("upper_triangular_2"), 3).hh_dims == [2, 0, 0, 0]


def test_cyclic_dimensions_and_degree_zero():
    field = eg.compute_cyclic(eg.builtin_algebra("ground_field"), 4)
    assert field.hc_dims == [1, 0, 1, 0, 1]
    two = eg.compute_cyclic(eg.builtin_algebra("cyclic_2"), 4)
    assert two.hc_dims == [2, 0, 2, 0, 2]
    dual = eg.compute_cyclic(eg.builtin_algebra("dual_numbers"), 4)
    # forced by exactness given the HH dims, with HC_1 = (forms)/(exact) = 0
    assert dual.hc_dims == [2, 0, 2, 0, 2]
    for report in (field, two, dual):
        assert report.hc_dims[0] == report.hh_dims[0]


def _sbi_exact(report):
    """Every S-B-I node stored on the report is exact, and there is one."""
    return bool(report.exactness) and all(node.exact for node in report.exactness)


def test_sbi_exactness():
    report = eg.compute_cyclic(eg.builtin_algebra("ground_field"), 4)
    nodes = report.exactness
    assert nodes and all(node.exact for node in nodes)
    assert _sbi_exact(report)
    # S: HC_2 -> HC_0 is an isomorphism for the ground field
    s_matrix = report.s_maps[2]
    assert span_basis(s_matrix).rank == 1 == report.hc_dims[2] == report.hc_dims[0]
    for name in ("cyclic_3", "upper_triangular_2", "dual_numbers"):
        result = eg.compute_cyclic(eg.builtin_algebra(name), 3)
        assert all(node.exact for node in result.exactness)


def test_cyclic_report_is_a_complete_immutable_record():
    """compute_cyclic returns the exactness nodes with the groups, and no
    field of the report can be assigned afterwards."""
    report = eg.compute_cyclic(eg.builtin_algebra("cyclic_2"), 2)
    assert [tuple(node) for node in report.exactness] == [
        ("HH_0", 0, 2, 2, True),
        ("HH_1", 0, 0, 0, True),
        ("HH_2", 0, 0, 0, True),
        ("HC_0 (after I)", 2, 0, 2, True),
        ("HC_1 (after I)", 0, 0, 0, True),
        ("HC_2 (after I)", 0, 2, 2, True),
        ("HC_0 (after S)", 2, 0, 2, True),
    ]
    for field in eg.HomologyReport._fields:
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    hochschild_only = eg.compute_hochschild(eg.builtin_algebra("cyclic_2"), 2)
    assert hochschild_only.hh_dims == report.hh_dims == [2, 0, 0]
    assert hochschild_only.hc is hochschild_only.exactness is None


def test_class_function_action():
    spec = eg.builtin_algebra("cyclic_2")
    report = eg.compute_cyclic(spec, 3)
    stack = report.stack
    indicator = eg.class_weight(spec, {0: Fraction(1)})
    # F = 1 acts as the identity in every degree
    ones = eg.class_weight(spec, {0: Fraction(1), 1: Fraction(1)})
    for p in range(3):
        for key in stack.tuples(p):
            assert ones(key) == 1
    # degree 1: keeps exactly the tuples (g0, g1) with g0 g1 = e
    kept = [key for key in stack.tuples(1) if indicator(key)]
    assert kept == [(0, 0), (1, 1)]
    # idempotence: the action squares to itself pointwise
    for key in stack.tuples(1):
        factor = indicator(key)
        assert factor * factor == factor
    wanted = {"precyclic-identities": range(1, 4), "class-action-commutes": range(3)}
    assert stack.verify_structure_identities(wanted, indicator) == {}
    with pytest.raises(ValueError):
        eg.class_weight(eg.builtin_algebra("dual_numbers"), {0: Fraction(1)})


def test_idempotent_commutator_square_zero():
    spec = eg.builtin_algebra("cyclic_2")
    report = eg.compute_cyclic(spec, 3)
    everything = eg.class_weight(spec, {0: Fraction(1), 1: Fraction(1)})
    indicator = eg.class_weight(spec, {0: Fraction(1)})
    assert eg.idempotent_commutator_square_is_zero(report, everything, indicator)
    assert eg.idempotent_commutator_square_is_zero(report, indicator, indicator)


def test_shipped_file_names():
    # each shipped name also passes the name rule of spec_from_json
    assert eg.BUILTIN_ALGEBRAS == tuple(sorted(eg.BUILTIN_ALGEBRAS))
    for name in eg.BUILTIN_ALGEBRAS:
        text = (eg._ALGEBRA_DIR / f"{name}.json").read_text()
        assert json.loads(text)["name"] == name
        assert eg.builtin_algebra(name).name == name


def test_builtin_cyclic_matches_group_algebra():
    # the shipped files against the group Z/m built here, g_i g_j = g_(i+j mod m)
    for m in range(2, 7):
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        products = {(i, j): {table[i][j]: 1} for i in range(m) for j in range(m)}
        z_m = eg.AlgebraSpec(f"cyclic_{m}", m, products, {0: 1}, table)
        assert eg.builtin_algebra(f"cyclic_{m}") == eg.load_algebra(z_m)


def test_builtin_group_tables():
    assert eg.builtin_algebra("ground_field").group_table == [[0]]
    assert eg.builtin_algebra("dual_numbers").group_table is None
    assert eg.builtin_algebra("upper_triangular_2").group_table is None
    with pytest.raises(eg.SpecError):
        eg.builtin_algebra("nonsense")


def test_spec_file_gets_no_group_table():
    # only built-ins derive a table; a user's file is taken as it is written
    assert eg.load_algebra_file(eg._ALGEBRA_DIR / "cyclic_5.json").group_table is None


def _has_label_product(spec) -> bool:
    return isinstance(eg.ChainStack(spec).mul, hh.LabelProduct)


def test_label_product_exactly_on_monoid_bases(monkeypatch):
    """A ``ChainStack`` takes a ``LabelProduct`` exactly when every product
    of two basis vectors, in the basis of ``unit_basis``, is one basis vector
    with coefficient 1: on the group algebras, also from a spec file."""
    for name in eg.BUILTIN_ALGEBRAS:
        group = name == "ground_field" or name.startswith("cyclic_")
        assert _has_label_product(eg.builtin_algebra(name)) == group, name
    assert eg.monoid_table(eg.unit_basis(eg.builtin_algebra("matrix_2"))) is None
    # x x = 4: one basis vector, with coefficient 4
    scaled = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 4}}
    assert not _has_label_product(eg.load_algebra(eg.AlgebraSpec("scaled", 2, scaled, {0: 1})))
    path = eg._ALGEBRA_DIR / "cyclic_5.json"
    assert _has_label_product(eg.load_algebra_file(path))
    # and through --spec: the stack the engine suite builds for the file
    forms, compute_cyclic = {}, eg.compute_cyclic

    def recorded(spec, cutoff):
        report = compute_cyclic(spec, cutoff)
        forms[spec.name] = isinstance(report.stack.mul, hh.LabelProduct)
        return report

    monkeypatch.setattr(eg, "compute_cyclic", recorded)
    suites.suite_engine(suites.SuiteConfig(engine_cutoff=1, engine_spec_files=(str(path),)))
    assert forms["cyclic_5"] and not forms["dual_numbers"]
    assert forms == {name: name == "ground_field" or name.startswith("cyclic_") for name in forms}


@pytest.mark.parametrize("name", ["cyclic_3", "cyclic_5"])
def test_both_product_forms_give_the_same_homology_and_witnesses(name, monkeypatch):
    """HH and HC dimensions and the sweep's witnesses, on passing input, with
    the first-entry weight and with d_1 replaced by d_0, are the same with the
    ``LabelProduct`` and with the dict product forced."""
    spec = eg.builtin_algebra(name)
    wanted = {"precyclic-identities": range(1, 4), "class-action-commutes": range(3)}
    weights = [eg.class_weight(spec, {0: 1}), lambda key: int(key[0] == 0)]
    face = hh.face

    def run():
        report = eg.compute_cyclic(spec, 3)
        stack = report.stack
        found = [stack.verify_structure_identities(wanted, weight) for weight in weights]
        with monkeypatch.context() as m:
            m.setattr(hh, "face", lambda key, i, mul: face(key, 0 if i == 1 else i, mul))
            found.append(stack.verify_structure_identities(wanted, weights[0]))
        return type(stack.mul), (report.hh_dims, report.hc_dims, found)

    label_form, label = run()
    monkeypatch.setattr(eg, "monoid_table", lambda spec: None)
    dict_form, forced = run()
    assert (label_form, dict_form) == (hh.LabelProduct, type(spec.product_vec))
    assert label == forced
    assert [bool(failed) for failed in label[2]] == [False, True, True]


# ---------------------------------------------------------------------------
# the Tot oracle: HC eliminated from the whole (b, B) total complex, the
# engine's route before the perturbed model


def _tot_keys(stack, n):
    """The basis of Tot_n: (j, key) for the basis keys of C_{n - 2j}."""
    return [(j, key) for j in range(n // 2 + 1) for key in stack.keys(n - 2 * j)]


def _tot_boundary(stack, tot_key):
    """(b + B) on a basis key of Tot_n, in Tot_{n-1}."""
    j, key = tot_key
    out = {}
    if len(key) > 1:
        out = {(j, image): c for image, c in stack.boundary(key).items()}
    if j:
        out.update(((j - 1, image), c) for image, c in stack.connes_B(key).items())
    return out


def _tot_maps(hh_q, hc_q, connes_B, cutoff):
    """I, S and B on Tot representatives: I includes C_n as the j = 0 part of
    Tot_n, S drops j by one and B applies connes_B to the j = 0 part."""

    def include(rep):
        return {(0, key): c for key, c in rep.items()}

    def drop(rep):
        return {(j - 1, key): c for (j, key), c in rep.items() if j}

    def bmap(rep):
        return linear(connes_B, {key: c for (j, key), c in rep.items() if not j})

    i_maps, s_maps, b_maps = {}, {}, {}
    for n in range(cutoff + 1):
        hc_reps = hc_q[n].representatives
        i_maps[n] = eg._matrix_of(hh_q[n].representatives, include, hc_q[n])
        if n >= 2:
            s_maps[n] = eg._matrix_of(hc_reps, drop, hc_q[n - 2])
        if n + 1 <= cutoff:
            b_maps[n] = eg._matrix_of(hc_reps, bmap, hh_q[n + 1])
    return i_maps, s_maps, b_maps


def _tot_report(stack, cutoff, quotients=homology):
    """The HomologyReport of the Tot route, with quotients(bases, boundary)
    for both complexes, and its exactness nodes."""
    hh_q = quotients([stack.keys(p) for p in range(cutoff + 2)], stack.boundary)
    tot = [_tot_keys(stack, n) for n in range(cutoff + 2)]
    hc_q = quotients(tot, lambda key: _tot_boundary(stack, key))
    i_maps, s_maps, b_maps = _tot_maps(hh_q, hc_q, stack.connes_B, cutoff)
    report = eg.HomologyReport(
        stack, cutoff, None, hh_q, [q.dim for q in hh_q], hc_q, [q.dim for q in hc_q],
        i_maps, s_maps, b_maps,
    )
    return report._replace(exactness=eg._exactness(report))


def _sbi_ranks(i_maps, s_maps, b_maps):
    """The rank of each I, S and B map, keyed by (name, degree)."""
    maps = zip("ISB", (i_maps, s_maps, b_maps))
    return {(name, n): span_basis(cols).rank for name, by_n in maps for n, cols in by_n.items()}


def _report_ranks(report):
    return _sbi_ranks(report.i_maps, report.s_maps, report.b_maps)


def _assert_matches_tot(report, oracle):
    """HC dimensions, S/B/I ranks and every exactness node agree."""
    assert report.hh_dims == oracle.hh_dims
    assert report.hc_dims == oracle.hc_dims
    assert _report_ranks(report) == _report_ranks(oracle)
    assert [tuple(node) for node in report.exactness] == [tuple(node) for node in oracle.exactness]


def _unital_spec(name, dim, products):
    """e_0 is the unit; products holds the other nonzero products."""
    table = {(0, j): {j: 1} for j in range(dim)}
    table.update({(i, 0): {i: 1} for i in range(1, dim)})
    table.update(products)
    return eg.load_algebra(eg.AlgebraSpec(name=name, dim=dim, products=table, unit={0: 1}))


def _square_zero():
    """Q + Q^2 with square-zero product: x y = y x = x^2 = y^2 = 0."""
    return _unital_spec("square_zero", 3, {})


def _two_squares():
    """Q[a, b]/(a^2, b^2) on the basis 1, a, b, ab: H_{-1}(I_2(2))."""
    return _unital_spec("two_squares", 4, {(1, 2): {3: 1}, (2, 1): {3: 1}})


def _hecke_i2_2_at_minus_1():
    """H_{-1}(I_2(2)) on the basis T_e, T_s, T_t, T_st of its spec file:
    T_g T_g = -2 T_g - T_e, T_s T_t = T_t T_s = T_st.  It is ``_two_squares``
    with a = T_s + T_e, b = T_t + T_e, but the contraction depends on the
    basis: at cutoff 4 four tails p B (-hB)^k, k >= 1, of its model are
    nonzero.  Its products have several terms, so it takes the dict product."""
    return eg.load_algebra_file(Path(__file__).parent / "algebras" / "hecke_i2_2_at_minus_1.json")


# (algebra, cutoff) pairs on which the model is checked against the Tot oracle
_MODEL_CASES = [
    *((name, 3 if name in ("cyclic_5", "cyclic_6") else 4) for name in eg.BUILTIN_ALGEBRAS),
    ("dual_numbers", 6),
    ("square_zero", 5),
    ("two_squares", 4),
    ("hecke_i2_2_at_minus_1", 4),
]


def _spec(name):
    """A built-in algebra, or a test algebra of this file, by name."""
    tests = {"square_zero": _square_zero, "two_squares": _two_squares,
             "hecke_i2_2_at_minus_1": _hecke_i2_2_at_minus_1,
             "half_unit_dual_numbers": _half_unit_dual_numbers}
    return tests[name]() if name in tests else eg.builtin_algebra(name)


@pytest.mark.parametrize("name, cutoff", _MODEL_CASES)
def test_model_matches_tot_oracle(name, cutoff):
    """The perturbed model and the elimination of Tot agree on the HC
    dimensions, the S/B/I ranks and every exactness node."""
    report = eg.compute_cyclic(_spec(name), cutoff)
    _assert_matches_tot(report, _tot_report(report.stack, cutoff))


def _contraction_failure(report):
    """The first side condition of the perturbation lemma that fails, or None:
    on every basis key x of C_m, m < N, 1 - ip = bh + hb and ph = 0, and
    h^2 = 0 where h is known (below N); hi = 0 and pi = 1 on the
    representatives; d'd' = 0 on every basis key of the model; and the
    chain-level identities of ``_perturbation_failure``."""
    model, stack = report.contraction, report.stack
    b = lambda chain: linear(stack.boundary, chain)
    for m in range(report.cutoff):
        for i, rep in enumerate(report.hh[m].representatives):
            if model.split(rep, m) != ({i: 1}, {}):
                return f"pi = 1, hi = 0 on representative {i} of HH_{m}"
        for key in stack.keys(m):
            coords, h = model.split({key: 1}, m)
            left = {key: 1}
            for i, c in coords.items():
                add_into(left, report.hh[m].representatives[i], -c)
            right = add_into(b(h), model.split(b({key: 1}), m - 1)[1] if m else {})
            if left != right:
                return f"1 - ip = bh + hb on {key}"
            if any(model.split(h, m + 1)):  # h is None on C_N
                return f"h^2 = ph = 0 on {key}"
    for n in range(report.cutoff + 2):
        for key in model.keys(n):
            if linear(model.boundary, model.boundary(key)):
                return f"d'd' = 0 on {key}"
    return _perturbation_failure(report)


def _perturbation_failure(report, degrees=None):
    """The first identity of the perturbed maps that fails, or None, in
    degrees n <= N against the Tot oracle's differential D = b + B: on every
    basis key of the model, D i_oo = i_oo d', p_oo i_oo = 1, and, below N,
    B = p B on the j = 0 part of i_oo; on every HC representative, i_oo is a
    Tot cycle and B = the HH coordinates of B on its j = 0 part.

    The keys matter: on most algebras tested pB(-hB)^k = 0 for k >= 1, so on
    a model cycle the j >= 1 terms of B cancel level by level, and a B that
    ignored j would still agree on every representative.  H_{-1}(I_2(2)) at
    cutoff 4 has nonzero tails, and there D i = i d' fails for a d' cut to
    its k = 0 term.

    HC_N reads d' out of degree N + 1 too, where i_oo cannot be formed (h is
    unknown at the cutoff).  So, unless ``degrees`` limits the check, that d'
    must equal the d' of the cutoff-(N + 1) model on the same keys, where
    the same identities are checked in degree N + 1: a d' cut to k = 0 then
    fails at cutoff 3 as well."""
    model, stack, cutoff = report.contraction, report.stack, report.cutoff
    tot_d = lambda chain: linear(lambda key: _tot_boundary(stack, key), chain)

    def connes_of_bottom(chain):
        return linear(stack.connes_B, {key: c for (j, key), c in chain.items() if not j})

    for n in range(cutoff + 1) if degrees is None else degrees:
        for key in model.keys(n):
            lifted = model.include({key: 1})
            if tot_d(lifted) != model.include(model.boundary(key)):
                return f"D i = i d' on {key}"
            if model.project(lifted) != {key: 1}:
                return f"p i = 1 on {key}"
            if n < cutoff and model.connes({key: 1}) != model.split(connes_of_bottom(lifted), n + 1)[0]:
                return f"B = p B i on {key}"
        for rep in report.hc[n].representatives:
            lifted = model.include(rep)
            if tot_d(lifted):
                return f"i of an HC_{n} representative is a Tot cycle"
            if n < cutoff and model.connes(rep) != report.hh[n + 1].coords(connes_of_bottom(lifted)):
                return f"B of an HC_{n} representative"
    if degrees is not None:
        return None
    higher = eg.compute_cyclic(stack.spec, cutoff + 1)
    for key in model.keys(cutoff + 1):
        if model.boundary(key) != higher.contraction.boundary(key):
            return f"d' out of degree {cutoff + 1} on {key} differs at cutoff {cutoff + 1}"
    return _perturbation_failure(higher, [cutoff + 1])


@pytest.mark.parametrize("name, cutoff", _MODEL_CASES)
def test_contraction_meets_the_side_conditions(name, cutoff):
    assert _contraction_failure(eg.compute_cyclic(_spec(name), cutoff)) is None


def test_a_contraction_with_one_payload_negated_fails():
    """Negative control: h with the payload of one boundary row of C_1
    negated breaks 1 - ip = bh + hb."""
    report = eg.compute_cyclic(eg.builtin_algebra("cyclic_3"), 4)
    preimages = report.hh[1]._preimages
    pivot = min(preimages.pivots)
    row, payload = preimages.row(pivot)
    preimages._rows[pivot] = (row, {key: -c for key, c in payload.items()})
    assert _contraction_failure(report).startswith("1 - ip = bh + hb on ")


def test_a_model_differential_without_its_tails_fails(monkeypatch):
    """Negative control: d' cut to its k = 0 term, p B x, on an algebra
    whose tails p B (-hB)^k x, k >= 1, are not all zero."""
    report = eg.compute_cyclic(_hecke_i2_2_at_minus_1(), 4)
    assert any(pbs[k] for by_rep in report.contraction.tails for _, pbs in by_rep for k in range(1, len(pbs)))

    def untailed(self, key):
        j, (m, i) = key
        pbs = self.tails[m][i][1]
        return {(j - 1, (m + 1, x)): c for x, c in pbs[0].items()} if j else {}

    monkeypatch.setattr(eg.Contraction, "boundary", untailed)
    assert _contraction_failure(report) == "D i = i d' on (2, (0, 1))"
    # at cutoff 3 the cut d' first differs out of degree 4, which the
    # cutoff-4 model checks
    assert _contraction_failure(eg.compute_cyclic(_hecke_i2_2_at_minus_1(), 3)) == "D i = i d' on (2, (0, 1))"


def _homology_counting_top(bases, boundary, cutoff):
    """linalg.homology, and how many sources of the top degree it took."""
    top = set(bases[cutoff + 1])
    taken = []

    def counting(key):
        if key in top:
            taken.append(key)
        return boundary(key)

    return homology(bases, counting), len(taken)


def test_top_pass_stops_once_it_spans_the_cycles():
    stack = eg.ChainStack(eg.builtin_algebra("cyclic_5"))
    # HH_3 = 0: the boundaries of C_4 fill the cycles of C_3 early (after
    # 384 of the 1,280 sources in decreasing key order)
    cutoff = 3
    bases = [stack.keys(p) for p in range(cutoff + 2)]
    quotients, taken = _homology_counting_top(bases, stack.boundary, cutoff)
    assert taken < len(bases[cutoff + 1])
    full = span_basis(stack.boundary(key) for key in bases[cutoff + 1])
    assert quotients[cutoff].dim_cycles - quotients[cutoff].dim == full.rank
    assert quotients[cutoff].dim == 0
    # HC_2 != 0: the boundaries never fill the cycles, so every source is taken
    cutoff = 2
    bases = [_tot_keys(stack, n) for n in range(cutoff + 2)]
    boundary = lambda key: _tot_boundary(stack, key)
    quotients, taken = _homology_counting_top(bases, boundary, cutoff)
    assert taken == len(bases[cutoff + 1])
    full = span_basis(boundary(key) for key in bases[cutoff + 1])
    assert quotients[cutoff].dim_cycles - quotients[cutoff].dim == full.rank
    assert quotients[cutoff].dim == 5


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_algebra_closed_form_at_cutoff_4(m):
    """Q[Z/m]: HH is the class functions in degree 0 only, and HC_{2j} = HH_0."""
    report = eg.compute_cyclic(eg.builtin_algebra(f"cyclic_{m}"), 4)
    assert report.hh_dims == [m, 0, 0, 0, 0]
    assert report.hc_dims == [m, 0, m, 0, m]
    assert _sbi_exact(report)


def _two_pass_quotients(bases, boundary, cutoff):
    """Reference route: for each degree, a kernel pass for the cycles and a
    second pass over every boundary image, in Fraction arithmetic.  Both
    passes take the sources in the engine's elimination_order, so that the
    representatives agree entry by entry; the boundary pass never stops
    early, so it also checks the engine's early stop of the top pass."""

    def image(key):
        return {k: Fraction(c) for k, c in boundary(key).items()}

    quotients = []
    for p in range(cutoff + 1):
        if p == 0:
            cycles = [{key: Fraction(1)} for key in bases[0]]
        else:
            order = elimination_order(bases[p])
            cycles, _ = kernel_vectors((key, image(key)) for key in order)
        boundaries = span_basis(image(key) for key in elimination_order(bases[p + 1]))
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
    """HH entry by entry against the two-pass route; HC, whose
    representatives are model cycles, by its dimensions, S/B/I ranks and
    exactness nodes against the two-pass elimination of Tot."""
    cutoff = 3
    report = eg.compute_cyclic(eg.builtin_algebra(name), cutoff)
    stack = report.stack
    oracle = _tot_report(
        stack, cutoff, lambda bases, boundary: _two_pass_quotients(bases, boundary, cutoff)
    )
    assert [q.dim for q in oracle.hh] == report.hh_dims
    for mine, theirs in zip(report.hh, oracle.hh):
        # the oracle's boundary rows are its full boundary span
        assert mine.dim_cycles - mine.dim == theirs._basis.rank - theirs.dim
        _same_columns(mine.representatives, theirs.representatives)
    _assert_matches_tot(report, oracle)


def _half_unit_dual_numbers():
    # basis e0, e1 with e0 e0 = 2 e0, e0 e1 = e1 e0 = 2 e1, e1 e1 = 0:
    # the unit is e0 / 2, not a basis vector
    return eg.load_algebra(
        eg.AlgebraSpec(
            name="half_unit_dual_numbers",
            dim=2,
            products={(0, 0): {0: 2}, (0, 1): {1: 2}, (1, 0): {1: 2}},
            unit={0: Fraction(1, 2)},
        )
    )


def _unnormalized_oracle(spec, cutoff):
    """HH/HC dims and the S, B, I ranks from the unnormalized complex: every
    tuple, b from spec.product_vec, B = (1 - t) s N, no change of basis."""

    def tuples(p):
        return list(itertools.product(range(spec.dim), repeat=p + 1))

    def b(key):
        p = len(key) - 1
        out = {}
        for i in range(p):
            for k, c in spec.product_vec(key[i], key[i + 1]).items():
                add_term(out, key[:i] + (k,) + key[i + 2 :], (-1) ** i * c)
        for k, c in spec.product_vec(key[p], key[0]).items():
            add_term(out, (k,) + key[1:p], (-1) ** p * c)
        return out

    def t(key):
        return key[-1:] + key[:-1], (-1) ** (len(key) - 1)

    def B(key):
        norm, current, sign = {}, key, 1
        for _ in range(len(key)):
            add_term(norm, current, sign)
            current, step = t(current)
            sign *= step
        out = {}
        for k, c in norm.items():
            for u, cu in spec.unit.items():
                inserted = (u,) + k
                rotated, step = t(inserted)
                add_term(out, inserted, c * cu)
                add_term(out, rotated, -step * c * cu)
        return out

    def tot_boundary(tot_key):
        j, key = tot_key
        out = {(j, k): c for k, c in b(key).items()} if len(key) > 1 else {}
        out.update(((j - 1, k), c) for k, c in (B(key).items() if j else ()))
        return out

    hh_q = _two_pass_quotients([tuples(p) for p in range(cutoff + 2)], b, cutoff)
    tot = [[(j, k) for j in range(n // 2 + 1) for k in tuples(n - 2 * j)] for n in range(cutoff + 2)]
    hc_q = _two_pass_quotients(tot, tot_boundary, cutoff)
    ranks = _sbi_ranks(*_tot_maps(hh_q, hc_q, B, cutoff))
    return [q.dim for q in hh_q], [q.dim for q in hc_q], ranks


# non-semisimple, with HC_odd != 0: the cutoff and HC of each; HC_1 of the
# square-zero algebra Q + Q^2 is Lambda^2 Q^2 by hand
_EXPECTED_HC = {"square_zero": (5, [3, 1, 5, 4, 9, 10]), "two_squares": (4, [4, 1, 5, 2, 6])}


@pytest.mark.parametrize(
    "name",
    ["ground_field", "dual_numbers", "cyclic_2", "cyclic_3", "upper_triangular_2",
     "half_unit_dual_numbers", *_EXPECTED_HC],
)
def test_normalized_engine_matches_unnormalized_oracle(name):
    cutoff, hc_dims = _EXPECTED_HC.get(name, (3, None))
    spec = _spec(name)
    report = eg.compute_cyclic(spec, cutoff)
    oracle_hh, oracle_hc, ranks = _unnormalized_oracle(spec, cutoff)
    assert report.hh_dims == oracle_hh
    assert report.hc_dims == oracle_hc
    assert hc_dims is None or report.hc_dims == hc_dims
    assert _report_ranks(report) == ranks
