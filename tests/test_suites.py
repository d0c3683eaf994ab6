"""SuiteReport.check, and a negative control for every case it decides."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from heckehom import engine as eg
from heckehom import hecke, suites
from heckehom import hochschild as hh
from heckehom import spectral as sp
from heckehom import torus as tr
from heckehom.hh0 import HH0Class
from heckehom.laurent import LaurentQ
from heckehom.sparse import add_into, add_term
from heckehom.weyl import WeylWord, all_words, word_mul


def test_check_reads_nothing_after_the_first_witness():
    def failures():
        yield "first"
        raise AssertionError("read past the first witness")

    report = suites.SuiteReport("x", 0)
    report.check("x/fails", "claim", {}, failures())
    report.check("x/passes", "claim", {}, iter(()))
    (failed, passed) = report.cases
    assert (failed.passed, failed.actual) == (False, "fail first")
    assert (passed.passed, passed.actual) == (True, "pass")


def _wrap(monkeypatch, module, name, wrong):
    """Replace module.name by wrong(original)."""
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))


def _inverse_with_a_longer_term(monkeypatch):
    # fill the cache first, so the wrapper adds one term T_w' with
    # l(w') = l(w) + 2 and does not feed its own recursion
    monkeypatch.setattr(hecke, "_INVERSE_CACHE", {})
    for word in all_words(6):
        hecke.t_inverse(word)
    _wrap(
        monkeypatch,
        hecke,
        "t_inverse",
        lambda f: lambda w: f(w) + hecke.basis(WeylWord(w.length + 2, "s")),
    )


def _kernel_without_its_difference(monkeypatch):
    # T_x T_g^-1 taken as q^-1 T_{xg} when xg > x: the (q^-1 - 1) T_x term
    # is dropped, so T_s^-1 comes out as q^-1 T_s
    def broken(a, g):
        out = {}
        for x, c in a.terms.items():
            xg = word_mul(x, WeylWord(1, g))
            add_term(out, xg, c if xg.length < x.length else c.shift(-1))
        return hecke.HeckeElement(out)

    monkeypatch.setattr(hecke, "_INVERSE_CACHE", {})
    monkeypatch.setattr(hecke, "_times_generator_inverse", broken)


def _opind_map_doubled(monkeypatch):
    correct = sp.opind_map

    def opind_map(x):
        return correct(x) + correct(x)

    monkeypatch.setattr(sp, "opind_map", opind_map)


def _product_plus_left(monkeypatch):
    _wrap(monkeypatch, suites, "t_mul", lambda f: lambda a, b: f(a, b) + a)


def _long_words_doubled(f):
    return lambda a: f(a) + f(a) if any(w.length >= 4 for w in a.support()) else f(a)


def _added(out, image, coeff):
    """A wrong image as boundary and connes_B return it: coeff * image added
    into out.  image may be a face of a ``LabelProduct``, one tuple."""
    image = {image: 1} if isinstance(image, tuple) else image
    return add_into({} if out is None else out, image, coeff)


def _last_face_dropped_in_degree_1(f):
    # b without its last face on every tuple is the bar differential, which
    # also squares to zero; dropped on degree-1 tuples only, b^2 fails in degree 2
    return lambda key, mul, out=None, coeff=1: (
        _added(out, hh.face(key, 0, mul), coeff) if len(key) == 2 else f(key, mul, out, coeff)
    )


def _first_term_doubled(f):
    def doubled(key, arg, out=None, coeff=1):
        image = dict(f(key, arg))
        if image:
            image[next(iter(image))] *= 2
        return _added(out, image, coeff)

    return doubled


def _on_key(target, wrong):
    """f(key, ...) on every tuple but target, wrong(f, key, ...) on target."""
    return lambda f: lambda key, *rest: wrong(f, key, *rest) if key == target else f(key, *rest)


def _with_unit_term(f, key, unit, out=None, coeff=1):
    # a term on a tuple with the unit in front that is no rotation of key,
    # so b of it is in no table built from the orbit's rotations
    return _added(out, {**f(key, unit), (unit,) + key[::-1]: 1}, coeff)


def _second_face_is_the_first(f):
    # d_1 replaced by d_0: on Q[Z/3] the first identity it breaks is at degree 3
    return lambda key, i, mul: f(key, 0 if i == 1 else i, mul)


def _labels(*vectors):
    """A torus tuple of lattice vectors, as the tuple of their int labels."""
    return tuple(map(tr.encode, vectors))


_TORUS_R1 = {"torus_ranks": (1,), "torus_window": 1}
_TORUS_R2 = {"torus_ranks": (2,), "torus_window": 1}


def _chi_m_keeping_lambda_0(monkeypatch):
    monkeypatch.setattr(
        sp, "chi_m", lambda x: sp.LambdaElement({n: c for n, c in x.terms.items() if n >= 0})
    )


def _returns_past_the_guard(f):
    # returns where it should raise TooLarge, so nothing oversized ever starts
    def compute_hochschild(spec, cutoff):
        try:
            return f(spec, cutoff)
        except eg.TooLarge:
            return None

    return compute_hochschild


def _hc_0_plus_1(f):
    def compute_cyclic(spec, cutoff):
        report = f(spec, cutoff)
        report.hc_dims[0] += 1
        return report

    return compute_cyclic


def _accepts_every_spec(f):
    return lambda spec: spec


def _oracle_rule_plus_1(entry):
    """One more at one entry of the dual numbers' oracle rule (HH_0, HH_p for
    p >= 1, HC_0): the expected side of the hh-dims and hc-dims cases."""

    def mutate(monkeypatch):
        rule = list(suites.ENGINE_ORACLE_DIMS["dual_numbers"])
        rule[entry] += 1
        monkeypatch.setitem(suites.ENGINE_ORACLE_DIMS, "dual_numbers", tuple(rule))

    return mutate


def _compact_reads_first_entry(monkeypatch):
    monkeypatch.setattr(tr, "_compact", lambda key: int(not key[0]))  # the first label is 0


def _without_s_maps(f):
    def build_sbi_maps(report):
        i_maps, _, b_maps = f(report)
        return i_maps, {}, b_maps

    return build_sbi_maps


# case id, suite, config, mutation, the first witness in order of the stream;
# for a value case, its (expected, actual)
BROKEN = [
    (
        "hecke/quadratic/s",
        "hecke",
        {},
        _product_plus_left,
        ("q*T[e] + (-1 + q)*T[s]", "q*T[e] + q*T[s]"),
    ),
    # the factors swapped: the opposite algebra, still associative and unital
    (
        "hecke/lengths-add",
        "hecke",
        {},
        lambda m: _wrap(m, suites, "t_mul", lambda f: lambda a, b: f(b, a)),
        ("T[st]", "T[ts]"),
    ),
    ("hecke/identity", "hecke", {}, _product_plus_left, ("pass", "fail")),
    ("hecke/associativity", "hecke", {}, _product_plus_left, "case 0"),
    (
        "hecke/inverse-contract",
        "hecke",
        {},
        lambda m: _wrap(
            m, suites, "t_inverse", lambda f: lambda w: f(w) + f(w) if w.length >= 3 else f(w)
        ),
        "sts",
    ),
    ("hecke/inverse-contract", "hecke", {}, _kernel_without_its_difference, "s"),
    (
        "hecke/specialize-q1",
        "hecke",
        {},
        lambda m: _wrap(m, suites, "word_mul", lambda f: lambda x, y: f(y, x)),
        "s,t",
    ),
    (
        "rpoly/recursion-oracle",
        "rpoly",
        {"lmax": 6, "nmax": 2},
        lambda m: _wrap(
            m,
            suites,
            "r_polynomial_recursive",
            lambda f: lambda x, w: f(x, w).shift(1) if w.length >= 3 else f(x, w),
        ),
        "x=e, w=sts",
    ),
    (
        "rpoly/recursion-oracle",
        "rpoly",
        {"lmax": 6, "nmax": 2},
        _kernel_without_its_difference,
        "x=e, w=s",
    ),
    ("rpoly/vanishing", "rpoly", {"lmax": 6, "nmax": 2}, _inverse_with_a_longer_term, "x=st, w=e"),
    (
        "rpoly/degree-law",
        "rpoly",
        {"lmax": 6, "nmax": 2},
        lambda m: _wrap(
            m,
            suites,
            "r_polynomial_from_inverse",
            lambda f: lambda x, w: f(x, w).shift(1) if w.length == 1 else f(x, w),
        ),
        "x=e, w=s",
    ),
    (
        "rpoly/diagonal",
        "rpoly",
        {"lmax": 6, "nmax": 2},
        lambda m: _wrap(
            m,
            suites,
            "r_polynomial_from_inverse",
            lambda f: lambda x, w: f(x, w) + f(x, w) if w.length >= 2 else f(x, w),
        ),
        "x=st",
    ),
    (
        "hh0/basis-fixed-points",
        "hh0",
        {"nmax": 4, "reduce_oracle_cutoff": 2},
        lambda m: _wrap(m, suites, "reduce_to_hh0", _long_words_doubled),
        "T[stst]",
    ),
    (
        "hh0/trace-property",
        "hh0",
        {"nmax": 4, "reduce_oracle_cutoff": 2},
        _product_plus_left,
        "case 0",
    ),
    (
        "hh0/linearity",
        "hh0",
        {"nmax": 4, "reduce_oracle_cutoff": 2},
        lambda m: _wrap(m, suites, "reduce_to_hh0", lambda f: lambda a: f(a) + HH0Class({"s": 1})),
        "case 0",
    ),
    ("geomlemma/1", "geomlemma", {"nmax": 2}, _opind_map_doubled, "opind_map"),
    (
        "geomlemma/homomorphism",
        "geomlemma",
        {"nmax": 2},
        lambda m: _wrap(m, suites, "t_mul", lambda f: lambda a, b: f(a, b).scale(2)),
        "m=-6, n=-6, map=pind_hecke",
    ),
    (
        "torus/pi0-after-B/r1",
        "torus",
        _TORUS_R1,
        lambda m: m.setattr(tr, "pi0", lambda form: form),
        "((-1,),)",
    ),
    (
        "torus/b-squared/r1",
        "torus",
        _TORUS_R1,
        lambda m: _wrap(m, hh, "boundary", _last_face_dropped_in_degree_1),
        "((-2,), (-2,), (-2,))",
    ),
    (
        "torus/normalized-identities/r1",
        "torus",
        _TORUS_R1,
        lambda m: _wrap(m, hh, "connes_B", _first_term_doubled),
        "((-2,), (-1,))",
    ),
    (
        "torus/class-action-commutes/r1",
        "torus",
        _TORUS_R1,
        _compact_reads_first_entry,
        "((-2,),)",
    ),
    # the same weight breaks the square on tuples such as ((1,), (-1,))
    ("torus/square/r1/p1", "torus", _TORUS_R1, _compact_reads_first_entry, ("pass", "fail")),
    # B sent to zero: hkr . B = c * d . hkr holds only with c = 0
    (
        "torus/hkr-b-constant/r1/p0",
        "torus",
        _TORUS_R1,
        lambda m: m.setattr(tr, "connes_b_key", lambda key: {}),
        ("pass", "fail"),
    ),
    # B without its cyclic norm: B(a, -a) = (0, a, -a) is not a boundary
    (
        "torus/sbi-instance/r1/p1",
        "torus",
        _TORUS_R1,
        lambda m: m.setattr(tr, "connes_b_key", lambda key: {(0,) + key: 1}),
        ("pass", "fail"),
    ),
    # rank 2: each fault on a tuple that is not the smallest rotation of its
    # orbit, where the sweep starts the orbit
    (
        "torus/b-squared/r2",
        "torus",
        _TORUS_R2,
        lambda m: _wrap(
            m,
            hh,
            "boundary",
            _on_key(
                _labels((1, 0), (-1, 1)),
                lambda f, key, mul, out=None, coeff=1: _added(out, hh.face(key, 0, mul), coeff),
            ),
        ),
        "((0, -1), (-1, 1), (1, 1))",
    ),
    (
        "torus/normalized-identities/r2",
        "torus",
        _TORUS_R2,
        lambda m: _wrap(
            m, hh, "connes_B", _on_key(_labels((1, 0), (-1, 1), (0, -1)), _with_unit_term)
        ),
        "((1, 0), (-1, 1), (0, -1))",
    ),
    # b wrong only on the tuples with the unit in front, the B-images whose
    # normalized b the sweep keeps per orbit: of bB + Bb only bB is wrong
    (
        "torus/normalized-identities/r2",
        "torus",
        _TORUS_R2,
        lambda m: _wrap(
            m,
            hh,
            "boundary",
            lambda f: lambda key, *rest: (_first_term_doubled(f) if key[0] == 0 else f)(key, *rest),
        ),
        "((-1, -1), (-1, 0))",
    ),
    (
        "torus/class-action-commutes/r2",
        "torus",
        _TORUS_R2,
        lambda m: _wrap(
            m, tr, "_compact", _on_key(_labels((0, 1), (1, 0), (0, 1)), lambda f, key: 1 - f(key))
        ),
        "((0, 1), (1, 0), (0, 1))",
    ),
    # the ladder's top pass stopped as on a closed complex, once its rank is
    # the number of cycles: the sector's b-images leave the window, so too
    # few of them are inserted
    (
        "torus/invariant-dim/r2/p2",
        "torus",
        _TORUS_R2,
        lambda m: _wrap(
            m, tr, "homology", lambda f: lambda bases, boundary, closed: f(bases, boundary)
        ),
        ("1", "20"),
    ),
    (
        "engine/cyclic_3/precyclic-identities",
        "engine",
        {"engine_cutoff": 2},
        lambda m: _wrap(m, hh, "face", _second_face_is_the_first),
        "d_0 d_2 != d_1 d_0 at degree 3",
    ),
    # a weight that reads only the first entry: B puts the unit in front,
    # so it sends (1,) to (0, 1), which has another weight
    (
        "engine/cyclic_3/class-action-commutes",
        "engine",
        {"engine_cutoff": 2},
        lambda m: m.setattr(
            eg, "class_weight", lambda spec, values: lambda key: values.get(key[0], 0)
        ),
        "tuple (1,)",
    ),
    # the weight flipped on one tuple that is not the smallest rotation of
    # its orbit, where the sweep starts the orbit: its rotations (0, 1, 0)
    # and (1, 0, 0) both fail, and the least of them is the witness
    (
        "engine/cyclic_3/class-action-commutes",
        "engine",
        {"engine_cutoff": 2},
        lambda m: _wrap(
            m,
            eg,
            "class_weight",
            lambda f: lambda spec, values: _on_key((0, 1, 0), lambda g, key: 1 - g(key))(
                f(spec, values)
            ),
        ),
        "tuple (0, 1, 0)",
    ),
    (
        "hh0/oracle/st",
        "hh0",
        {"nmax": 2, "reduce_oracle_cutoff": 2},
        lambda m: m.setattr(LaurentQ, "shift", lambda self, k: self),
        ("oracle error: (-2*q + 2*q^2) is not divisible by (1 + q)", "[E(1)]"),
    ),
    # the lambda^0 term that chi_m keeps reaches one_gc on [Ts], [Tt] and [E(0)]
    (
        "clozel/Ts",
        "clozel",
        {"nmax": 2},
        _chi_m_keeping_lambda_0,
        "one_gc(Ts) = (1 - q)*[E(0)] + [Ts]",
    ),
    *(
        (
            f"commutator/{name}/0",
            "commutator",
            {"nmax": 2},
            _chi_m_keeping_lambda_0,
            ("0", "-2*[E(0)]"),
        )
        for name in ("direct-vs-closed", "alternative-form")
    ),
    (
        "rpoly/inverse-expansion/1",
        "rpoly",
        {"lmax": 1, "nmax": 1},
        _kernel_without_its_difference,
        ("(q^-1 - 2 + q)*T[e] + (q^-1 - 1)*T[s] + (q^-1 - 1)*T[t]", "0"),
    ),
    (
        "rpoly/closed-form/3",
        "rpoly",
        {"lmax": 2, "nmax": 3},
        lambda m: _wrap(
            m,
            suites,
            "r_polynomial",
            lambda f: lambda x, w: f(x, w).shift(1) if w.length - x.length >= 6 else f(x, w),
        ),
        (
            "q - 2*q^2 + 2*q^3 - 2*q^4 + 2*q^5 - 2*q^6 + q^7",
            "1 - 2*q + 2*q^2 - 2*q^3 + 2*q^4 - 2*q^5 + q^6",
        ),
    ),
    (
        "engine/not-associative",
        "engine",
        {"engine_cutoff": 0},
        lambda m: _wrap(m, eg, "load_algebra", _accepts_every_spec),
        ("pass", "fail"),
    ),
    *(
        (f"engine/dual_numbers/{kind}-dims", "engine", {"engine_cutoff": 0},
         _oracle_rule_plus_1(entry), ("[3]", "[2]"))
        for kind, entry in (("hh", 0), ("hc", 2))
    ),
    (
        "engine/ground_field/degree-0",
        "engine",
        {"engine_cutoff": 0},
        lambda m: _wrap(m, eg, "compute_cyclic", _hc_0_plus_1),
        ("1", "2"),
    ),
    # the S maps dropped: HC_2 -> HC_0 is zero, so HC_0 is not the image of S
    (
        "engine/ground_field/exact/HC_0(afterS)",
        "engine",
        {"engine_cutoff": 2},
        lambda m: _wrap(m, eg, "_build_sbi_maps", _without_s_maps),
        ("pass", "fail"),
    ),
    # a validation that skips the unit checks when no unit is given
    (
        "engine/no-unit",
        "engine",
        {"engine_cutoff": 0},
        lambda m: _wrap(
            m, eg, "load_algebra", lambda f: lambda spec: spec if spec.unit is None else f(spec)
        ),
        ("pass", "fail"),
    ),
    (
        "engine/size-guard",
        "engine",
        {"engine_cutoff": 0},
        lambda m: _wrap(m, eg, "compute_hochschild", _returns_past_the_guard),
        ("pass", "fail"),
    ),
]


def _broken_ids(rows):
    """Each row's case id; a later row on the same case also names its witness."""
    ids = []
    for case_id, *_, witness in rows:
        ids.append(f"{case_id}@{witness}" if case_id in ids else case_id)
    return ids


@pytest.mark.parametrize(
    "case_id, suite, config, mutate, witness", BROKEN, ids=_broken_ids(BROKEN)
)
def test_a_broken_statement_fails_with_its_first_witness(
    monkeypatch, case_id, suite, config, mutate, witness
):
    mutate(monkeypatch)
    report = suites._SUITES[suite](suites.SuiteConfig(**config))
    case = next(c for c in report.cases if c.id == case_id)
    shown = ("pass", f"fail {witness}") if isinstance(witness, str) else witness
    assert (case.passed, case.expected, case.actual) == (False, *shown)


# the case families of the default report with no BROKEN row, each with the
# reason that no mutant can make it fail
VACUOUS = {
    "engine/*/idempotent-commutator": "the 'everything' weight acts as the identity and "
    "both actions are diagonal on chains, so [e, F]^2 = 0 on every computed group",
}

# the parts of a case id that name an instance, not a check: a Weyl word, a
# number, a rank r<n> or degree p<n>, an algebra or S-B-I node (each with
# '_'), or a token such as Ts or E0
_INSTANCE = re.compile(r"[st]+|e|[rp]?-?[0-9]+|.*_.*|[A-Z].*")


def _family(case_id: str) -> str:
    """The case family of an id: each instance part replaced by '*'."""
    return "/".join("*" if _INSTANCE.fullmatch(part) else part for part in case_id.split("/"))


def _without_a_row(families, rows) -> set:
    return families - {_family(case_id) for case_id, *_ in rows} - VACUOUS.keys()


def test_every_case_family_has_a_broken_row_or_is_vacuous():
    golden = Path(__file__).with_name("golden") / "verify_all.json"
    families = {_family(case["id"]) for case in json.loads(golden.read_text())["cases"]}
    assert len(families) == 39
    assert {"engine/*/exact/*", "torus/square/*/*", "clozel/*", "geomlemma/*"} <= families
    assert _without_a_row(families, BROKEN) == set()
    # a vacuity entry names a family of the report that has no row
    assert VACUOUS.keys() <= families - {_family(case_id) for case_id, *_ in BROKEN}
    # negative control: a family whose rows are dropped is found
    rows = [row for row in BROKEN if not row[0].startswith("torus/sbi-instance/")]
    assert _without_a_row(families, rows) == {"torus/sbi-instance/*/*"}


def test_every_inverse_expansion_fails_on_a_kernel_without_its_difference(monkeypatch):
    """T_{(ts)^n}^-1 comes out as q^-2n T_{(st)^n}, so each left side is 0,
    and the signed R-polynomial sum on the right is not."""
    _kernel_without_its_difference(monkeypatch)
    report = suites.suite_rpoly(suites.SuiteConfig(lmax=4, nmax=3))
    cases = [c for c in report.cases if c.id.startswith("rpoly/inverse-expansion/")]
    assert [c.id for c in cases] == [f"rpoly/inverse-expansion/{n}" for n in (1, 2, 3)]
    assert all(not c.passed and c.actual == "0" != c.expected for c in cases)
    assert cases[0].expected == "(q^-1 - 2 + q)*T[e] + (q^-1 - 1)*T[s] + (q^-1 - 1)*T[t]"


@pytest.mark.parametrize(
    "wrong",
    [
        # a validation that never rejects
        _accepts_every_spec,
        # a validation that never reads e_1 * e_2, the product the witness needs
        lambda f: lambda spec: f(spec._replace(
            products={pair: vec for pair, vec in spec.products.items() if pair != (1, 2)}
        )),
    ],
    ids=["accepts-all", "skips-a-stored-product"],
)
def test_the_not_associative_case_fails_on_a_wrong_validation(monkeypatch, wrong):
    _wrap(monkeypatch, eg, "load_algebra", wrong)
    report = suites.suite_engine(suites.SuiteConfig(engine_cutoff=0))
    case = next(c for c in report.cases if c.id == "engine/not-associative")
    assert (case.passed, case.actual) == (False, "fail")


def test_an_oracle_value_case_fails_on_a_wrong_class(monkeypatch):
    """The hh0/oracle/<word> cases compare two rendered classes: a reduction
    that adds [Tt] on words of length >= 3 fails sts and still passes st."""

    def tt_added_on_long_words(f):
        def reduce_to_hh0(a):
            long_word = any(w.length >= 3 for w in a.support())
            return f(a) + HH0Class({"t": 1}) if long_word else f(a)

        return reduce_to_hh0

    _wrap(monkeypatch, suites, "reduce_to_hh0", tt_added_on_long_words)
    report = suites.suite_hh0(suites.SuiteConfig(nmax=2, reduce_oracle_cutoff=3))
    cases = {c.id: c for c in report.cases}
    assert not cases["hh0/oracle/sts"].passed and cases["hh0/oracle/st"].passed


def test_each_engine_algebra_builds_one_chain_stack(monkeypatch):
    """compute_cyclic builds the stack, and the identity sweep runs on it;
    the suite reads only public fields of the report."""
    built, read = [], []

    class Counted(eg.ChainStack):
        def __init__(self, spec):
            built.append(spec.name)
            super().__init__(spec)

    class Watched(eg.HomologyReport):
        __slots__ = ()

        def __getattribute__(self, name):
            read.append(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(eg, "ChainStack", Counted)
    _wrap(monkeypatch, eg, "compute_cyclic", lambda f: lambda *args: Watched(*f(*args)))
    cfg = suites.SuiteConfig(engine_cutoff=2)
    assert suites.suite_engine(cfg).passed
    assert Counter(built) == Counter(spec.name for spec in cfg.engine_specs)
    assert len(built) == len(suites.DEFAULT_ENGINE_ALGEBRAS)
    assert {"stack", "exactness"} <= set(read)
    assert [name for name in read if name.startswith("_")] == []


def test_engine_oracle_holds_above_cutoff_4():
    """The oracle is a rule over the degree, so a cutoff above the degrees it
    was once tabulated for compares lists of the same length."""
    report = suites.suite_engine(suites.SuiteConfig(engine_cutoff=5))
    assert [c.id for c in report.cases if not c.passed] == []
    assert len(report.cases) == 131


@pytest.mark.parametrize("entry", range(3))
def test_a_wrong_engine_oracle_rule_fails(monkeypatch, entry):
    """Negative control: one wrong entry of the dual numbers' rule (HH_0,
    HH_p for p >= 1, HC_0) fails its case at cutoff 5."""
    _oracle_rule_plus_1(entry)(monkeypatch)
    monkeypatch.setattr(suites, "DEFAULT_ENGINE_ALGEBRAS", ("dual_numbers",))
    cases = {c.id: c.passed for c in suites.suite_engine(suites.SuiteConfig(engine_cutoff=5)).cases}
    failed = {name for name, passed in cases.items() if not passed}
    kind = "hc" if entry == 2 else "hh"
    assert failed == {f"engine/dual_numbers/{kind}-dims"}


def test_suite_config_is_frozen():
    """A field cannot change after the plans it decides are built."""
    cfg = suites.SuiteConfig(torus_ranks=(4,), torus_window=1)
    cfg.validate(("torus",))
    with pytest.raises(AttributeError):
        cfg.torus_window = 3
    assert cfg.torus_plan == {4: (1, [0, 1], [0, 1])}
