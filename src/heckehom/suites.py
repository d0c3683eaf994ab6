"""Verification suites: every identity the library claims, run as a case list.

Each case carries an id, a human-readable statement of the claim being
checked, its parameters, and rendered expected/actual values.  Suites are
deterministic: the same configuration and seed produce the same report,
byte for byte.
"""

from __future__ import annotations

import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import takewhile
from math import comb

from .laurent import LaurentQ, NotDivisible, ONE, Q, qpow
from .weyl import E, WeylWord, all_words, bruhat_leq, st_power, word_mul
from .hecke import (
    HeckeElement,
    basis,
    evaluate_at_one,
    one as hecke_one,
    r_polynomial,
    r_polynomial_from_inverse,
    r_polynomial_recursive,
    t_inverse,
    t_mul,
)
from .hh0 import HH0Class, reduce_to_hh0
from .hh0_oracle import TruncatedTraceOracle
from . import spectral as sp
from . import torus as tr
from . import engine as eg

DEFAULT_ENGINE_ALGEBRAS = (
    "ground_field",
    "dual_numbers",
    "cyclic_2",
    "cyclic_3",
    "cyclic_4",
    "upper_triangular_2",
)

# homology dimensions derived independently, as a rule over the degree:
# (HH_0, HH_p for every p >= 1, HC_0), with HC_p = HC_0 for even p and 0 for
# odd p (``_oracle_dims``).  The ground field and separable group algebras
# have vanishing higher HH and two-periodic HC; the dual numbers have
# one-dimensional HH_p for p >= 1 and HC forced to [2, 0, 2, 0, ...] by the
# long exact sequence together with HC_1 = (forms)/(exact forms) = 0; the
# 2x2 upper-triangular algebra has the homology of its diagonal; the 2x2
# matrices have the homology of the ground field (Morita invariance).
ENGINE_ORACLE_DIMS = {
    "ground_field": (1, 0, 1),
    "dual_numbers": (2, 1, 2),
    **{f"cyclic_{m}": (m, 0, m) for m in range(2, 7)},
    "upper_triangular_2": (2, 0, 2),
    "matrix_2": (1, 0, 1),
}


def _oracle_dims(hh_0: int, hh_p: int, hc_0: int, cutoff: int) -> tuple[list, list]:
    """HH_0..HH_cutoff and HC_0..HC_cutoff by the rule of ENGINE_ORACLE_DIMS."""
    return [hh_0] + [hh_p] * cutoff, [0 if p % 2 else hc_0 for p in range(cutoff + 1)]


# the largest n of a Hecke-side suite or table, and the largest word length of
# rpoly and of the hh0 oracle: t_inverse recurses once per letter, so a cold
# inverse of (st)^n ends in RecursionError from n = 495, and the work grows fast
# (table commutator: 1.1 s at n = 100, 8-11 s at 200; the hh0 oracle from
# characters, built and solved on every word in process, 0.08 s and 0.36 s)
HECKE_BOUND = 100
_TORUS_SWEEP_CAP = 20_000  # exhaustive windowed sweeps stay below this basis size
_TORUS_SQUARE_CAP = 1_000_000  # the square check's boundary sources stay below this


class ConfigError(ValueError):
    """Invalid suite configuration (reported separately from failures)."""


class SuiteConfig(namedtuple(
    "SuiteConfig",
    "nmax lmax reduce_oracle_cutoff torus_ranks torus_window engine_cutoff engine_spec_files seed",
    defaults=(20, 14, 8, (1, 2), 2, 4, (), 20260810),
)):
    """The sizes and seed of a run, one field per ``verify`` option, with
    tuples for the repeatable ones.  It is frozen, so the plans computed
    once from it (``torus_plan``, ``engine_specs``) stay true to its fields;
    it keeps an instance dict, which those cached properties fill directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"SuiteConfig is frozen: cannot set {name!r}")

    def validate(self, targets: tuple[str, ...] | None = None) -> None:
        """Check every field, then the sizes of the suites in targets (all when
        None) only: nmax, lmax and the oracle cutoff for the Hecke-side suites
        that read them, the torus plan of ranks and window for "torus", the algebras for "engine"."""
        targets = SUITE_TARGETS if targets is None else targets
        for name, value in [
            ("nmax", self.nmax),
            ("lmax", self.lmax),
            ("reduce_oracle_cutoff", self.reduce_oracle_cutoff),
            ("torus_window", self.torus_window),
        ]:
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.engine_cutoff < 0:
            raise ConfigError("engine_cutoff must be nonnegative")
        if any(r < 1 for r in self.torus_ranks):
            raise ConfigError("torus ranks must be positive")
        _reject_repeats("torus rank", self.torus_ranks)
        for name, value, readers in [
            ("nmax", self.nmax, ("rpoly", "hh0", "clozel", "commutator", "geomlemma")),
            ("lmax", self.lmax, ("rpoly",)),
            ("reduce_oracle_cutoff", self.reduce_oracle_cutoff, ("hh0",)),
        ]:
            if value > HECKE_BOUND and set(readers) & set(targets):
                raise ConfigError(f"{name} must be at most {HECKE_BOUND}, got {value}")
        if "torus" in targets:
            self.torus_plan  # planning the torus suite checks its sizes
        if "engine" in targets:
            # load every algebra now: a bad spec file or an algebra too large
            # for the cutoff stops the run before any suite
            _reject_repeats("engine algebra", [spec.name for spec in self.engine_specs])

    @cached_property
    def torus_plan(self) -> dict[int, tuple[int, list[int], list[int]]]:
        """Each torus rank, in --rank order, with its identity window, the
        degrees its identities sweep and its square-check degrees, read from
        the ranks and the window alone: every size rule of the torus suite,
        decided without building a power over a cap."""
        plan, side = {}, 2 * self.torus_window + 1
        for rank in self.torus_ranks:
            # both caps grow with the degree, so each list stops at its first
            # misfit; the identities' own window keeps their sweeps exhaustive.
            # No case may run over zero degrees, nor only over 0, where b is zero
            window = 2 if rank == 1 else 1
            swept = list(takewhile(
                lambda p: eg.within(2 * window + 1, rank * (p + 1), _TORUS_SWEEP_CAP),
                range(rank + 2),
            ))
            if len(swept) < 2:
                raise ConfigError(
                    f"torus rank {rank}: the chain-identity sweep at window {window} "
                    f"covers no degree above 0 within {_TORUS_SWEEP_CAP} tuples"
                )
            degrees = list(takewhile(
                lambda p: eg.within(side, rank * (p + 2), _TORUS_SQUARE_CAP), range(rank + 1)
            ))
            if not degrees:
                raise ConfigError(
                    f"torus rank {rank}: the square check at window {self.torus_window} "
                    f"fits no degree within {_TORUS_SQUARE_CAP} boundary sources"
                )
            plan[rank] = (window, swept, degrees)
        return plan

    @cached_property
    def engine_specs(self) -> list[eg.AlgebraSpec]:
        """The default built-ins, then the algebras of engine_spec_files, each
        loaded once and held to the engine's guard as it loads, a spec file
        before its O(dim^5) checks; ConfigError names the first too large."""

        def guarded(spec: eg.AlgebraSpec) -> eg.AlgebraSpec:
            try:
                eg._guard(spec, self.engine_cutoff)
            except eg.TooLarge as err:
                raise ConfigError(
                    f"algebra {spec.name!r} at engine cutoff {self.engine_cutoff}: {err}"
                ) from None
            return spec

        builtins = [guarded(eg.builtin_algebra(name)) for name in DEFAULT_ENGINE_ALGEBRAS]
        check = lambda spec: eg.load_algebra(guarded(spec))
        return builtins + [eg.load_algebra_file(path, check) for path in self.engine_spec_files]


def csv_text(rows) -> str:
    """The rows as CSV, each line ended by a bare newline."""
    import csv  # only --format csv reads it

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _reject_repeats(what: str, values) -> None:
    """A repeated value would repeat its cases, and their ids, in one report."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} {value!r} is given twice")


Case = namedtuple("Case", "id claim params expected actual passed")


class SuiteReport:
    def __init__(self, suite: str, seed: int):
        self.suite, self.seed, self.cases = suite, seed, []

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def add(self, case_id: str, claim: str, params: dict, expected, actual) -> None:
        exp, act = str(expected), str(actual)
        self.cases.append(Case(case_id, claim, params, exp, act, exp == act))

    def add_bool(self, case_id: str, claim: str, params: dict, ok: bool, detail: str = "") -> None:
        self.cases.append(Case(case_id, claim, params, "pass", "pass" if ok else f"fail {detail}".strip(), ok))

    def check(self, case_id: str, claim: str, params: dict, failures) -> None:
        """A boolean case decided by a lazy stream of witness strings: it
        passes when failures is empty, and otherwise fails with the first
        witness, reading nothing after it."""
        first = next(iter(failures), None)
        self.add_bool(case_id, claim, params, first is None, first or "")

    def extend(self, other: SuiteReport) -> None:
        self.cases.extend(other.cases)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [
                {
                    "id": c.id,
                    "claim": c.claim,
                    "params": c.params,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}   seed: {self.seed}"]
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in c.params.items())
            line = f"[{status}] {c.id} — {c.claim}"
            if params:
                line += f"  ({params})"
            if not c.passed:
                line += f"\n       expected: {c.expected}\n       actual:   {c.actual}"
            lines.append(line)
        lines.append(
            f"{sum(c.passed for c in self.cases)}/{len(self.cases)} checks passed"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        header = ["id", "claim", "params", "expected", "actual", "pass"]
        rows = (
            [c.id, c.claim, json.dumps(c.params, sort_keys=True), c.expected, c.actual, c.passed]
            for c in self.cases
        )
        return csv_text([header, *rows])

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


# ---------------------------------------------------------------------------
# random element generation (seeded; the seed is echoed in every report)


def _random_word(rng: random.Random, max_length: int) -> WeylWord:
    length = rng.randint(0, max_length)
    if length == 0:
        return E
    return WeylWord(length, rng.choice("st"))


def _random_laurent(rng: random.Random) -> LaurentQ:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-2, 2)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LaurentQ(terms)


def _random_hecke(rng: random.Random, max_length: int) -> HeckeElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[_random_word(rng, max_length)] = _random_laurent(rng)
    return HeckeElement(terms)


# ---------------------------------------------------------------------------
# individual suites


def suite_hecke(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("hecke", cfg.seed)
    rng = random.Random(cfg.seed)

    for letter in "st":
        g = basis(WeylWord(1, letter))
        expected = basis(WeylWord(1, letter)).scale(Q - 1) + hecke_one().scale(Q)
        report.add(
            f"hecke/quadratic/{letter}",
            f"T[{letter}]^2 = (q-1)*T[{letter}] + q*T[e]",
            {"generator": letter},
            expected,
            t_mul(g, g),
        )
    report.add(
        "hecke/lengths-add",
        "T[s]*T[t] = T[st]",
        {},
        basis(WeylWord.parse("st")),
        t_mul(basis(WeylWord(1, "s")), basis(WeylWord(1, "t"))),
    )

    a = _random_hecke(rng, 6)
    report.add_bool(
        "hecke/identity",
        "T[e]*a = a = a*T[e] for a random a",
        {"support": [str(w) for w in a.support()]},
        t_mul(hecke_one(), a) == a and t_mul(a, hecke_one()) == a,
    )

    triples = ([_random_hecke(rng, 6) for _ in range(3)] for _ in range(25))
    report.check(
        "hecke/associativity",
        "(a*b)*c = a*(b*c) for seeded random elements, support length <= 6",
        {"cases": 25, "seed": cfg.seed},
        (
            f"case {k}"
            for k, (x, y, z) in enumerate(triples)
            if t_mul(t_mul(x, y), z) != t_mul(x, t_mul(y, z))
        ),
    )
    report.check(
        "hecke/inverse-contract",
        "T[w]*T[w]^-1 = T[e] = T[w]^-1*T[w] for all l(w) <= 20",
        {"lmax": 20},
        (
            str(w)
            for w in all_words(20)
            for inv in [t_inverse(w)]
            if t_mul(basis(w), inv) != hecke_one() or t_mul(inv, basis(w)) != hecke_one()
        ),
    )
    report.check(
        "hecke/specialize-q1",
        "at q = 1 the product collapses to the group algebra: T[x]*T[y] -> T[xy]",
        {"lmax": 5},
        (
            f"{x},{y}"
            for x in all_words(5)
            for y in all_words(5)
            if evaluate_at_one(t_mul(basis(x), basis(y))) != {word_mul(x, y): Fraction(1)}
        ),
    )
    return report


def suite_rpoly(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("rpoly", cfg.seed)
    words = list(all_words(cfg.lmax))
    extract = r_polynomial_from_inverse
    # each claim extracts R on its own pairs: one shared pass would hold every R
    pairs = [(x, w) for w in words for x in words]
    report.check(
        "rpoly/recursion-oracle",
        "extraction from inverse expansion matches the descent recursion",
        {"lmax": cfg.lmax, "pairs": len(pairs)},
        (f"x={x}, w={w}" for x, w in pairs if extract(x, w) != r_polynomial_recursive(x, w)),
    )
    report.check(
        "rpoly/vanishing",
        "R_{x,w} = 0 off the Bruhat order",
        {"lmax": cfg.lmax},
        (f"x={x}, w={w}" for x, w in pairs if not bruhat_leq(x, w) and extract(x, w)),
    )
    report.check(
        "rpoly/degree-law",
        "R_{x,w} is an honest polynomial of degree l(w) - l(x) for x <= w",
        {"lmax": cfg.lmax},
        (
            f"x={x}, w={w}"
            for x, w in pairs
            if bruhat_leq(x, w)
            for r in [extract(x, w)]
            if r.is_zero or r.valuation() < 0 or r.degree() != w.length - x.length
        ),
    )
    report.check(
        "rpoly/diagonal",
        "R_{x,x} = 1",
        {"lmax": cfg.lmax},
        (f"x={x}" for x in words if extract(x, x) != ONE),
    )

    for n in range(1, cfg.nmax + 1):
        report.add(
            f"rpoly/closed-form/{n}",
            "R_{1,(st)^n} = (q-1)(q^{2n-1} - q^{2n-2} + ... - 1)",
            {"n": n},
            r_polynomial(E, st_power(n)),
            r_polynomial_from_inverse(E, st_power(n)),
        )

    for n in range(1, min(cfg.nmax, 10) + 1):
        w = st_power(n)
        signed = {x: (-1) ** x.length * r_polynomial(x, w).shift(-n) for x in all_words(2 * n - 1)}
        report.add(
            f"rpoly/inverse-expansion/{n}",
            "q^n T[(ts)^n]^-1 - q^-n T[(st)^n] = q^-n sum (-1)^l(w) R_{w,(st)^n} T[w]",
            {"n": n},
            HeckeElement(signed),
            t_inverse(w.inverse()).scale(qpow(n)) - basis(w).scale(qpow(-n)),
        )
    return report


_TRACE_PAIRS = 500  # seeded random pairs of the trace-property check


def suite_hh0(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("hh0", cfg.seed)
    rng = random.Random(cfg.seed)

    checks = [
        (basis(WeylWord(1, "s")), HH0Class({"s": ONE})),
        (basis(WeylWord(1, "t")), HH0Class({"t": ONE})),
    ] + [(basis(st_power(n)), HH0Class({n: ONE})) for n in range(cfg.nmax + 1)]
    report.check(
        "hh0/basis-fixed-points",
        "canonical basis elements reduce to themselves",
        {"nmax": cfg.nmax},
        (str(element) for element, expected in checks if reduce_to_hh0(element) != expected),
    )

    pairs = ((_random_hecke(rng, 8), _random_hecke(rng, 8)) for _ in range(_TRACE_PAIRS))
    report.check(
        "hh0/trace-property",
        "reduce(ab) = reduce(ba) for seeded random pairs, support length <= 8",
        {"pairs": _TRACE_PAIRS, "seed": cfg.seed},
        (
            f"case {k}"
            for k, (a, b) in enumerate(pairs)
            if reduce_to_hh0(t_mul(a, b)) != reduce_to_hh0(t_mul(b, a))
        ),
    )

    triples = (
        (_random_hecke(rng, 8), _random_hecke(rng, 8), _random_laurent(rng)) for _ in range(25)
    )
    report.check(
        "hh0/linearity",
        "reduction is LaurentQ-linear",
        {"cases": 25, "seed": cfg.seed},
        (
            f"case {k}"
            for k, (a, b, c) in enumerate(triples)
            if reduce_to_hh0(a.scale(c) + b) != reduce_to_hh0(a).scale(c) + reduce_to_hh0(b)
        ),
    )

    oracle = TruncatedTraceOracle(cfg.reduce_oracle_cutoff)
    for w in all_words(cfg.reduce_oracle_cutoff):
        try:
            expected = oracle.class_of_word(w)
        except (RuntimeError, NotDivisible) as err:
            expected = f"oracle error: {err}"
        report.add(
            f"hh0/oracle/{w}",
            "rewriting reduction matches the character oracle",
            {"word": str(w), "cutoff": cfg.reduce_oracle_cutoff},
            expected,
            reduce_to_hh0(basis(w)),
        )
    return report


def suite_clozel(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("clozel", cfg.seed)
    table = [
        ("Ts", HH0Class({"s": ONE}), HH0Class({"s": ONE})),
        ("Tt", HH0Class({"t": ONE}), HH0Class({"t": ONE})),
        ("E0", HH0Class({0: ONE}), HH0Class({0: ONE})),
    ] + [(f"E{n}", HH0Class({n: ONE}), HH0Class()) for n in range(1, cfg.nmax + 1)]
    for token, element, expected in table:
        image = sp.one_gc(element)
        ok = image == expected and sp.one_gc(image) == image
        report.add_bool(
            f"clozel/{token}",
            "one_gc = 1 - opind.chi_m.pres matches the explicit table and is idempotent",
            {"basis": token},
            ok,
            f"one_gc({token}) = {image}" if not ok else "",
        )
    return report


def suite_commutator(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("commutator", cfg.seed)
    direct = {n: sp.commutator_direct(n) for n in range(-5, cfg.nmax + 1)}
    for n, actual in direct.items():
        report.add(
            f"commutator/direct-vs-closed/{n}",
            "one_gc.pind - pind.one_mc equals the R-polynomial closed form",
            {"n": n},
            sp.commutator_closed_form(n),
            actual,
        )
    for n, actual in direct.items():
        report.add(
            f"commutator/alternative-form/{n}",
            "the commutator equals (pind - opind).chi_m",
            {"n": n},
            sp.commutator_alternative_form(n),
            actual,
        )
    return report


def suite_geomlemma(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("geomlemma", cfg.seed)
    for n in range(-cfg.nmax, cfg.nmax + 1):
        lam = sp.LambdaElement({n: ONE})
        expected = sp.LambdaElement({0: 2} if n == 0 else {n: ONE, -n: ONE})
        report.check(
            f"geomlemma/{n}",
            "pres.pind = 1 + Ad_w = pres.opind on lambda^n",
            {"n": n},
            (f.__name__ for f in (sp.pind_map, sp.opind_map) if sp.pres_map(f(lam)) != expected),
        )

    mono = lambda n: sp.LambdaElement({n: ONE})
    report.check(
        "geomlemma/homomorphism",
        "pind and opind respect products before reduction",
        {"range": 6},
        (
            f"m={m}, n={n}, map={image.__name__}"
            for m in range(-6, 7)
            for n in range(-6, 7)
            for image in (sp.pind_hecke, sp.opind_hecke)
            if t_mul(image(mono(m)), image(mono(n))) != image(mono(m + n))
        ),
    )
    return report


# the chain identities the torus sweep checks on every windowed tuple, in
# report order: the name of each in ``hochschild.IDENTITIES``, its claim
_TORUS_IDENTITIES = {
    "b-squared": "b^2 = 0 on all windowed chains",
    "normalized-identities": "B^2 = 0 and bB + Bb = 0 on normalized windowed chains",
    "class-action-commutes": "the compact-part projection commutes with b, t and B on chains",
}


def suite_torus(cfg: SuiteConfig) -> SuiteReport:
    """The torus cases at the windows and degrees of cfg.torus_plan, which decides every size."""
    report = SuiteReport("torus", cfg.seed)

    for rank, (window, swept, _) in cfg.torus_plan.items():
        failed = tr.chain_identity_failures(rank, window, dict.fromkeys(_TORUS_IDENTITIES, swept))
        for name, claim in _TORUS_IDENTITIES.items():
            report.add_bool(
                f"torus/{name}/r{rank}",
                claim,
                {"rank": rank, "window": window, "degrees": swept},
                name not in failed,
                failed.get(name, ""),
            )

    for rank, (_, _, wanted) in cfg.torus_plan.items():
        # an SBI instance at p needs H_{p+1}, so chains two degrees up; it
        # is checked on the small degrees p <= 1
        sbi = [p for p in wanted if p <= 1]
        top = max(wanted + [p + 1 for p in sbi])
        ladder = tr._invariant_sector_dims(rank, cfg.torus_window, top)
        pi0_after_b = {}
        for p in wanted:
            commutes, consistent, constant, pi0_after_b[p] = tr.homology_square_check(
                rank, cfg.torus_window, p
            )
            report.add_bool(
                f"torus/square/r{rank}/p{p}",
                "hkr.class_action = pi0.hkr up to boundaries on windowed cycles",
                {
                    "rank": rank,
                    "window": cfg.torus_window,
                    "degree": p,
                    "dim_cycles": ladder[p].dim_cycles,
                    "dim_boundaries": ladder[p].dim_cycles - ladder[p].dim,
                    "dim_invariant": ladder[p].dim,
                    "hkr_b_constant": None if constant is None else str(constant),
                    "pass": commutes and consistent,
                },
                commutes and consistent,
            )
            report.add(
                f"torus/invariant-dim/r{rank}/p{p}",
                "the invariant part of windowed HH_p has dimension C(rank, p)",
                {"rank": rank, "window": cfg.torus_window, "degree": p},
                comb(rank, p),
                ladder[p].dim,
            )
            vacuous = p >= rank
            report.add_bool(
                f"torus/hkr-b-constant/r{rank}/p{p}",
                "hkr.B = c_p * d.hkr on windowed normalized chains, c_p nonzero",
                {
                    "rank": rank,
                    "window": cfg.torus_window,
                    "degree": p,
                    "c_p": str(constant),
                    "vacuous": vacuous,
                },
                consistent and (vacuous or constant not in (None, 0)),
            )

        for p in sbi:
            ok = tr.compact_part_of_b_image_is_boundary(ladder[p], ladder[p + 1])
            report.add_bool(
                f"torus/sbi-instance/r{rank}/p{p}",
                "class_action(B(z)) is a boundary for every windowed invariant cycle z",
                {"rank": rank, "window": cfg.torus_window, "degree": p},
                ok,
            )
        report.check(
            f"torus/pi0-after-B/r{rank}",
            "pi0.hkr.B = 0 on normalized windowed chains",
            {"rank": rank, "window": cfg.torus_window, "degrees": wanted},
            (pi0_after_b[p] for p in wanted if pi0_after_b[p] is not None),
        )
    return report


def _raised(error: type[Exception], build) -> Exception | None:
    """The error of that type that build() raised, or None when it returned;
    without its traceback, whose frames would keep the caller's locals alive."""
    try:
        build()
    except error as err:
        return err.with_traceback(None)
    return None


def suite_engine(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("engine", cfg.seed)

    # e1*e1 = e2 but e1*e2 = 1 while e2*e1 = 0, so (e1 e1) e1 != e1 (e1 e1)
    bad = eg.AlgebraSpec(
        name="bad",
        dim=3,
        products={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
                  (2, 0): {2: 1}, (1, 1): {2: 1}, (1, 2): {0: 1}},
        unit={0: 1},
    )
    err = _raised(eg.NotAssociative, lambda: eg.load_algebra(bad))
    report.add_bool(
        "engine/not-associative",
        "a non-associative table is rejected with a witness triple",
        {},
        err is not None and err.witness == (1, 1, 1),
    )
    nounit = eg.AlgebraSpec(name="nounit", dim=1, products={(0, 0): {0: 1}}, unit=None)
    report.add_bool(
        "engine/no-unit",
        "a spec without a unit vector is rejected",
        {},
        _raised(eg.NoUnit, lambda: eg.load_algebra(nounit)) is not None,
    )
    report.add_bool(
        "engine/size-guard",
        "chain spaces beyond the guard raise TooLarge",
        {"guard": eg.CHAIN_GUARD},
        _raised(eg.TooLarge, lambda: eg.compute_hochschild(eg.builtin_algebra("cyclic_6"), 6)) is not None,
    )

    for spec in cfg.engine_specs:
        cutoff = cfg.engine_cutoff
        result = eg.compute_cyclic(spec, cutoff)
        indicator = None if spec.group_table is None else eg.class_weight(spec, {0: 1})
        # both identity cases come from one sweep, on the stack compute_cyclic
        # built: the precyclic identities in degrees 1..min(cutoff + 1, 3),
        # face pairs from 2, where faces compose, and the weight in 0..cutoff
        top = min(cutoff + 1, 3)
        wanted = {"precyclic-identities": range(1, top + 1)}
        if indicator is not None:
            wanted["class-action-commutes"] = range(cutoff + 1)
        failed = result.stack.verify_structure_identities(wanted, indicator)
        report.add_bool(
            f"engine/{spec.name}/precyclic-identities",
            "d_i d_j = d_{j-1} d_i for i < j and t^(p+1) = 1 on the chain stack",
            {"algebra": spec.name, "degrees": f"<= {top}"},
            "precyclic-identities" not in failed,
            failed.get("precyclic-identities", ""),
        )

        rule = ENGINE_ORACLE_DIMS.get(spec.name)
        oracle = _oracle_dims(*rule, cutoff) if rule else ()
        for kind, name, expected, actual in zip(
            ("hh", "hc"), ("Hochschild", "cyclic"), oracle, (result.hh_dims, result.hc_dims)
        ):
            report.add(
                f"engine/{spec.name}/{kind}-dims",
                f"{name} dimensions match the hand-derived oracle",
                {"algebra": spec.name, "cutoff": cutoff},
                expected,
                actual,
            )
        report.add(
            f"engine/{spec.name}/degree-0",
            "HC_0 = HH_0 (degree-zero coincidence)",
            {"algebra": spec.name},
            result.hh_dims[0],
            result.hc_dims[0],
        )
        for node in result.exactness:
            report.add_bool(
                f"engine/{spec.name}/exact/{node.node.replace(' ', '')}",
                "the S-B-I long sequence is exact at this node",
                {
                    "algebra": spec.name,
                    "node": node.node,
                    "rank_in": node.rank_in,
                    "rank_out": node.rank_out,
                    "dim": node.dim,
                },
                node.exact,
            )

        if indicator is not None:
            report.add_bool(
                f"engine/{spec.name}/class-action-commutes",
                "the class-function idempotent commutes with every structure map",
                {"algebra": spec.name, "function": "indicator of the identity"},
                "class-action-commutes" not in failed,
                failed.get("class-action-commutes", ""),
            )
            everything = eg.class_weight(spec, {g: 1 for g in range(spec.dim)})
            report.add_bool(
                f"engine/{spec.name}/idempotent-commutator",
                "[e, F]^2 = 0 on cyclic homology for class-function idempotents",
                {"algebra": spec.name},
                eg.idempotent_commutator_square_is_zero(result, everything, indicator),
            )
    return report


_SUITES = {
    "hecke": suite_hecke,
    "rpoly": suite_rpoly,
    "hh0": suite_hh0,
    "clozel": suite_clozel,
    "commutator": suite_commutator,
    "geomlemma": suite_geomlemma,
    "torus": suite_torus,
    "engine": suite_engine,
}
SUITE_TARGETS = tuple(_SUITES)


def run_suite(target: str, cfg: SuiteConfig) -> SuiteReport:
    if target != "all" and target not in _SUITES:
        raise ConfigError(
            f"unknown suite {target!r}; choose from all, {', '.join(SUITE_TARGETS)}"
        )
    names = SUITE_TARGETS if target == "all" else (target,)
    cfg.validate(names)
    if target == "all":
        combined = SuiteReport("all", cfg.seed)
        for name in names:
            combined.extend(_SUITES[name](cfg))
        return combined
    return _SUITES[target](cfg)
