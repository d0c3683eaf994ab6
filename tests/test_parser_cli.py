"""Expression parsing, report formats, CLI behaviour and exit codes."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heckehom.exprparse import MAX_NESTING, ParseError, parse_hecke, parse_laurent
from heckehom.hecke import basis, one
from heckehom.hh0 import class_of_word
from heckehom.laurent import Q, qpow
from heckehom.sparse import exact
from heckehom.weyl import S, T, WeylWord
from heckehom.cli import main
from heckehom.engine import _ALGEBRA_DIR
from heckehom.suites import ConfigError, SuiteConfig, run_suite

from test_hecke import random_element


def parse_scalar(text: str):
    """Parse an exact rational scalar, under the rule of ``sparse.exact``: a
    Laurent polynomial with no power of q but q^0."""
    poly = parse_laurent(text)
    if poly.is_zero:
        return 0
    if set(poly.terms) != {0}:
        raise ParseError("expected a scalar, found powers of q", 0)
    return exact(poly.coefficient(0))


def test_parse_examples():
    assert parse_hecke("T[e]") == one()
    assert parse_hecke("(q-1)*T[s] + q*T[e]") == basis(S).scale(Q - 1) + one().scale(Q)
    assert parse_hecke("q^-2*T[st]") == basis(WeylWord.parse("st")).scale(qpow(-2))
    assert parse_hecke("3/2*q*T[t]") == basis(T).scale(Q * Fraction(3, 2))
    assert parse_laurent("q^-1 + q") == qpow(-1) + Q
    assert parse_scalar("-5/3") == -parse_scalar("5/3")
    assert (parse_scalar("1/2*2"), parse_scalar("3/2")) == (1, Fraction(3, 2))
    assert type(parse_scalar("1/2*2")) is int
    assert parse_hecke("-q + 1") == one().scale(1 - Q)


def test_parse_round_trip_random():
    rng = random.Random(13)
    for _ in range(50):
        element = random_element(rng, max_length=6)
        assert parse_hecke(element.render()) == element


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_hecke("T[s] + @")
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_hecke("T[ss]")
    with pytest.raises(ParseError):
        parse_hecke("q T[s]")  # missing operator
    with pytest.raises(ParseError):
        parse_hecke("T[s]/2")  # division by a non-scalar context
    with pytest.raises(ParseError):
        parse_laurent("T[s]")
    with pytest.raises(ParseError):
        parse_scalar("q")


@pytest.mark.parametrize(
    "entry, text, message, position",
    [
        (parse_hecke, "T", "expected '[' after 'T'", 1),
        (parse_hecke, "Ts", "expected '[' after 'T'", 1),
        (parse_hecke, "T[s", "unterminated 'T[' token", 0),
        (parse_hecke, "@", "unexpected character '@'", 0),
        (parse_hecke, "(q", "expected ')', found ''", 2),
        (parse_hecke, "q T[s]", "unexpected trailing input 's'", 2),
        (parse_hecke, "T[s]/2", "'/' is only defined between scalars", 4),
        (parse_hecke, "1/0", "division by zero", 1),
        (parse_hecke, "T[ss]", "not a reduced alternating word: 'ss'", 0),
        (parse_hecke, "q^", "expected 'int', found ''", 2),
        (parse_hecke, "q^-", "expected 'int', found ''", 3),
        (parse_hecke, "", "unexpected token 'end of input'", 0),
        (parse_hecke, "*", "unexpected token '*'", 0),
        (parse_laurent, "T[s]", "basis token T[s] not allowed here", 0),
        (parse_scalar, "q", "expected a scalar, found powers of q", 0),
    ],
)
def test_parse_error_message_and_position(capsys, entry, text, message, position):
    with pytest.raises(ParseError) as err:
        entry(text)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)
    if entry is parse_hecke:
        assert main(["reduce", text]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err.value}\n")


def _outcome(entry, text) -> list:
    """What entry makes of text: its rendered value (the type and value of a
    scalar), or the ParseError message and position."""
    try:
        value = entry(text)
    except ParseError as err:
        return ["error", str(err), err.position]
    if entry is parse_scalar:
        return [type(value).__name__, str(value)]
    return ["value", value.render()]


def test_parser_matches_golden_corpus():
    # 1,000 strings drawn from a fixed seed: well-formed expressions, some
    # with characters inserted, deleted or replaced, and token soup with
    # '@', 'x', stray 'T', '[', ']' and '^'; each line holds a string and
    # the recorded outcomes of parse_hecke, parse_laurent and parse_scalar
    lines = Path(__file__).with_name("parser_corpus.jsonl").read_text().splitlines()
    assert len(lines) == 1000
    for line in lines:
        text, *expected = json.loads(line)
        actual = [_outcome(entry, text) for entry in (parse_hecke, parse_laurent, parse_scalar)]
        assert actual == expected, text


def test_parse_nesting_is_bounded(capsys):
    nested = "(" * 50 + "q*T[s]" + ")" * 50
    assert parse_hecke(nested) == basis(S).scale(Q)
    too_deep = "(" * (MAX_NESTING + 1) + "T[s]" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse_hecke(too_deep)
    assert err.value.position == MAX_NESTING
    assert main(["reduce", "(" * 3000 + "T[s]" + ")" * 3000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: parentheses nested deeper than")


def test_long_unary_minus_chain_parses():
    assert parse_hecke("-" * 3000 + "T[s]") == basis(S)
    assert parse_hecke("-" * 3001 + "2*T[s]") == basis(S).scale(-2)
    assert parse_scalar("-" * 2999 + "3/4") == Fraction(-3, 4)


def test_reduce_command(capsys):
    assert main(["reduce", "T[ts]"]) == 0
    assert capsys.readouterr().out == "[E(1)]\n"
    assert main(["reduce", "T[s]*T[t] - T[t]*T[s]"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["reduce", "T[sts]"]) == 0
    assert capsys.readouterr().out == "(-1 + q)*[E(1)] + q*[Tt]\n"
    assert main(["reduce", "T[s"]) == 2
    assert "error" in capsys.readouterr().err


def test_reduce_long_odd_words_matches_per_word_classes(capsys):
    # the one-pass reduction against each word's step-by-step rewriting
    def cls(word):
        return class_of_word(WeylWord.parse(word))

    expected = (
        cls("ststs")
        + cls("tstststst").scale(Fraction(1, 2) * Q)
        - cls("sts").scale(Fraction(3, 4) * qpow(-2))
        + cls("tstststststst").scale(Q**2 - Fraction(5, 3))
    )
    text = "T[ststs] + 1/2*q*T[tstststst] - 3/4*q^-2*T[sts] + (q^2 - 5/3)*T[tstststststst]"
    assert main(["reduce", text]) == 0
    assert capsys.readouterr().out == expected.render() + "\n"


_DIGITS = "1" * 5000  # past the interpreter's default limit of 4,300 digits per int
_NINES = "9" * 4000


@pytest.mark.parametrize(
    "expression, message",
    [
        (_DIGITS, "integer of 5000 digits is too long (at position 0)"),
        ("q^" + _DIGITS, "integer of 5000 digits is too long (at position 2)"),
        ("T[s]*" + _DIGITS, "integer of 5000 digits is too long (at position 5)"),
        (f"{_NINES}*{_NINES}", "the class has an integer of more than 4300 digits to print"),
    ],
    ids=["integer", "q-exponent", "factor", "result"],
)
def test_reduce_past_the_digit_limit_exits_2_with_one_line(capsys, expression, message):
    assert main(["reduce", expression]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_table_command(capsys):
    assert main(["table", "rpoly", "1..2"]) == 0
    out = capsys.readouterr().out
    assert "1 - 2*q + q^2" in out
    assert main(["table", "commutator", "0..1"]) == 0
    out = capsys.readouterr().out
    assert "0" in out
    assert main(["table", "pres", "0..1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("0,2")
    assert main(["table", "rpoly", "nonsense"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["rpoly", "0..3"], ["commutator", "--", "-2..2"], ["pres", "0..4"]],
    ids=["rpoly", "commutator", "pres"],
)
def test_table_text_lines_end_without_spaces_and_columns_align(capsys, argv):
    assert main(["table", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 2 and not any(line.endswith(" ") for line in lines)
    # the second column starts at the same place on every line, two spaces
    # after the widest first cell
    width = max(len(line.split("  ")[0]) for line in lines)
    for line in lines:
        first, rest = line[:width].rstrip(), line[width:]
        assert " " not in first and rest.startswith("  ") and rest[2] != " "


def test_table_negative_range_after_double_dash(capsys):
    # argparse reads an argument that starts "-2.." as an option; after
    # "--" it is the range
    assert main(["table", "commutator", "--", "-2..0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["-2", "-1", "0"]
    assert main(["table", "commutator", "--format", "csv", "--", "-2..0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["-2,0", "-1,0", "0,0"]


def test_reduce_expression_with_leading_minus_after_double_dash(capsys):
    # argparse reads an expression that starts with "-" as an option; after
    # "--" it is the expression
    assert main(["reduce", "--", "-T[s]"]) == 0
    assert capsys.readouterr().out == "-[Ts]\n"
    assert main(["reduce", "--format", "json", "--", "-T[s]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"expression": "-T[s]", "class": "-[Ts]"}


def test_verify_exit_codes_and_formats(capsys, tmp_path):
    assert main(["verify", "clozel", "--nmax", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "clozel"
    assert payload["pass"] is True
    assert payload["seed"] == 20260810
    case = payload["cases"][0]
    assert set(case) == {"id", "claim", "params", "expected", "actual", "pass"}

    out_file = tmp_path / "report.csv"
    assert main(["verify", "clozel", "--nmax", "2", "--format", "csv", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "id,claim,params,expected,actual,pass"
    assert len(lines) == 6  # header + Ts, Tt, E0, E1, E2

    assert main(["verify", "clozel", "--nmax", "0"]) == 2  # config error


def test_verify_determinism():
    cfg = SuiteConfig(nmax=4, lmax=4, reduce_oracle_cutoff=4, torus_ranks=(1,), engine_cutoff=2)
    first = run_suite("all", cfg).to_json()
    second = run_suite("all", cfg).to_json()
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("nonsense", SuiteConfig())


def test_verify_exit_code_on_failure(monkeypatch):
    from heckehom import suites

    def failing_suite(cfg):
        report = suites.SuiteReport("hecke", cfg.seed)
        report.add("stub/fail", "a deliberately failing check", {}, "1", "0")
        return report

    monkeypatch.setitem(suites._SUITES, "hecke", failing_suite)
    assert main(["verify", "hecke"]) == 1


def test_verify_options_fill_suite_config(monkeypatch):
    from heckehom import cli, suites

    seen = []

    def capture(target, cfg):
        seen.append(cfg)
        return suites.SuiteReport(target, cfg.seed)

    monkeypatch.setattr(cli, "run_suite", capture)
    assert main(["verify", "hecke"]) == 0
    assert main(["verify", "torus", "--rank", "1", "--window", "1"]) == 0
    assert seen == [
        SuiteConfig(),
        SuiteConfig(torus_ranks=(1,), torus_window=1),
    ]
    # every verify option but the target and the output fills one field, so
    # no field outlives its option
    actions = cli._build_parser()._actions
    (commands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for action in commands.choices["verify"]._actions}
    assert dests - {"help", "target", "format", "out"} == set(SuiteConfig._fields)


def test_torus_degree_option_is_gone(capsys, monkeypatch):
    """The torus plan reads only the ranks and the window: --degree is an
    unknown option, refused by argparse before any suite."""
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    assert main(["verify", "torus", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --degree 2" in captured.err
    assert entered == []


def test_engine_spec_file_flag(tmp_path, capsys):
    from heckehom import engine as eg

    # the ground field under a name of its own: a built-in's name is taken
    path = tmp_path / "field.json"
    data = json.loads((eg._ALGEBRA_DIR / "ground_field.json").read_text())
    path.write_text(json.dumps({**data, "name": "my_field"}))
    cfg = SuiteConfig(engine_spec_files=(str(path),), engine_cutoff=2)
    report = run_suite("engine", cfg)
    assert report.passed
    assert "engine/my_field/degree-0" in {case.id for case in report.cases}


def test_console_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "heckehom.cli", "reduce", "T[ts]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "[E(1)]"


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    """Every command pays for importing heckehom.cli, so it stays light:
    no dataclasses (which pulls in inspect and ast), and csv only inside
    --format csv.  -S keeps site's own imports out of the count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, heckehom.cli; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


_FIELD_PRODUCT = {"i": 0, "j": 0, "coeffs": ["1"]}


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps({"dim": 1, "unit": ["1"], "products": [_FIELD_PRODUCT, {"i": 3, "j": 0, "coeffs": ["1"]}]}),
            "i = 3 is not a basis index",
        ),
        (
            json.dumps({"dim": 1, "unit": ["1"], "products": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]}),
            "coeffs must be a list of dim = 1",
        ),
        (
            json.dumps({"dim": 2, "unit": ["0", "1"], "products": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]}),
            "is not a two-sided identity",
        ),
        ('{"dim": 1, "unit": ["1"],', "not valid JSON"),
        ('{"dim": ' + _DIGITS + "}", "not valid JSON: Exceeds the limit (4300 digits)"),
        ('{"dim": 1, "unit": [' + _DIGITS + "]}", "not valid JSON: Exceeds the limit (4300 digits)"),
        ('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}", "not valid JSON: maximum recursion depth"),
        # Fraction would read these two, the exponent only after minutes
        (json.dumps({"dim": 1, "unit": ["1"], "products": [{"i": 0, "j": 0, "coeffs": ["1e-99999999"]}]}),
         "coefficient '1e-99999999' is not of the form n or n/d"),
        (json.dumps({"dim": 1, "unit": ["1.5"], "products": [_FIELD_PRODUCT]}),
         "unit[0]: coefficient '1.5' is not of the form n or n/d"),
        # the name is the middle part of the suite/algebra/check case ids
        (json.dumps({"name": "a/b c", "dim": 1, "unit": ["1"], "products": [_FIELD_PRODUCT]}),
         "name 'a/b c' is not a word of printable characters without '/'"),
        (json.dumps({"name": 5, "dim": 1, "unit": ["1"], "products": [_FIELD_PRODUCT]}),
         "name 5 is not a word"),
        (json.dumps({"name": "x\ty", "dim": 1, "unit": ["1"], "products": [_FIELD_PRODUCT]}),
         "name 'x\\ty' is not a word"),
    ],
    ids=["index-out-of-range", "coeffs-too-long", "no-unit", "malformed-json",
         "dim-past-digit-limit", "coefficient-past-digit-limit", "nested-past-recursion-limit",
         "exponent", "decimal", "name-with-slash-and-space", "name-not-a-string", "name-with-tab"],
)
def test_bad_spec_file_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    start = time.monotonic()
    assert main(["verify", "engine", "--engine-cutoff", "1", "--spec", str(path)]) == 2
    assert time.monotonic() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ") and message in lines[0]


def test_bad_spec_file_stops_verify_all_before_any_suite(tmp_path, capsys, monkeypatch):
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": 1, "unit": ["1"], "products": [{"i": 3, "j": 0, "coeffs": ["1"]}]}))
    assert main(["verify", "all", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert entered == []


def test_unwritable_out_stops_verify_all_before_any_suite(tmp_path, capsys, monkeypatch):
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    path = tmp_path / "missing" / "x.json"
    assert main(["verify", "all", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]
    assert entered == [] and not path.parent.exists()


def test_out_is_left_as_it_is_when_validation_stops_the_run(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("kept\n")
    assert main(["verify", "all", "--engine-cutoff", "20", "--out", str(path)]) == 2
    assert path.read_text() == "kept\n"
    assert main(["verify", "clozel", "--nmax", "1", "--out", str(tmp_path / "new.txt")]) == 0
    assert (tmp_path / "new.txt").read_text().startswith("suite: clozel")
    assert main(["verify", "clozel", "--nmax", "1", "--out", str(path)]) == 0
    assert path.read_text() == (tmp_path / "new.txt").read_text()


def test_spec_over_the_guard_is_refused_before_its_checks(tmp_path, capsys, monkeypatch):
    """The guard reads the parsed dim, so a spec file too large for the cutoff
    exits 2 without its unit and associativity checks, O(dim^5) on dense
    structure constants."""
    from heckehom import engine as eg

    checked = []
    load_algebra = eg.load_algebra
    monkeypatch.setattr(eg, "load_algebra", lambda spec: checked.append(spec.name) or load_algebra(spec))
    m = 11  # Z/11 at the default cutoff 4: 11^5 > 100000
    table = [[{"i": i, "j": j, "coeffs": [int(k == (i + j) % m) for k in range(m)]}
              for j in range(m)] for i in range(m)]
    path = tmp_path / "z11.json"
    path.write_text(json.dumps(
        {"name": "z11", "dim": m, "unit": [1] + [0] * (m - 1), "products": sum(table, [])}
    ))
    assert main(["verify", "engine", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: algebra 'z11' at engine cutoff 4: dim^(N+1) = 11^5 exceeds the guard 100000\n"
    )
    assert "z11" not in checked
    # within the guard the same file is checked; at cutoff 3 its normalized
    # C_4 has 11 * 10^4 tuples, so cutoff 2 is the largest the guard admits
    SuiteConfig(engine_cutoff=2, engine_spec_files=(str(path),)).validate(("engine",))
    assert checked == ["z11"]


@pytest.mark.parametrize(
    "m, count",
    [
        # 60^2 = 3,600, but the normalized C_2 has 60 * 59^2 = 208,860 tuples
        (60, "dim*(dim-1)^(N+1) = 60*59^2"),
        # 47 * 46^2 = 99,452, but the sweep's degree 2 has 47^3 = 103,823 tuples
        (47, "dim^(t+1) = 47^3 at sweep degree t = 2"),
    ],
)
def test_spec_is_refused_for_the_chains_the_engine_builds(tmp_path, capsys, monkeypatch, m, count):
    """Q^m, m orthogonal idempotents, at cutoff 1: dim^(N+1) is within the
    guard, but a chain space the engine builds is not.  It exits 2 before
    its checks, with every suite stubbed."""
    from heckehom import engine as eg
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    monkeypatch.setattr(eg, "load_algebra", lambda spec: entered.append("load_algebra") or spec)
    products = [{"i": i, "j": i, "coeffs": [int(k == i) for k in range(m)]} for i in range(m)]
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"name": f"q{m}", "dim": m, "unit": [1] * m, "products": products}))
    assert main(["verify", "engine", "--engine-cutoff", "1", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: algebra 'q{m}' at engine cutoff 1: {count} exceeds the guard 100000\n"
    )
    assert entered == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "engine", "--engine-cutoff", "20"], "'dual_numbers' at engine cutoff 20"),
        (["verify", "all", "--engine-cutoff", "20"], "'dual_numbers' at engine cutoff 20"),
        # 2^15001 has 4,516 digits: neither compared nor printed in full
        (["verify", "engine", "--engine-cutoff", "15000"], "= 2^15001 exceeds the guard 100000"),
        (["verify", "all", "--engine-cutoff", "15000"], "= 2^15001 exceeds the guard 100000"),
        # 3^(2 * 30,000,000) is never built: the plan stops at the cap
        (["verify", "torus", "--rank", "30000000"], "torus rank 30000000: the chain-identity"),
    ],
    ids=["engine-cutoff", "all-engine-cutoff", "engine-cutoff-15000",
         "all-engine-cutoff-15000", "rank-30000000"],
)
def test_oversized_config_exits_2_before_any_suite(capsys, monkeypatch, argv, message):
    """Configs far too large to run: checked through main's exit code with
    every suite stubbed out, so none of them ever starts."""
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert entered == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "torus", "--rank", "10", "--window", "1"],
            "torus rank 10: the chain-identity sweep at window 1 covers no degree above 0 "
            "within 20000 tuples",
        ),
        (
            ["verify", "all", "--rank", "5"],
            "torus rank 5: the chain-identity sweep at window 1 covers no degree above 0 "
            "within 20000 tuples",
        ),
        (
            ["verify", "torus", "--rank", "4", "--window", "3"],
            "torus rank 4: the square check at window 3 fits no degree within 1000000 "
            "boundary sources",
        ),
    ],
    ids=["rank-10", "rank-5", "rank-4-window-3"],
)
def test_torus_case_over_no_degree_exits_2_before_any_suite(capsys, monkeypatch, argv, message):
    """A torus case must cover a degree: from rank 5 on the identity sweep
    fits degree 0 only, where b is zero, and at rank 4, window 3 the square
    check fits no degree."""
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert entered == []


def test_torus_rank_4_sweeps_a_degree_above_0():
    # 9^4 = 6,561 windowed tuples in degree 1 fit the sweep cap; 9^5 do not
    SuiteConfig(torus_ranks=(4,), torus_window=1).validate(("torus",))
    with pytest.raises(ConfigError):
        SuiteConfig(torus_ranks=(5,), torus_window=1).validate(("torus",))
    # other targets do not read the torus options
    SuiteConfig(torus_ranks=(5,)).validate(("hecke", "engine"))


def test_default_torus_degrees_need_a_square_check_within_the_window():
    # 7^(4 * 2) > 1,000,000 boundary sources already at degree 0: the window
    # would go unused, the identity cases running at their own window only
    with pytest.raises(ConfigError, match="rank 4: the square check at window 3"):
        SuiteConfig(torus_ranks=(4,), torus_window=3).validate(("torus",))
    SuiteConfig(torus_ranks=(4,), torus_window=2).validate(("torus",))  # 5^8 fits
    SuiteConfig(torus_ranks=(4,), torus_window=1).validate(("torus",))
    SuiteConfig().validate()
    SuiteConfig(torus_ranks=(4,), torus_window=3).validate(("hecke", "engine"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "torus", "--rank", "1", "--rank", "1"], "torus rank 1 is given twice"),
        (
            ["verify", "engine", "--engine-cutoff", "1", "--spec", str(_ALGEBRA_DIR / "cyclic_3.json")],
            "engine algebra 'cyclic_3' is given twice",
        ),
    ],
    ids=["torus-rank", "engine-algebra"],
)
def test_repeated_values_exit_2_before_any_suite(capsys, monkeypatch, argv, message):
    """A repeated rank or algebra name would repeat its case ids."""
    from heckehom import suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert entered == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "clozel", "--nmax", "1", "--engine-cutoff", "20"],
        ["verify", "hecke", "--engine-cutoff", "20"],
        ["verify", "engine", "--rank", "5", "--window", "1", "--engine-cutoff", "2"],
    ],
    ids=["clozel-engine-cutoff", "hecke-engine-cutoff", "engine-torus-degree"],
)
def test_size_checks_skip_suites_that_do_not_run(capsys, argv):
    """An option sized beyond the cap of a suite that is not the target does
    not stop the target."""
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_only_the_engine_target_loads_algebras(monkeypatch):
    from heckehom import suites

    monkeypatch.setitem(suites._SUITES, "torus", lambda cfg: suites.SuiteReport("torus", cfg.seed))
    cfg = SuiteConfig(engine_spec_files=("no-such-spec.json",))
    assert run_suite("torus", cfg).passed
    assert "engine_specs" not in vars(cfg)


def test_default_torus_degrees_skip_oversized_sweeps():
    SuiteConfig(torus_ranks=(3,), torus_window=1).validate()


def test_torus_plan_is_the_filtered_degree_lists():
    """Each list of the plan is a prefix cut at its cap, so it equals the
    degrees that fit, filtered one by one."""
    assert SuiteConfig().torus_plan == {1: (2, [0, 1, 2], [0, 1]), 2: (1, [0, 1, 2, 3], [0, 1, 2])}
    for rank in range(1, 5):
        for window in (1, 2, 3):
            cfg = SuiteConfig(torus_ranks=(rank,), torus_window=window)
            if (rank, window) == (4, 3):  # no square check fits, as tested above
                with pytest.raises(ConfigError):
                    cfg.torus_plan
                continue
            ((identity_window, swept, squares),) = cfg.torus_plan.values()
            side = 2 * identity_window + 1
            assert swept == [p for p in range(rank + 2) if side ** (rank * (p + 1)) <= 20_000]
            side = 2 * window + 1
            assert squares == [p for p in range(rank + 1) if side ** (rank * (p + 2)) <= 10**6]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "commutator", "600..600"], "range '600..600' leaves -100..100"),
        (["table", "rpoly", "0..101"], "range '0..101' leaves -100..100"),
        (["verify", "geomlemma", "--nmax", "600"], "nmax must be at most 100, got 600"),
        (["verify", "rpoly", "--lmax", "101"], "lmax must be at most 100, got 101"),
        (
            ["verify", "hh0", "--oracle-cutoff", "101"],
            "reduce_oracle_cutoff must be at most 100, got 101",
        ),
        (
            ["verify", "all", "--oracle-cutoff", "101"],
            "reduce_oracle_cutoff must be at most 100, got 101",
        ),
    ],
    ids=["table-commutator", "table-rpoly", "geomlemma-nmax", "rpoly-lmax", "hh0-oracle-cutoff",
         "all-oracle-cutoff"],
)
def test_hecke_side_sizes_beyond_the_bound_exit_2(capsys, monkeypatch, argv, message):
    """A cold inverse of a word of length 2n recurses once per letter, so n
    beyond the bound is rejected before any computation starts."""
    from heckehom import spectral, suites

    entered = []
    for name in suites._SUITES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name: entered.append(name))
    monkeypatch.setattr(spectral, "commutator_direct", lambda n: entered.append(n))
    monkeypatch.setattr("heckehom.cli.r_polynomial", lambda x, w: entered.append(w))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert entered == []


def test_hecke_bound_admits_the_defaults_and_the_benchmark_sizes():
    from heckehom.suites import HECKE_BOUND

    SuiteConfig().validate()
    for target, sizes in [("rpoly", {"lmax": 18, "nmax": 24}), ("hh0", {"nmax": 24}),
                          ("commutator", {"nmax": 20})]:
        SuiteConfig(**sizes).validate((target,))
    SuiteConfig(nmax=HECKE_BOUND, lmax=HECKE_BOUND, reduce_oracle_cutoff=HECKE_BOUND).validate()
    for sizes in ({"nmax": HECKE_BOUND + 1}, {"lmax": HECKE_BOUND + 1},
                  {"reduce_oracle_cutoff": HECKE_BOUND + 1}):
        with pytest.raises(ConfigError):
            SuiteConfig(**sizes).validate()
    # suites that do not read a size are not stopped by it
    SuiteConfig(nmax=600, lmax=600, reduce_oracle_cutoff=600).validate(("hecke", "torus", "engine"))
    SuiteConfig(reduce_oracle_cutoff=600).validate(("rpoly", "clozel", "commutator", "geomlemma"))
    with pytest.raises(ConfigError):
        SuiteConfig(reduce_oracle_cutoff=600).validate(("hh0",))
    with pytest.raises(ConfigError):
        SuiteConfig(lmax=600).validate(("rpoly",))
    SuiteConfig(lmax=600).validate(("geomlemma",))
