"""Command-line harness: verify suites, print value tables, reduce expressions.

Exit status: 0 when every check passes, 1 when at least one verification
fails, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import SpecError
from .exprparse import ParseError, parse_hecke
from .hh0 import reduce_to_hh0
from . import spectral as sp
from .hecke import r_polynomial
from .weyl import E, st_power
from .suites import HECKE_BOUND, ConfigError, SuiteConfig, SUITE_TARGETS, csv_text, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckehom",
        description=(
            "Exact verification of Hecke-algebra, trace-quotient, and "
            "Hochschild/cyclic homology identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options left out stay off the namespace, so SuiteConfig supplies the defaults
    verify = sub.add_parser(
        "verify", help="run a verification suite", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("target", choices=("all",) + SUITE_TARGETS)
    verify.add_argument("--nmax", type=int)
    verify.add_argument("--lmax", type=int)
    verify.add_argument("--oracle-cutoff", type=int, dest="reduce_oracle_cutoff")
    verify.add_argument(
        "--rank", type=int, action="append", dest="torus_ranks", help="torus rank (repeatable)"
    )
    verify.add_argument("--window", type=int, dest="torus_window")
    verify.add_argument("--engine-cutoff", type=int)
    verify.add_argument(
        "--spec", action="append", dest="engine_spec_files",
        help="extra algebra spec file for the engine suite (repeatable)",
    )
    verify.add_argument("--seed", type=int)
    _output_options(verify)

    table = sub.add_parser("table", help="print a table of computed values")
    table.add_argument("target", choices=("rpoly", "commutator", "pres"))
    table.add_argument(
        "range",
        help="inclusive range of n, e.g. 0..8 or a single integer; a range that "
        "starts below zero, such as -2..0, goes after '--' and after every option",
    )
    _output_options(table)

    reduce_cmd = sub.add_parser("reduce", help="reduce a Hecke expression to the HH0 basis")
    reduce_cmd.add_argument(
        "expression",
        help="a Hecke expression, e.g. 'T[s]*T[t]'; an expression that starts "
        "with '-', such as -T[s], goes after '--' and after every option",
    )
    _output_options(reduce_cmd)
    return parser


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file instead of stdout")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _UsageError(f"bad range {text!r}; expected e.g. 1..8") from None
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    if max(-lo, hi) > HECKE_BOUND:
        raise _UsageError(f"range {text!r} leaves -{HECKE_BOUND}..{HECKE_BOUND}")
    return range(lo, hi + 1)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in SuiteConfig._fields}
    cfg = SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in given.items()})
    cfg.validate(SUITE_TARGETS if args.target == "all" else (args.target,))
    if args.out:  # created, not emptied: an unwritable path stops the run before any suite
        open(args.out, "a", encoding="utf-8").close()
    report = run_suite(args.target, cfg)
    _emit(report.render(args.format), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _table_rows(target: str, values: range) -> tuple[list[str], list[list[str]]]:
    rows = []
    if target == "rpoly":
        header = ["n", "R_{1,(st)^n}"]
        for n in values:
            if n < 0:
                raise _UsageError("rpoly table needs n >= 0")
            rows.append([str(n), r_polynomial(E, st_power(n)).render()])
    elif target == "commutator":
        header = ["n", "(one_gc.pind - pind.one_mc)(L^n)"]
        for n in values:
            rows.append([str(n), sp.commutator_direct(n).render()])
    else:
        header = ["n", "pres([E(n)])"]
        for n in values:
            if n < 0:
                raise _UsageError("pres table needs n >= 0")
            rows.append([str(n), sp.pres_map(sp.HH0Class({n: 1})).render()])
    return header, rows


def _render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    if fmt == "csv":
        return csv_text([header, *rows])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    # every column but the last is padded, so no line ends in spaces
    pad = lambda cells: [cell.ljust(width) for cell, width in zip(cells[:-1], widths)] + cells[-1:]
    return "".join("  ".join(pad(cells)) + "\n" for cells in [header, *rows])


def _cmd_table(args) -> int:
    header, rows = _table_rows(args.target, _parse_range(args.range))
    _emit(_render_table(header, rows, args.format), args.out)
    return EXIT_PASS


def _cmd_reduce(args) -> int:
    element = parse_hecke(args.expression)
    try:
        result = reduce_to_hh0(element).render()
    except ValueError:  # int -> str past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise _UsageError(f"the class has an integer of more than {limit} digits to print") from None
    if args.format == "json":
        _emit(json.dumps({"expression": args.expression, "class": result}) + "\n", args.out)
    elif args.format == "csv":
        _emit(csv_text([["expression", "class"], [args.expression, result]]), args.out)
    else:
        _emit(result + "\n", args.out)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_reduce(args)
    except (ConfigError, _UsageError, ParseError, SpecError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
