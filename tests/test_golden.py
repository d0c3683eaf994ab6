"""The default ``verify all --format json`` report, byte for byte.

``golden/verify_all.json`` is the report of ``heckehom verify all --format
json`` with every option at its default.  A change that alters any case of
it, even one byte of a claim or a parameter, fails here; a change meant to
alter the report re-records the file and says why.
"""

import json
from pathlib import Path

import pytest

from heckehom.suites import SuiteConfig, run_suite

GOLDEN = Path(__file__).with_name("golden") / "verify_all.json"


def _first_difference(got: str, want: str) -> str:
    """The id of the first case that differs, or what else differs."""
    got_report, want_report = json.loads(got), json.loads(want)
    pairs = zip(got_report["cases"], want_report["cases"])
    first = next((want_case["id"] for got_case, want_case in pairs if got_case != want_case), None)
    if first is not None:
        return f"case {first}"
    if len(got_report["cases"]) != len(want_report["cases"]):
        return f"the case count ({len(got_report['cases'])}, golden {len(want_report['cases'])})"
    return "the report fields or their layout"


def test_default_verify_all_report_matches_golden():
    got = run_suite("all", SuiteConfig()).to_json()
    want = GOLDEN.read_bytes().decode("utf-8")
    if got != want:
        where = _first_difference(got, want)
        pytest.fail(f"verify all differs from {GOLDEN.name}, first at {where}")
