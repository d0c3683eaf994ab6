"""The benchmark's output gate, run in process.

perfbench/run.py refuses a run whose reports differ from the references in
perfbench/reference/; this test runs every command of its WORKLOADS the
same way (from the repository root, with ``--format json``, the first
program seed and ``--out``) and compares the same projection, so a change
of any report value fails here first.
"""

import json

import pytest

from heckehom.cli import main

from test_trace_targets import PERFBENCH, _load

RUN = _load("run")


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_workload_reports_match_the_benchmark_reference(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    seed = RUN.PROGRAM_SEEDS[0]
    with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    for index, command in enumerate(RUN.WORKLOADS[workload]):
        out = tmp_path / f"report{index}.json"
        assert main(command + ["--format", "json", "--seed", str(seed), "--out", str(out)]) == 0
        by_seed = reference[RUN.command_key(command)]
        expected = by_seed.get(str(seed), by_seed.get("any"))
        assert RUN.check_report(out, expected) is None, command
