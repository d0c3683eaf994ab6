"""Record the reference projections that perfbench/run.py checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every command of each workload (all by default) once per program seed
and writes perfbench/reference/<workload>.json, mapping each command to the
(id, digest) projection of its report per seed, or under "any" when the
projection does not depend on the seed.  Run it only at a commit whose
reports are known to be right: the references define correct output.
"""

import json
import sys

import run


def record(workload: str) -> dict:
    reference = {}
    for args in run.WORKLOADS[workload]:
        by_seed = {}
        for seed in run.PROGRAM_SEEDS:
            cli_args = args + ["--format", "json", "--seed", str(seed), "--out", str(run.OUT / "record.json")]
            proc = run.spawn([sys.executable, "-m", "heckehom.cli"] + cli_args, 600.0, run.OUT / "record.err")
            if proc.status != 0:
                raise SystemExit(f"{run.command_key(cli_args)} exited {proc.status}")
            with open(run.OUT / "record.json", encoding="utf-8") as handle:
                by_seed[str(seed)] = run.projection_digests(json.load(handle))
            print(f"{workload}: {run.command_key(args)} seed {seed}: {proc.wall_s:.2f} s", flush=True)
        if all(value == by_seed[str(run.PROGRAM_SEEDS[0])] for value in by_seed.values()):
            by_seed = {"any": by_seed[str(run.PROGRAM_SEEDS[0])]}
        reference[run.command_key(args)] = by_seed
    return reference


def main(names: list[str]) -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in names or list(run.WORKLOADS):
        reference = record(workload)
        with open(run.REFERENCE / f"{workload}.json", "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
