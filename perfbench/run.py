"""Cold-process benchmark of ``heckehom verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command of a workload is a
fresh ``python3 -m heckehom.cli verify ...`` process, as a user runs it, so
the memo caches start cold each time.  The loop is closed with one client:
a command starts only after the previous one has exited, and only one
heckehom process runs at a time.

The harness runs on one CPU and every program on another.  A probe
(``perfbench/hostprobe.py``) shares the program's CPU and samples its speed
all through the run, and every time the benchmark reports is scaled by the
speed sampled while it was measured, to seconds at a reference speed
(``REF_CHUNK_S``).  On a shared host a virtual CPU switches between a fast
and a slow state, about 1.7x apart, every few seconds; unscaled times follow
that, while the scaled ones repeat within a few per cent.

One operation is the workload's command list run once.  With ``--trace 0``
the run repeats operations for about ``--seconds`` seconds (always at least
one) and reports the median operation as wall time and CPU time (user plus
system, from ``wait4``), both scaled, the largest resident set of any
process, and the median scaled time of several set-up probes.  With
``--trace 1`` it runs one untraced and one traced operation
(``perfbench/tracer.py``) and reports the per-layer split.  Every process's
JSON report is checked: exit status 0, every case passing, and the (id,
expected, actual, pass) projection equal to the reference recorded in
``perfbench/reference/`` for the program seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An operation or set-up
probe that fails the check counts in ``failed``; ``attempted`` counts both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference"

# The program's --seed is drawn from the recorded seeds, so that every run
# can be checked against a reference made at the seed commit.
PROGRAM_SEEDS = tuple(range(20260810, 20260826))

SETUP_PROBES = 15  # fresh set-up processes per run; the median is reported
RUN_DEADLINE_S = 165.0  # a command still running at this point is killed

# Reference host speed: the CPU time of one host-probe chunk on a CPU in its
# fast state (2.1 GHz Xeon, CPython 3.11).  A time t measured while the
# chunks took d_i seconds is reported as t * mean(REF_CHUNK_S / d_i).
REF_CHUNK_S = 0.0021
# probe samples this long before and after a window also describe it; the
# host state lasts seconds, and a set-up probe is only a tenth of one
WINDOW_PAD_S = 0.25

# Each workload is a list of `heckehom` argument lists; `--format json`,
# `--seed` and `--out` are appended.  An operation takes a few seconds, so
# that a run reports the median of several (see perfbench/README.md).
WORKLOADS = {
    # torus chain construction on windowed lattice chains, the part of
    # `verify all` that no other workload runs; at window 1 its `linalg`
    # sector elimination is a few per cent of the time
    "torus": [
        ["verify", "torus", "--window", "1"],
    ],
    # the Hecke side at larger n: laurent/weyl/hecke/hh0/spectral, with
    # `linalg` only in the small hh0 oracle; the bypass workload for linalg,
    # torus and engine changes
    "hecke-deep": [
        ["verify", "rpoly", "--lmax", "18", "--nmax", "24"],
        ["verify", "hh0", "--nmax", "24"],
        ["verify", "commutator", "--nmax", "20"],
        ["verify", "hecke"],
        ["verify", "clozel"],
    ],
    # a user checking a new spec file: engine plus linalg, dominated by the
    # boundary-span pass of QuotientSpace
    "engine-spec": [
        [
            "verify", "engine", "--engine-cutoff", "3",
            "--spec", "src/heckehom/algebras/cyclic_5.json",
        ],
    ],
}

# per-layer metric -> (span label, field) from the tracer's summary
SPAN_METRICS = {
    "suites.hecke.s": ("suites.suite_hecke", "s"),
    "suites.rpoly.s": ("suites.suite_rpoly", "s"),
    "suites.hh0.s": ("suites.suite_hh0", "s"),
    "suites.clozel.s": ("suites.suite_clozel", "s"),
    "suites.commutator.s": ("suites.suite_commutator", "s"),
    "suites.torus.s": ("suites.suite_torus", "s"),
    "suites.engine.s": ("suites.suite_engine", "s"),
    "laurent.mul.calls": ("laurent.LaurentQ.__mul__", "calls"),
    "laurent.mul.self_s": ("laurent.LaurentQ.__mul__", "self_s"),
    "laurent.add.calls": ("laurent.LaurentQ.__add__", "calls"),
    "laurent.add.self_s": ("laurent.LaurentQ.__add__", "self_s"),
    "laurent.divide_exact.calls": ("laurent.LaurentQ.divide_exact", "calls"),
    "weyl.word_mul.calls": ("weyl.word_mul", "calls"),
    "weyl.bruhat_leq.calls": ("weyl.bruhat_leq", "calls"),
    "weyl.bruhat_leq.self_s": ("weyl.bruhat_leq", "self_s"),
    "hecke.t_mul.calls": ("hecke.t_mul", "calls"),
    "hecke.t_mul.self_s": ("hecke.t_mul", "self_s"),
    "hecke.t_inverse.calls": ("hecke.t_inverse", "calls"),
    "hecke.r_polynomial.self_s": ("hecke.r_polynomial", "self_s"),
    "hecke.r_polynomial_recursive.self_s": ("hecke.r_polynomial_recursive", "self_s"),
    "hh0.reduce_to_hh0.calls": ("hh0.reduce_to_hh0", "calls"),
    "hh0.reduce_to_hh0.self_s": ("hh0.reduce_to_hh0", "self_s"),
    "hh0.class_of_word.calls": ("hh0.class_of_word", "calls"),
    "hh0_oracle.build_s": ("hh0_oracle.TruncatedTraceOracle.__init__", "s"),
    "hh0_oracle.class_of_word.self_s": ("hh0_oracle.TruncatedTraceOracle.class_of_word", "self_s"),
    "spectral.pind_map.self_s": ("spectral.pind_map", "self_s"),
    "spectral.opind_map.self_s": ("spectral.opind_map", "self_s"),
    "spectral.pres_map.self_s": ("spectral.pres_map", "self_s"),
    "linalg.insert.calls": ("linalg.GaussianBasis.insert", "calls"),
    "linalg.insert.self_s": ("linalg.GaussianBasis.insert", "self_s"),
    "linalg.reduce.calls": ("linalg.GaussianBasis.reduce", "calls"),
    "linalg.reduce.self_s": ("linalg.GaussianBasis.reduce", "self_s"),
    "linalg.kernel_vectors.s": ("linalg.kernel_vectors", "s"),
    "linalg.quotient_build.s": ("linalg.QuotientSpace.__init__", "s"),
    "linalg.intersect.s": ("linalg.intersect_with_columns", "s"),
    "torus.boundary_key.calls": ("torus.boundary_key", "calls"),
    "torus.boundary_key.self_s": ("torus.boundary_key", "self_s"),
    "torus.connes_b_key.self_s": ("torus.connes_b_key", "self_s"),
    "torus.hkr.self_s": ("torus.hkr", "self_s"),
    "torus.invariant_sector_dims.s": ("torus._invariant_sector_dims", "s"),
    "torus.compact_b_boundary.s": ("torus.compact_part_of_b_image_is_boundary", "s"),
    "torus.hkr_b_constant.s": ("torus.measure_hkr_b_constant", "s"),
    "torus.square_keys.s": ("torus.check_square_on_key", "s"),
    "engine.boundary.calls": ("engine.ChainStack.boundary", "calls"),
    "engine.boundary.self_s": ("engine.ChainStack.boundary", "self_s"),
    "engine.connes_B.self_s": ("engine.ChainStack.connes_B", "self_s"),
    "engine.compute_hochschild.s": ("engine.compute_hochschild", "s"),
    "engine.compute_cyclic.s": ("engine.compute_cyclic", "s"),
    "engine.sbi_maps.s": ("engine._build_sbi_maps", "s"),
    "engine.structure_identities.s": ("engine.ChainStack.verify_structure_identities", "s"),
}

# self time summed over every span of a module: the per-module split
MODULE_SELF = (
    "laurent", "weyl", "hecke", "hh0", "hh0_oracle",
    "spectral", "linalg", "torus", "engine", "suites",
)

# per-layer metric -> tracer counter (summed over the operation's processes)
COUNTER_METRICS = {
    "hecke.t_inverse.hits": "hecke.t_inverse.hits",
    "hh0.class_of_word.hits": "hh0.class_of_word.hits",
    "linalg.insert.dependent": "linalg.GaussianBasis.insert.dependent",
    "linalg.reduce.input_nnz": "linalg.GaussianBasis.reduce.input_nnz",
}


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    status: int
    timed_out: bool


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings.

    Programs then read the bytecode cache that warm-up wrote, as an
    installed package does, whatever PYTHONDONTWRITEBYTECODE,
    PYTHONHASHSEED or PYTHONPATH the caller has set.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], timeout: float, stderr_path: Path, cpu: int = -1) -> Proc:
    """Run argv to completion through launch.py, which times and reaps it.

    Wall time runs from spawn to reap; CPU time and peak RSS come from
    ``wait4``.  The program is pinned to ``cpu`` (unless it is -1) and
    killed after ``timeout`` seconds.
    """
    launcher = [
        sys.executable, "-I", "-S", str(HERE / "launch.py"), str(cpu), str(max(timeout, 1.0)),
    ]
    with open(stderr_path, "wb") as err:
        done = subprocess.run(
            launcher + argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, check=True, text=True,
        )
    wall, cpu, maxrss_kb, status, timed_out = done.stdout.split()
    return Proc(
        wall_s=float(wall),
        cpu_s=float(cpu),
        maxrss_mb=int(maxrss_kb) / 1024.0,
        status=int(status),
        timed_out=timed_out == "1",
    )


def command_key(args: list[str]) -> str:
    return " ".join(args)


def projection_digests(report: dict) -> list[list[str]]:
    """[(id, digest of (expected, actual, pass))] for every case, in order.

    Only these fields are compared, so an added report field is not a
    mismatch while any changed value is.
    """
    out = []
    for case in report["cases"]:
        blob = json.dumps([case["expected"], case["actual"], case["pass"]])
        out.append([case["id"], hashlib.sha256(blob.encode()).hexdigest()[:16]])
    return out


def check_report(path: Path, expected: list | None) -> str | None:
    """None when the report passes the gate, else the reason."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        passed = report["pass"] is True and all(c["pass"] is True for c in report["cases"])
        got = projection_digests(report)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"report unreadable: {err!r}"
    if not passed:
        return "a case failed"
    if expected is None:
        return "no reference for this command and seed"
    if got != expected:
        diff = next((g[0] for g, e in zip(got, expected) if g != e), "case count")
        return f"projection differs from reference at {diff}"
    return None


def split_cpus() -> tuple[set[int], int]:
    """(CPUs for the harness, CPU for the programs and the host probe)."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:-1]) or set(cpus), cpus[-1]


class HostProbe:
    """The running ``hostprobe.py`` process on the programs' CPU."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "hostprobe.py"), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> "HostSpeed":
        """End the probe (closing its input) and return its samples."""
        out, _ = self.proc.communicate("", timeout=30)
        samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        return HostSpeed(samples)

    def close(self) -> None:
        """Kill the probe if stop() did not end it, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class HostSpeed:
    """The probe's samples: (perf_counter time, chunk CPU seconds)."""

    def __init__(self, samples: list[tuple[float, float]]):
        self.samples = samples

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second measured in [start, end]."""
        inside = [d for t, d in self.samples if start - WINDOW_PAD_S <= t <= end + WINDOW_PAD_S]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(REF_CHUNK_S / d for d in inside)

    def calib_s(self) -> float:
        """Median chunk CPU time over the run: the host's speed, unscaled."""
        return statistics.median(d for _, d in self.samples) if self.samples else 0.0


@dataclass
class Timed:
    """Something measured between two perf_counter readings."""

    start: float
    end: float
    wall_s: float
    cpu_s: float = 0.0


class Runner:
    def __init__(self, workload: str, seed: int, cpu: int):
        self.commands = WORKLOADS[workload]
        self.program_seed = PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]
        with open(REFERENCE / f"{workload}.json", encoding="utf-8") as handle:
            self.reference = json.load(handle)
        self.cpu = cpu
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.tally = Tally()
        OUT.mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def cli_args(self, index: int) -> list[str]:
        out = OUT / f"report{index}.json"
        out.unlink(missing_ok=True)
        return self.commands[index] + [
            "--format", "json", "--seed", str(self.program_seed), "--out", str(out),
        ]

    def expected(self, index: int):
        by_seed = self.reference[command_key(self.commands[index])]
        return by_seed.get(str(self.program_seed), by_seed.get("any"))

    def warm_up(self) -> None:
        """Compile the package's bytecode once, outside every measurement."""
        argv = [sys.executable, "-c", "import heckehom.cli"]
        spawn(argv, self.remaining(), OUT / "warmup.err", self.cpu)

    def setup_probe(self) -> Timed | None:
        argv = [sys.executable, str(HERE / "setup_probe.py")] + self.cli_args(0)
        start = time.perf_counter()
        proc = spawn(argv, self.remaining(), OUT / "setup.err", self.cpu)
        end = time.perf_counter()
        ok = proc.status == 0 and not proc.timed_out
        if not self.tally.record(ok, f"set-up probe exit {proc.status}"):
            return None
        return Timed(start, end, proc.wall_s)

    def operation(self, traced: bool) -> tuple[list[Proc], list[dict], Timed] | None:
        """Run the command list once; None if any process fails the gate."""
        procs, summaries = [], []
        start = time.perf_counter()
        problem = None
        for index in range(len(self.commands)):
            if traced:
                summary_path = OUT / f"trace{index}.json"
                summary_path.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "tracer.py"), str(summary_path)]
            else:
                argv = [sys.executable, "-m", "heckehom.cli"]
            proc = spawn(
                argv + self.cli_args(index), self.remaining(), OUT / f"cmd{index}.err", self.cpu
            )
            procs.append(proc)
            if proc.timed_out:
                problem = f"{command_key(self.commands[index])}: timed out"
            elif proc.status != 0:
                problem = f"{command_key(self.commands[index])}: exit {proc.status}"
            else:
                problem = check_report(OUT / f"report{index}.json", self.expected(index))
                if problem:
                    problem = f"{command_key(self.commands[index])}: {problem}"
            if problem:
                break
            if traced:
                with open(summary_path, encoding="utf-8") as handle:
                    summaries.append(json.load(handle))
        if not self.tally.record(problem is None, problem or ""):
            return None
        timed = Timed(
            start, time.perf_counter(),
            sum(p.wall_s for p in procs), sum(p.cpu_s for p in procs),
        )
        return procs, summaries, timed


def measure(runner: Runner, probe: HostProbe, seconds: float) -> tuple[dict, HostSpeed]:
    runner.warm_up()
    setups = [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
    ops, rss = [], []
    start = time.perf_counter()
    while True:
        result = runner.operation(traced=False)
        if result is None:
            break
        procs, _, timed = result
        ops.append(timed)
        rss.append(max(p.maxrss_mb for p in procs))
        elapsed = time.perf_counter() - start
        # start another operation only if it should end within the window
        # and well before the run's deadline
        typical = statistics.median(op.wall_s for op in ops)
        if elapsed + typical > seconds or runner.remaining() < 2 * typical:
            break
    speed = probe.stop()
    metrics = {}
    if ops:
        factors = [speed.factor(op.start, op.end) for op in ops]
        metrics["wall_ref_s"] = statistics.median(op.wall_s * f for op, f in zip(ops, factors))
        metrics["cpu_ref_s"] = statistics.median(op.cpu_s * f for op, f in zip(ops, factors))
        metrics["peak_rss_mb"] = max(rss)
    if setups:
        metrics["setup_s"] = statistics.median(
            s.wall_s * speed.factor(s.start, s.end) for s in setups
        )
    return metrics, speed


def trace(runner: Runner, probe: HostProbe) -> tuple[dict, HostSpeed]:
    runner.warm_up()
    plain = runner.operation(traced=False)
    traced = runner.operation(traced=True) if plain else None
    speed = probe.stop()
    if plain is None or traced is None:
        return {}, speed
    plain_op, (_, summaries, traced_op) = plain[2], traced
    factor = speed.factor(traced_op.start, traced_op.end)
    # times inside the traced processes, scaled like the end-to-end ones
    metrics = {
        name: value * factor if name.endswith(("_s", ".s")) else value
        for name, value in per_layer(summaries).items()
    }
    metrics["trace.wall_s"] = traced_op.wall_s * factor
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_op.wall_s * speed.factor(
        plain_op.start, plain_op.end
    )
    return metrics, speed


def per_layer(summaries: list[dict]) -> dict:
    """Fold the tracer summaries of one operation's processes into metrics."""
    def span_total(label: str, fld: str):
        return sum(s["spans"].get(label, {}).get(fld, 0) for s in summaries)

    def counter(key: str):
        return sum(s["counters"].get(key, 0) for s in summaries)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {"cli.import_s": statistics.median(s["import_s"] for s in summaries)}
    for name, (label, fld) in SPAN_METRICS.items():
        metrics[name] = span_total(label, fld)
    for module in MODULE_SELF:
        metrics[f"{module}.self_s"] = sum(
            v["self_s"] for s in summaries for label, v in s["spans"].items()
            if label.split(".", 1)[0] == module
        )
    for name, key in COUNTER_METRICS.items():
        metrics[name] = counter(key)
    metrics["hecke.t_inverse.hit_ratio"] = ratio(
        metrics["hecke.t_inverse.hits"], metrics["hecke.t_inverse.calls"]
    )
    metrics["hh0.class_of_word.hit_ratio"] = ratio(
        metrics["hh0.class_of_word.hits"], metrics["hh0.class_of_word.calls"]
    )
    metrics["linalg.insert.useful_ratio"] = ratio(
        metrics["linalg.insert.calls"] - metrics["linalg.insert.dependent"],
        metrics["linalg.insert.calls"],
    )
    caches = {
        "hecke.inverse_cache.entries": "hecke._INVERSE_CACHE",
        "hecke.r_recursive_cache.entries": "hecke._R_RECURSIVE_CACHE",
        "hh0.word_class_cache.entries": "hh0._WORD_CLASS_CACHE",
    }
    for name, key in caches.items():
        metrics[name] = sum(s["cache_entries"][key] for s in summaries)
    metrics["hecke.cache_entries"] = sum(metrics[name] for name in caches)
    metrics["engine.chain_dim.max"] = max(
        s["counters"].get("engine.ChainStack.dim_chain.max", 0) for s in summaries
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heckehom" / "cli.py").is_file():
        print(f"error: no heckehom source under {SRC}", file=sys.stderr)
        return 2

    units = declared_units(bool(args.trace))
    harness_cpus, program_cpu = split_cpus()
    os.sched_setaffinity(0, harness_cpus)
    runner = Runner(args.workload, args.seed, program_cpu)
    probe = HostProbe(program_cpu)
    try:
        if args.trace:
            metrics, speed = trace(runner, probe)
        else:
            metrics, speed = measure(runner, probe, args.seconds)
    finally:
        probe.close()
    calib = speed.calib_s()
    if args.trace:
        metrics["host.calib_s"] = calib
    for problem in runner.tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # the host probe goes next to the run's numbers, on the line before them
    print(json.dumps({
        "workload": args.workload,
        "program_seed": runner.program_seed,
        "host.calib_s": calib,
    }))
    result = {
        "correct": runner.tally.failed == 0 and set(metrics) == set(units),
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
