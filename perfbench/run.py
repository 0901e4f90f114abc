"""Benchmark of the simplexwidth command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI command runs as `simplexwidth.cli.main(argv)` in a fresh child
interpreter (`child.py`) with `PYTHONPATH=src`, so the working tree is
measured, and with BLAS/OpenMP pinned to one thread. One child runs at a
time; the next command starts when the previous one returns (closed loop,
one caller).

A run measures set-up (importing `simplexwidth.cli` in a fresh interpreter,
median of several), then makes one check pass whose output streams through
the independent checker in `checker.py`, then repeats the workload's
commands for S seconds. A repeat fails when it exits nonzero or when its
stdout digest differs from the checked pass of the same seed.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` the repeats alternate between traced and untraced passes and
the last line reports the per-layer metrics of the traced ones (`tracer.py`)
and the tracing overhead. Lines before it list the environment, the stdout
digest of each command and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checker import Checker, checker_for
from tracer import COUNTERS, HOOKS, MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "verify-battery": lambda seed: [["verify", "--max-n", "64", "--seed", str(seed)]],
    "optimize-large": lambda seed: [["optimize", "--n", "200", "--seed", str(seed)]],
    # Closed forms only: the output does not depend on the seed.
    "exact-output": lambda seed: [
        ["table", "--max-n", "10000"],
        ["table", "--max-n", "10000", "--format", "json"],
        ["directions", "--n", "18", "--list"],
    ],
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.format_decimal.calls", "count"),
    ("cli.format_decimal.s", "s"),
    ("cli.format_rational.calls", "count"),
    ("cli.format_rational.s", "s"),
    ("cli.stdout_bytes", "B"),
    ("cli.stdout_lines", "count"),
    ("verification.self_s", "s"),
    ("verification.check_exact_identities.s", "s"),
    ("verification.check_radii_distances.s", "s"),
    ("verification.check_enumeration_oracle.s", "s"),
    ("verification.check_direction_families.s", "s"),
    ("verification.check_energy_fuzz.s", "s"),
    ("verification.check_optimizer_agreement.s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.minimize_width.calls", "count"),
    ("optimizer.minimize_width.s", "s"),
    ("optimizer.minimize_width.self_s", "s"),
    ("optimizer.iterations", "count"),
    ("optimizer.restart_iterations", "count"),
    ("optimizer.us_per_restart_iteration", "us"),
    ("optimizer.projection_flops", "flop"),
    ("optimizer.family_hit_ratio", "ratio"),
    ("optimizer.family_checked", "count"),
    ("optimizer.converged_ratio", "ratio"),
    ("directions.self_s", "s"),
    ("directions.enumerate_optimal_directions.s", "s"),
    ("directions.enumerated", "count"),
    ("directions.is_optimal_direction.calls", "count"),
    ("directions.is_optimal_direction.s", "s"),
    ("geometry.self_s", "s"),
    ("geometry.vertices.calls", "count"),
    ("geometry.vertices.s", "s"),
    ("geometry.vertex_floats", "count"),
    ("geometry.projection_width.calls", "count"),
    ("geometry.projection_width.s", "s"),
    ("geometry.distance.calls", "count"),
    ("geometry.distance.s", "s"),
    ("geometry.direction_check.calls", "count"),
    ("geometry.direction_check.s", "s"),
    ("closed_form.self_s", "s"),
    ("closed_form.calls", "count"),
    ("closed_form.s", "s"),
    ("energy.self_s", "s"),
    ("energy.energy_push.calls", "count"),
    ("energy.energy_push.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.missing_hooks", "count"),
)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
# A run ends within 180 s: commands still running this long after the
# run started are killed and count as failed.
RUN_LIMIT_S = 165.0
SETUP_TIMEOUT_S = 30.0

SETUP_CODE = """\
import time
start = time.perf_counter()
import simplexwidth.cli
elapsed = time.perf_counter() - start
import json, numpy, platform
print(json.dumps({"import_s": elapsed, "package": simplexwidth.cli.__file__,
                  "numpy": numpy.__version__, "python": platform.python_version()}))
"""


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


@dataclass
class Outcome:
    """One CLI command as one child process ran it."""

    argv: list[str]
    exit: int
    wall_s: float
    digest: str | None = None
    bytes: int = 0
    lines: int = 0
    peak_rss_kb: int = 0
    package: str = ""
    trace: dict | None = None
    check_error: str | None = None


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, outcome: Outcome, reference: str | None) -> None:
        self.attempted += 1
        reason = failure_reason(outcome, reference)
        if reason:
            self.failures.append(f"{' '.join(outcome.argv)}: {reason}")


def failure_reason(outcome: Outcome, reference: str | None) -> str | None:
    """Why one operation failed, or None. ``reference`` is the digest of
    the checked run of the same command and seed, if there was one."""
    if outcome.exit != 0:
        return f"exit code {outcome.exit}"
    if outcome.digest is None:
        return "the child reported no result"
    if not Path(outcome.package).resolve().is_relative_to(ROOT / "src"):
        return f"measured {outcome.package}, not the working tree"
    if outcome.check_error:
        return f"output rejected: {outcome.check_error}"
    if reference is not None and outcome.digest != reference:
        return "stdout digest differs from an earlier run of the same seed"
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Children compile what they import and leave no bytecode cache, so a
    # result does not depend on an earlier run or on a writable checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_command(
    argv: list[str],
    mode: str,
    checker: Checker | None = None,
    timeout: float = RUN_LIMIT_S,
) -> Outcome:
    """Run one CLI command in a child; ``mode`` is sink, tee or trace.

    With ``tee`` the child's stdout streams through ``checker`` line by
    line and through a digest of its own, which must match the child's.
    A child still running after ``timeout`` seconds is killed.
    """
    result_r, result_w = os.pipe()
    command = [sys.executable, str(HERE / "child.py"), str(result_w), mode, "--", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if mode == "tee" else subprocess.DEVNULL,
        pass_fds=(result_w,),
    )
    os.close(result_w)
    result = bytearray()
    stream_sha = hashlib.sha256()
    pending = b""
    with selectors.DefaultSelector() as sel:
        sel.register(result_r, selectors.EVENT_READ, "result")
        if proc.stdout is not None:
            sel.register(proc.stdout.fileno(), selectors.EVENT_READ, "stdout")
        deadline = start + timeout
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 20)
                if not data:
                    sel.unregister(key.fd)
                elif key.data == "result":
                    result += data
                else:
                    stream_sha.update(data)
                    *lines, pending = (pending + data).split(b"\n")
                    for line in lines:
                        checker.feed(line.decode("utf-8", "replace"))
    code = proc.wait()
    wall = time.perf_counter() - start
    os.close(result_r)
    if proc.stdout is not None:
        proc.stdout.close()
    try:
        report = json.loads(result)
    except ValueError:
        return Outcome(argv, exit=code or 1, wall_s=wall)
    outcome = Outcome(
        argv,
        exit=code,
        wall_s=wall,
        digest=report["digest"],
        bytes=report["bytes"],
        lines=report["lines"],
        peak_rss_kb=report["peak_rss_kb"],
        package=report["package"],
        trace=report.get("trace"),
    )
    if checker is not None:
        if pending:
            checker.feed(pending.decode("utf-8", "replace"))
        outcome.check_error = checker.finish()
        if stream_sha.hexdigest() != outcome.digest:
            outcome.check_error = "the child's digest differs from the bytes it wrote"
    return outcome


def measure_setup() -> tuple[float, dict[str, str]]:
    """Median seconds to import simplexwidth.cli in a fresh interpreter,
    after one discarded warm-up import, and the versions it reports."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"importing simplexwidth.cli took over {exc.timeout} s") from exc
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            raise SetupError(f"cannot import simplexwidth.cli: {lines[-1]}")
        report = json.loads(proc.stdout)
        if not Path(report["package"]).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"imported {report['package']}, not the working tree")
        times.append(report["import_s"])
    return statistics.median(times[1:]), {
        "python": report["python"],
        "numpy": report["numpy"],
    }


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its commands."""
    stats: dict[str, list[float]] = {key: [0, 0.0, 0.0] for _, _, key, _ in HOOKS}
    module_self = dict.fromkeys(MODULES, 0.0)
    counters = dict.fromkeys(COUNTERS, 0)
    spans, missing = 0, set()
    for outcome in outcomes:
        trace = outcome.trace or {}
        for key, values in trace.get("stats", {}).items():
            stats[key] = [a + b for a, b in zip(stats[key], values)]
        for module, seconds in trace.get("module_self_s", {}).items():
            module_self[module] += seconds
        for name, count in trace.get("counters", {}).items():
            counters[name] += count
        spans += len(trace.get("spans", []))
        missing.update(trace.get("missing", []))

    values: dict[str, float] = {}
    for key, (calls, inclusive, own) in stats.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.s"] = inclusive
        values[f"{key}.self_s"] = own
    for module, seconds in module_self.items():
        values[f"{module}.self_s"] = seconds
    values.update(
        (name, counters[name])
        for name in COUNTERS
        if name not in ("optimizer.converged", "optimizer.family_hits")
    )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    calls = stats["optimizer.minimize_width"][0]
    values["optimizer.us_per_restart_iteration"] = 1e6 * ratio(
        stats["optimizer.minimize_width"][1], counters["optimizer.restart_iterations"]
    )
    values["optimizer.family_hit_ratio"] = ratio(
        counters["optimizer.family_hits"], counters["optimizer.family_checked"]
    )
    values["optimizer.converged_ratio"] = ratio(counters["optimizer.converged"], calls)
    values["cli.stdout_bytes"] = sum(o.bytes for o in outcomes)
    values["cli.stdout_lines"] = sum(o.lines for o in outcomes)
    values["trace.spans"] = spans
    values["trace.missing_hooks"] = len(missing)
    return values


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.wall_s for o in outcomes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object and prints the
    human-readable lines that precede it."""
    commands = WORKLOADS[name](seed % 2**64)
    limit = time.perf_counter() + RUN_LIMIT_S
    setup_s, versions = measure_setup()
    environment = {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "pythonpath": "src",
        "pythondontwritebytecode": "1",
        "closed_loop_callers": 1,
    }
    print("environment: " + json.dumps(environment, sort_keys=True))

    ledger = Ledger()
    references = []
    for argv in commands:
        outcome = run_command(argv, "tee", checker_for(argv), limit - time.perf_counter())
        ledger.record(outcome, None)
        references.append(outcome.digest)
        print(f"digest seed={seed} {' '.join(argv)}: sha256:{outcome.digest}")

    modes = ("trace", "sink") if trace else ("sink",)
    passes: dict[str, list[list[Outcome]]] = {mode: [] for mode in modes}
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < min(deadline, limit) or not all(passes.values()):
        mode = modes[turn % len(modes)]
        turn += 1
        outcomes = [run_command(argv, mode, None, limit - time.perf_counter()) for argv in commands]
        for outcome, reference in zip(outcomes, references):
            ledger.record(outcome, reference)
        passes[mode].append(outcomes)

    walls = [pass_wall(p) for p in passes["sink"]]
    if trace:
        traced = [layer_metrics(p) for p in passes["trace"]]
        metrics = {
            name: statistics.median_low(t[name] for t in traced)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            pass_wall(p) for p in passes["trace"]
        ) - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(
                max(o.peak_rss_kb for o in p) / 1024 for p in passes["sink"]
            ),
            "ok_ratio": (ledger.attempted - len(ledger.failures)) / ledger.attempted,
        }
        units = END_TO_END

    counts = {mode: len(p) for mode, p in passes.items()}
    print(f"workload {name} seed={seed}: 1 checked pass, timed passes {counts}")
    for mode, mode_passes in passes.items():
        print(f"pass wall_s {mode}: " + " ".join(f"{pass_wall(p):.4f}" for p in mode_passes))
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, unit in units:
        print(f"{metric} {metrics[metric]!r} {unit}")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "simplexwidth" / "cli.py").is_file():
        print(f"error: no simplexwidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
