"""Tests of the benchmark harness itself: the output checker accepts real
CLI output and rejects corrupted output, a nonzero exit and a digest
mismatch each count as a failure, and the tracer's accounting adds up.

Run from the root of a checkout:

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

import checker
import run
import tracer


def cli_lines(*argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "simplexwidth.cli", *argv],
        cwd=run.ROOT,
        env=run.child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def verdict(argv: list[str], lines: list[str]) -> str | None:
    check = checker.checker_for(argv)
    for line in lines:
        check.feed(line)
    return check.finish()


SMALL_COMMANDS = (
    ["table", "--max-n", "120"],
    ["table", "--max-n", "120", "--format", "json"],
    ["directions", "--n", "7", "--list"],
    ["directions", "--n", "8", "--list"],
    ["optimize", "--n", "6", "--restarts", "8", "--seed", "3"],
    ["verify", "--max-n", "2", "--seed", "5"],
)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.outputs = {tuple(argv): cli_lines(*argv) for argv in SMALL_COMMANDS}

    def lines(self, *argv: str) -> list[str]:
        return list(self.outputs[argv])

    def test_accepts_real_output(self) -> None:
        for argv, lines in self.outputs.items():
            with self.subTest(argv=argv):
                self.assertIsNone(verdict(list(argv), lines))

    def test_rejects_a_corrupted_table_row(self) -> None:
        argv = ("table", "--max-n", "120")
        lines = self.lines(*argv)
        lines[50] = lines[50].replace("/", "1/", 1)
        self.assertIn("width_std_sq", verdict(list(argv), lines))
        lines = self.lines(*argv)
        lines[-1] = lines[-1][:-1] + ("1" if lines[-1][-1] != "1" else "2")
        self.assertIn("circumradius", verdict(list(argv), lines))
        self.assertIn("rows", verdict(list(argv), self.lines(*argv)[:-1]))

    def test_rejects_a_corrupted_json_row(self) -> None:
        argv = ("table", "--max-n", "120", "--format", "json")
        lines = self.lines(*argv)
        row = json.loads(lines[9])
        row["width_reg_sq"] = "1/3"
        lines[9] = json.dumps(row)
        self.assertIn("width_reg_sq", verdict(list(argv), lines))

    def test_rejects_corrupted_directions(self) -> None:
        argv = ("directions", "--n", "8", "--list")
        good = self.lines(*argv)
        tokens = good[3].split(" ")
        low, high = sorted(set(tokens), key=float)
        first_low = tokens.index(low)
        cases = {
            "a third value": [tokens[0][:-1] + "9"] + tokens[1:],
            "one low value raised": tokens[:first_low] + [high] + tokens[first_low + 1 :],
            "a repeated line": good[2].split(" "),
        }
        for name, corrupted in cases.items():
            with self.subTest(name):
                lines = list(good)
                lines[3] = " ".join(corrupted)
                self.assertIsNotNone(verdict(list(argv), lines))
        self.assertIn("lines", verdict(list(argv), good[:-1]))

    def test_sum_tolerance_is_the_print_rounding(self) -> None:
        # The printed n = 18 values sum to 3e-12, not to zero.
        check = checker.DirectionsListChecker(18)
        alpha = -math.sqrt(10 / 171)
        beta = math.sqrt(9 / 190)
        line = [format(alpha, ".12g")] * 9 + [format(beta, ".12g")] * 10
        check.feed(" ".join(line))
        self.assertIsNone(check.error)
        line[-1] = format(beta + 2e-11, ".12g")
        check.feed(" ".join(line))
        self.assertIsNotNone(check.error)

    def test_rejects_a_wrong_optimize_result(self) -> None:
        argv = ("optimize", "--n", "6", "--restarts", "8", "--seed", "3")
        lines = self.lines(*argv)
        lines[0] = "width: 1.3"
        self.assertIn("closed form", verdict(list(argv), lines))
        lines = self.lines(*argv)
        lines[3] = "optimal-family: false"
        self.assertIn("family", verdict(list(argv), lines))

    def test_rejects_a_failed_verify(self) -> None:
        argv = ("verify", "--max-n", "2", "--seed", "5")
        lines = self.lines(*argv)
        lines[1] = "FAIL" + lines[1][4:]
        self.assertIn("not a passing check", verdict(list(argv), lines))
        self.assertIn("all 6 checks passed", verdict(list(argv), self.lines(*argv)[:-1]))


class FailureAccountingTest(unittest.TestCase):
    def test_nonzero_exit_counts_as_failure(self) -> None:
        outcome = run.run_command(["table", "--max-n", "0"], "sink")
        self.assertEqual(outcome.exit, 2)
        ledger = run.Ledger()
        ledger.record(outcome, None)
        self.assertEqual((ledger.attempted, len(ledger.failures)), (1, 1))
        self.assertIn("exit code 2", ledger.failures[0])

    def test_digest_mismatch_and_rejected_output_count_as_failures(self) -> None:
        argv = ["directions", "--n", "5", "--list"]
        checked = run.run_command(argv, "tee", checker.checker_for(argv))
        repeat = run.run_command(argv, "sink")
        self.assertIsNone(run.failure_reason(checked, None))
        self.assertIsNone(run.failure_reason(repeat, checked.digest))
        self.assertIn("digest", run.failure_reason(repeat, "0" * 64))
        rejected = run.run_command(argv, "tee", checker.DirectionsListChecker(6))
        self.assertIn("rejected", run.failure_reason(rejected, None))

    def test_a_command_past_its_time_is_killed_and_fails(self) -> None:
        outcome = run.run_command(["verify", "--max-n", "64"], "sink", timeout=0.5)
        self.assertLess(outcome.wall_s, 5.0)
        self.assertIn("exit code", run.failure_reason(outcome, None))

    def test_an_installed_copy_is_not_measured(self) -> None:
        outcome = run.Outcome(["verify"], exit=0, wall_s=1.0, digest="0", package="/x/cli.py")
        self.assertIn("working tree", run.failure_reason(outcome, None))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_and_spans_link_to_parents(self) -> None:
        outcome = run.run_command(["verify", "--max-n", "2", "--seed", "1"], "trace")
        self.assertIsNone(run.failure_reason(outcome, None))
        summary = outcome.trace
        self.assertEqual(summary["missing"], [])
        total = summary["stats"]["cli.main"][1]
        self.assertAlmostEqual(sum(summary["module_self_s"].values()), total, delta=1e-6 + 1e-9 * total)
        spans = {span[0]: span for span in summary["spans"]}
        roots = [span for span in spans.values() if span[1] is None]
        self.assertEqual([span[2] for span in roots], ["cli.main"])
        for span_id, parent, _, start, end, _ in spans.values():
            if parent is not None:
                self.assertLessEqual(spans[parent][3], start)
                self.assertLessEqual(end, spans[parent][4])
        metrics = run.layer_metrics([outcome])
        self.assertEqual(metrics["optimizer.minimize_width.calls"], 2)
        self.assertEqual(metrics["optimizer.family_hit_ratio"], 1.0)
        self.assertEqual(metrics["energy.energy_push.calls"], 10_000)
        self.assertGreater(metrics["verification.check_optimizer_agreement.s"], 0)

    def test_traced_output_matches_untraced(self) -> None:
        argv = ["optimize", "--n", "4", "--restarts", "4", "--seed", "2"]
        traced = run.run_command(argv, "trace")
        plain = run.run_command(argv, "sink")
        self.assertEqual(traced.digest, plain.digest)
        self.assertEqual(run.layer_metrics([traced])["geometry.vertex_floats"], 25)

    def test_a_failing_observer_does_not_fail_the_call(self) -> None:
        trace = tracer.Tracer()

        def broken(args: tuple, kwargs: dict, result: object) -> None:
            raise AttributeError("result has no iterations")

        wrapped = trace.wrap("optimizer.minimize_width", lambda x: x + 1, True, broken)
        self.assertEqual(wrapped(1), 2)
        self.assertEqual(trace.summary()["missing"], ["optimizer.minimize_width observer"])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["paths"], [Path(__file__).parent.name])

    def test_every_per_layer_metric_is_produced(self) -> None:
        produced = set(run.layer_metrics([])) | {"trace.overhead_s"}
        self.assertEqual({name for name, _ in run.PER_LAYER} - produced, set())
        hooked = {key.split(".")[0] for _, _, key, _ in tracer.HOOKS}
        self.assertEqual(hooked, set(tracer.MODULES))


if __name__ == "__main__":
    unittest.main()
