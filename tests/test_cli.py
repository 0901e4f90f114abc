"""Command-line contract: formats, golden values, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from simplexwidth import cli
from simplexwidth.closed_form import (
    SimplexKind,
    circumradius_squared,
    inradius_squared,
    width_squared,
)
from simplexwidth.directions import ENUMERATION_CAP, enumerate_optimal_directions

EXPECTED_TABLE_3 = (
    "n,parity,width_std_sq,width_reg_sq,width_reg,inradius,circumradius\n"
    "1,odd,2/1,1/1,1.0,0.5,0.5\n"
    "2,even,3/2,3/4,0.866025403784,0.288675134595,0.57735026919\n"
    "3,odd,1/1,1/2,0.707106781187,0.204124145232,0.612372435696\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_decimal_12_significant_digits():
    assert cli.format_decimal(1.0) == "1.0"
    assert cli.format_decimal(math.sqrt(3.0) / 2.0) == "0.866025403784"
    assert cli.format_decimal(math.sqrt(0.5)) == "0.707106781187"
    assert cli.format_decimal(0.0) == "0.0"
    assert cli.format_decimal(1e-16) == "1e-16"


def test_format_rational_lowest_terms():
    assert cli.format_rational(Fraction(4, 8)) == "1/2"
    assert cli.format_rational(Fraction(1)) == "1/1"
    assert cli.format_rational(Fraction(-2, 4)) == "-1/2"


def test_table_golden_csv(capsys):
    code, out, err = run(capsys, "table", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert err == ""
    assert out == EXPECTED_TABLE_3


def test_table_golden_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "1", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj == {
        "n": 1,
        "parity": "odd",
        "width_std_sq": "2/1",
        "width_reg_sq": "1/1",
        "width_reg": 1.0,
        "inradius": 0.5,
        "circumradius": 0.5,
    }
    # rationals stay strings, decimals stay numbers
    assert isinstance(obj["width_reg_sq"], str)
    assert isinstance(obj["width_reg"], float)


def test_table_csv_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "12")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    for row in rows:
        n = int(row["n"])
        assert row["parity"] == ("odd" if n % 2 else "even")
        assert Fraction(row["width_std_sq"]) == width_squared(n, SimplexKind.STANDARD)
        assert Fraction(row["width_reg_sq"]) == width_squared(n, SimplexKind.REGULAR)
        # decimals reproduce the closed forms to printed precision
        assert row["width_reg"] == cli.format_decimal(
            math.sqrt(width_squared(n, SimplexKind.REGULAR))
        )
        assert row["inradius"] == cli.format_decimal(math.sqrt(inradius_squared(n)))
        assert row["circumradius"] == cli.format_decimal(
            math.sqrt(circumradius_squared(n))
        )


def test_table_include_numeric_small_error(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--include-numeric")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        assert float(row["abs_error"]) <= 1e-6
        assert float(row["numeric_width"]) == pytest.approx(
            float(row["width_reg"]), abs=1e-6
        )


def test_table_determinism(capsys):
    args = ("table", "--max-n", "5", "--include-numeric", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_table_range_validation(capsys):
    code, _, err = run(capsys, "table", "--max-n", "0")
    assert code == 2
    code, _, err = run(capsys, "table", "--max-n", "10001")
    assert code == 2
    assert "--max-n" in err
    code, _, err = run(capsys, "table", "--max-n", "101", "--include-numeric")
    assert code == 2


def test_width_exact_and_decimal(capsys):
    code, out, _ = run(capsys, "width", "--n", "5", "--kind", "regular", "--exact")
    assert code == 0
    assert out == "width^2 = 1/3\n"
    code, out, _ = run(capsys, "width", "--n", "3", "--kind", "regular")
    assert out == "width = 0.707106781187\n"
    code, out, _ = run(capsys, "width", "--n", "3")
    assert out == "width = 1.0\n"  # standard kind is the default


def test_width_rejects_bad_order(capsys):
    code, _, _ = run(capsys, "width", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "width", "--n", "2000000")
    assert code == 2
    assert "error" in err


def test_directions_summary(capsys):
    code, out, _ = run(capsys, "directions", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "n: 4",
        "t: 2",
        "count: 10",
        "alpha: -0.547722557505",
        "beta: 0.36514837167",
    ]


def test_directions_list(capsys):
    code, out, _ = run(capsys, "directions", "--n", "3", "--list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    for line in lines:
        values = {abs(float(tok)) for tok in line.split()}
        assert values == {0.5}


def test_directions_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "directions", "--n", "21", "--list")
    assert code == 2
    assert "error" in err
    assert out == ""


@pytest.mark.parametrize("n", range(1, 13))
def test_directions_list_matches_the_enumerated_family(capsys, n):
    code, out, _ = run(capsys, "directions", "--n", str(n), "--list")
    assert code == 0
    expected = "\n".join(
        " ".join(cli.format_decimal(c) for c in d.coords)
        for d in enumerate_optimal_directions(n)
    )
    assert out == expected + "\n"


class _HashingStdout(io.TextIOBase):
    """Text stream that keeps a SHA-256 and a line count, not the text."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text):
        self.sha.update(text.encode("utf-8"))
        self.lines += text.count("\n")
        return len(text)


@pytest.mark.parametrize(
    "n,lines,digest",
    [
        (18, 92_378, "fbf8d9211029e425df29bd43afff386623280963dd52cec6012e146d78f84f6c"),
        (20, 352_716, "e532d21ce5316a1e8e1025d19d8b5ccb7310c62d4f3160723ed7608f5c6aa4d8"),
    ],
)
def test_directions_list_golden_digest(monkeypatch, n, lines, digest):
    # n = 20 is the enumeration cap; its ~120 MB of output is hashed as it
    # streams, never held.
    assert n <= ENUMERATION_CAP
    sink = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["directions", "--n", str(n), "--list"]) == 0
    assert sink.lines == lines
    assert sink.sha.hexdigest() == digest


def test_optimize_output(capsys):
    code, out, _ = run(capsys, "optimize", "--n", "2", "--restarts", "64", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "width: 1.22474487139"
    assert lines[1].startswith("direction: ")
    assert lines[2] == "converged: true"
    assert lines[3] == "optimal-family: true"
    coords = [float(tok) for tok in lines[1].split()[1:]]
    assert len(coords) == 3
    assert abs(sum(coords)) <= 1e-9


def test_optimize_cap_is_usage_error(capsys):
    # rejected before any vertex is built
    code, _, err = run(capsys, "optimize", "--n", str(cli.OPTIMIZE_MAX_N + 1))
    assert code == 2
    assert "1..1000" in err


@pytest.mark.parametrize(
    "argv",
    [("optimize", "--n", "2"), ("table", "--max-n", "2", "--include-numeric")],
    ids=["optimize", "table"],
)
def test_restarts_cap_is_usage_error(capsys, argv):
    # rejected by argument parsing, before any restart is set up
    over = str(cli.MAX_RESTARTS + 1)
    code, out, err = run(capsys, *argv, "--restarts", over)
    assert code == 2
    assert "error:" in err
    assert f"1..{cli.MAX_RESTARTS}" in err
    assert out == ""
    at_cap = cli.build_parser().parse_args([*argv, "--restarts", str(cli.MAX_RESTARTS)])
    assert at_cap.restarts == cli.MAX_RESTARTS


def test_optimize_determinism(capsys):
    args = ("optimize", "--n", "4", "--restarts", "8", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_passes_and_reports(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all 6 checks passed"
    assert sum(line.startswith("PASS ") for line in lines) == 6
    assert not any("\x1b[" in line for line in lines)  # not a tty, no color


def test_verify_range_validation(capsys):
    code, _, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 2
    code, _, err = run(capsys, "verify", "--max-n", "65")
    assert code == 2
    assert "1..64" in err


def test_seed_validation(capsys):
    code, _, _ = run(capsys, "verify", "--seed", "-1")
    assert code == 2
    code, _, _ = run(capsys, "optimize", "--n", "2", "--seed", str(2**64))
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "table")[0] == 2  # --max-n is required
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "table", "--help")[0] == 0


def test_no_color_env_is_respected(monkeypatch):
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._use_color(FakeTty())
    monkeypatch.setenv("NO_COLOR", "1")
    assert not cli._use_color(FakeTty())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert not cli._use_color(io.StringIO())
