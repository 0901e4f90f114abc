"""Command-line contract: formats, golden values, exit codes, determinism."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwidth import cli, closed_form, verification
from simplexwidth.closed_form import (
    SimplexKind,
    circumradius_squared,
    inradius_squared,
    optimal_t,
    width_squared,
)
from simplexwidth.directions import ENUMERATION_CAP, enumerate_optimal_directions
from simplexwidth.geometry import MAX_SEED, DimensionError, Direction, check_order
from simplexwidth.optimizer import OptimizerConfig

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


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_format_decimal_rejects_non_finite_values(x):
    with pytest.raises(ValueError, match=repr(x)):
        cli.format_decimal(x)


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


def test_non_integer_is_a_usage_error_naming_int(capsys):
    code, out, err = run(capsys, "table", "--max-n", "x")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "simplexwidth table: error: argument --max-n: invalid int value: 'x'"
    )


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


def test_width_cap_is_usage_error(capsys):
    # rejected by argument parsing, one past the order cap of the closed forms
    code, out, err = run(capsys, "width", "--n", "1000001")
    assert code == 2
    assert "1..1000000" in err
    assert out == ""
    assert run(capsys, "width", "--n", "1000000")[0] == 0


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


@pytest.mark.parametrize(
    "n,expected",
    [
        (
            21,
            "n: 21\nt: 11\ncount: 705432\n"
            "alpha: -0.213200716356\nbeta: 0.213200716356\n",
        ),
        (
            100,
            "n: 100\nt: 50\ncount: 199804427433372226016001220056\n"
            "alpha: -0.100493830164\nbeta: 0.0985233629057\n",
        ),
    ],
)
def test_directions_summary_above_the_enumeration_cap(capsys, n, expected):
    assert n > ENUMERATION_CAP
    code, out, err = run(capsys, "directions", "--n", str(n))
    assert code == 0
    assert err == ""
    assert out == expected


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


def test_directions_summary_cap_is_usage_error(capsys):
    # the largest order whose family size prints in decimal: C(n+1, t) has
    # at most 4,300 digits, Python's default int-to-str limit, at the cap,
    # and more one order above it
    n = cli.DIRECTIONS_MAX_N
    assert (n + 1, optimal_t(n)) == (14291, 7145)
    assert (n + 2, optimal_t(n + 1)) == (14292, 7146)
    assert math.comb(14291, 7145) < 10**4300 <= math.comb(14292, 7146)
    code, out, _ = run(capsys, "directions", "--n", str(n))
    assert code == 0
    assert out.startswith(f"n: {n}\n")
    # one more is rejected by argument parsing, before anything is
    # computed or printed
    code, out, err = run(capsys, "directions", "--n", str(n + 1))
    assert code == 2
    assert f"1..{n}" in err
    assert out == ""


def test_directions_summary_past_a_lowered_digit_limit_writes_nothing(capsys):
    # the family size at n = 3000 has 902 digits: under a 640-digit limit
    # its conversion fails, and the usage error leaves stdout empty
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "directions", "--n", "3000")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
        (13, 3_432, "fc8d8bb6a1e073edd1abf65e90199e4d0bebe3ce7ce64952f2aaf4ec5a28bd5c"),
        (14, 6_435, "e351b0fa83884881b7c1268ddeca78a6143fd95923cdcb66ad50b4052e796bab"),
        (15, 12_870, "78091aadc2da0fa4af1286280464bb349ce03c280c6d4ed5fa17e53d030d962e"),
        (16, 24_310, "c112ed7b76659ad160c4792941bfe99fd83b2de1a6eb56b102786106565276ba"),
        (17, 48_620, "5f953aa1b944ec66a272fe5108f04f294a6f4d871727439e18629f9959b4201f"),
        (18, 92_378, "fbf8d9211029e425df29bd43afff386623280963dd52cec6012e146d78f84f6c"),
        (19, 184_756, "3120d1afe69781d03ae89d83d583f254b4cc7870963122e7f2069eff9de3ab88"),
        (20, 352_716, "e532d21ce5316a1e8e1025d19d8b5ccb7310c62d4f3160723ed7608f5c6aa4d8"),
    ],
)
def test_directions_list_golden_digest(monkeypatch, n, lines, digest):
    # Every order above the content test's, up to the enumeration cap
    # n = 20, whose 114.6 MB of output is hashed as it streams, never held.
    assert lines == math.comb(n + 1, (n + 1) // 2)
    assert n <= ENUMERATION_CAP
    sink = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["directions", "--n", str(n), "--list"]) == 0
    assert sink.lines == lines
    assert sink.sha.hexdigest() == digest


class _WriteSizes(io.TextIOBase):
    """Text stream that keeps the largest write, in bytes and in lines."""

    def __init__(self):
        self.bytes = self.lines = 0

    def write(self, text):
        self.bytes = max(self.bytes, len(text.encode("utf-8")))
        self.lines = max(self.lines, text.count("\n"))
        return len(text)


@pytest.mark.parametrize("n,lines,size", [(18, 252, 74_088), (20, 462, 150_150)])
def test_directions_list_writes_are_bounded(n, lines, size):
    # each write is one head joined to its tail group, never the family
    sink = _WriteSizes()
    cli._write_family(n, sink)
    assert (sink.lines, sink.bytes) == (lines, size)


@pytest.mark.parametrize(
    "fmt,lines,digest",
    [
        ("csv", 10_001, "99fe59234bbba4a0254dc1bd24d73635fc902e5664e4f9ee420a126d4cef8d59"),
        ("json", 10_000, "be7b0a086afab6fc88be1ccf5176ee344f7b16f076d415a749fd0a2992e266f8"),
    ],
)
def test_table_golden_digest(monkeypatch, fmt, lines, digest):
    # the whole table at its --max-n cap, byte for byte
    sink = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["table", "--max-n", str(cli.TABLE_MAX_N), "--format", fmt]
    assert cli.main(argv) == 0
    assert sink.lines == lines
    assert sink.sha.hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [("--max-n", str(cli.TABLE_MAX_N)), ("--max-n", "8", "--include-numeric")],
    ids=["cap", "numeric"],
)
def test_table_json_lines_are_the_csv_rows(capsys, argv):
    code, csv_out, _ = run(capsys, "table", *argv)
    assert code == 0
    code, json_out, _ = run(capsys, "table", *argv, "--format", "json")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    lines = json_out.splitlines()
    assert len(lines) == len(rows) == int(argv[1])
    strings = {"parity", "width_std_sq", "width_reg_sq"}
    for line, row in zip(lines, rows):
        expected = {
            key: int(text) if key == "n" else text if key in strings else float(text)
            for key, text in row.items()
        }
        obj = json.loads(line)
        assert obj == expected
        assert list(obj) == list(row)  # the CSV column order
        assert {key for key, value in obj.items() if isinstance(value, str)} == strings


@pytest.mark.parametrize("argv", [("--n", "100"), ("--n", "5", "--list")])
def test_directions_validates_one_direction(monkeypatch, capsys, argv):
    # the representative, built before anything is printed
    built = []
    original = Direction.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Direction, "__post_init__", counting)
    assert run(capsys, "directions", *argv)[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_builds_no_fraction_and_checks_the_order_once(monkeypatch, fmt):
    # rows come from the closed forms' integer pairs, not one Fraction each
    built, checked = [], []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def counting_check_order(*args):
        checked.append(args)
        return check_order(*args)

    monkeypatch.setattr(closed_form, "Fraction", CountingFraction)
    for module in (closed_form, cli):
        monkeypatch.setattr(module, "check_order", counting_check_order, raising=False)
    monkeypatch.setattr(sys, "stdout", _HashingStdout())
    argv = ["table", "--max-n", str(cli.TABLE_MAX_N), "--format", fmt]
    assert cli.main(argv) == 0
    assert built == []
    assert len(checked) <= 1


def test_table_calls_format_decimal_through_the_module(monkeypatch, capsys):
    # the benchmark's tracer counts decimals by wrapping this global after import
    calls = []
    original = cli.format_decimal
    monkeypatch.setattr(cli, "format_decimal", lambda x: calls.append(x) or original(x))
    assert run(capsys, "table", "--max-n", "10", "--format", "json")[0] == 0
    assert len(calls) == 30


@pytest.mark.parametrize("max_n", [0, True, cli.MAX_ORDER + 1])
def test_table_rows_rejects_the_order_before_any_row(max_n):
    with pytest.raises(DimensionError):
        next(cli.table_rows(max_n, False, 0, 64))


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
    code, _, err = run(capsys, "optimize", "--n", str(cli.VERTEX_MAX_ORDER + 1))
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


@pytest.mark.parametrize(
    "config",
    [
        OptimizerConfig(),
        # build_parser must read the defaults, not restate them
        OptimizerConfig(restarts=7, tol=1e-3, seed=5),
    ],
)
def test_optimizer_options_default_to_the_optimizer_config(monkeypatch, config):
    monkeypatch.setattr(cli, "OptimizerConfig", lambda: config)
    parser = cli.build_parser()
    optimize = parser.parse_args(["optimize", "--n", "3"])
    table = parser.parse_args(["table", "--max-n", "3"])
    assert (optimize.restarts, optimize.tol, optimize.seed) == (
        config.restarts,
        config.tol,
        config.seed,
    )
    assert table.restarts == config.restarts
    # run seeds, keyed per order by derive_seed, not optimizer seeds
    assert table.seed == 0
    assert parser.parse_args(["verify"]).seed == 0


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


EXPECTED_VERIFY_64_SEED_7 = (
    "PASS exact-rational-identities: n=1..64: all identities hold exactly\n"
    "PASS radii-distances: n=1..32: radii match within 1e-14\n"
    "PASS enumeration-oracle: n=1..64: enumeration exact\n"
    "PASS direction-families: odd n<=11, even n<=10: families achieve the width\n"
    "PASS energy-fuzz: 10000 instances, zero violations\n"
    "PASS optimizer-agreement: n=1..12: closed form rediscovered\n"
    "all 6 checks passed\n"
)


def test_verify_golden(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "64", "--seed", "7")
    assert code == 0
    assert err == ""
    assert out == EXPECTED_VERIFY_64_SEED_7


@pytest.mark.parametrize(
    "max_n,ran",
    [
        (1, "odd n<=1"),
        (2, "odd n<=1, even n<=2"),
        (5, "odd n<=5, even n<=4"),
        (10, "odd n<=9, even n<=10"),
        (11, "odd n<=11, even n<=10"),
    ],
)
def test_verify_names_the_family_orders_it_ran(max_n, ran):
    # the check alone; test_verify_golden pins the line verify prints
    result = verification.check_direction_families(max_n)
    assert result.passed
    assert result.detail == f"{ran}: families achieve the width"


def test_verify_reports_failed_checks_with_exit_1(monkeypatch, capsys):
    # a wrong circumcenter distance, caught by two checks
    monkeypatch.setattr(
        verification, "circumdistance_squared", lambda n: Fraction(n, n + 2)
    )
    code, out, err = run(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert "FAIL exact-rational-identities: circumdistance formula mismatch at n=1" in lines
    assert "FAIL radii-distances: vertex distance off at n=1, j=0" in lines
    assert sum(line.startswith("PASS ") for line in lines) == 4
    assert lines[-1] == "2 of 6 checks failed"


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


# A grammar of command lines for the five subcommands. Every integer
# option draws from its own values: the one below its range, in-range
# values small enough that a command runs in milliseconds (orders <= 12,
# restarts <= 4), and the one above its cap, spelled in ways that int()
# reads or refuses.
# ASCII, Arabic-Indic and full-width digits
_DIGITS = tuple("".join(map(chr, range(zero, zero + 10))) for zero in (0x30, 0x660, 0xFF10))


def _spellings(values):
    """Ways of writing the integers in ``values``: in any of `_DIGITS`,
    with an underscore, padded with whitespace, as a 5,000-digit number,
    or not as an integer at all."""
    digits = st.sampled_from(_DIGITS).map(lambda d: str.maketrans("0123456789", d))
    return st.one_of(
        st.builds(lambda v, table: str(v).translate(table), values, digits),
        values.map(lambda v: ("-" if v < 0 else "") + "0_" + str(abs(v))),
        st.builds(lambda w, v: w + str(v) + w, st.sampled_from([" ", "\t", "\u2003"]), values),
        st.sampled_from(
            ["1" + "0" * 4999, "-" + "9" * 5000, "", "-", "1__0", "_1", "0x10", "1.0", "\u00b2"]
        ),
    )


def _int_tokens(lo, cap, small):
    return _spellings(st.sampled_from([*range(lo - 1, min(cap, small) + 1), cap + 1]))


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "1e-400", "-0.0", "1e-10", "0.5",
                     "\uff11e-3", "1_0.5", " 1e-6 ", "0x1p-3", "1" * 5000]),
)
_SEED = _spellings(st.sampled_from([-1, 0, 1, 2, MAX_SEED, MAX_SEED + 1]))
_RESTARTS = _int_tokens(1, cli.MAX_RESTARTS, 4)
# option -> its value tokens, or None for a flag that takes no value
_COMMANDS = {
    "table": {
        "--max-n": _int_tokens(1, cli.TABLE_MAX_N, 12),
        "--format": st.sampled_from(["csv", "json", "xml", "CSV"]),
        "--include-numeric": None,
        "--restarts": _RESTARTS,
        "--seed": _SEED,
    },
    "width": {
        "--n": _spellings(st.sampled_from([0, 1, 2, 12, cli.MAX_ORDER, cli.MAX_ORDER + 1])),
        "--kind": st.sampled_from(["standard", "regular", "unit"]),
        "--exact": None,
    },
    "optimize": {
        "--n": _int_tokens(1, cli.VERTEX_MAX_ORDER, 12),
        "--restarts": _RESTARTS,
        "--seed": _SEED,
        "--tol": _FLOATS,
    },
    "directions": {
        "--n": _spellings(
            st.sampled_from([0, 1, 2, 12, 21, cli.DIRECTIONS_MAX_N, cli.DIRECTIONS_MAX_N + 1])
        ),
        "--list": None,
    },
    "verify": {"--max-n": _int_tokens(1, verification.EXACT_MAX_N, 12), "--seed": _SEED},
}
# Unknown options, an option of another subcommand, help, and stray words.
_UNKNOWN = ["--frobnicate", "--list", "--n=", "-x", "--", "-h", "extra", "table"]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[command]
    # most command lines start with the first option, which `verify`
    # defaults and the others require
    words = [next(iter(options))] if draw(st.integers(0, 3)) else []
    words += draw(st.lists(st.sampled_from(list(options)), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_UNKNOWN)))
    argv = [command]
    for word in words:
        argv.append(word)
        if options.get(word) is not None and draw(st.integers(0, 9)):
            argv.append(draw(options[word]))
    return argv


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# argparse's usage error: the usage lines, then "<prog>: error: <message>".
_USAGE_ERROR = re.compile(r"usage: simplexwidth.*\nsimplexwidth[^\n]*: error: [^\n]*\n", re.S)


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_no_command_line_escapes_the_exit_code_contract(argv):
    with mock.patch.object(verification, "FUZZ_TRIALS", 100):
        first = _run_quietly(argv)
        assert _run_quietly(argv) == first
    code, out, err = first
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"error: [^\n]*\n", err) or _USAGE_ERROR.fullmatch(err), err


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def test_no_color_env_is_respected(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._use_color(FakeTty())
    monkeypatch.setenv("NO_COLOR", "1")
    assert not cli._use_color(FakeTty())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert not cli._use_color(io.StringIO())


def test_verify_colors_pass_and_fail_on_a_tty(monkeypatch):
    results = [
        verification.CheckResult("good", True, "held"),
        verification.CheckResult("bad", False, "broke"),
    ]
    monkeypatch.setattr(cli, "run_all_checks", lambda max_n, seed: results)
    monkeypatch.delenv("NO_COLOR", raising=False)
    out = FakeTty()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["verify", "--max-n", "1"]) == 1
    assert out.getvalue() == (
        "\x1b[32mPASS\x1b[0m good: held\n"
        "\x1b[31mFAIL\x1b[0m bad: broke\n"
        "1 of 2 checks failed\n"
    )


def test_a_full_disk_exits_2_with_one_error_line(monkeypatch, capsys):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert cli.main(["table", "--max-n", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize(
    "failing",
    [{"write", "flush"}, {"write"}, {"flush"}],
    ids=["write-and-flush", "unbuffered", "buffered"],
)
@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]], ids=["top", "table"])
def test_help_that_cannot_be_written_exits_2(monkeypatch, capsys, argv, failing):
    # argparse ignores a failed write of its help: exit 0, nothing written.
    # A buffered stdout fails at the flush, an unbuffered one
    # (PYTHONUNBUFFERED=1) at the write.
    class FullDisk(io.StringIO):
        def write(self, text):
            if "write" in failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

        def flush(self):
            if "flush" in failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["table", "--max-n", "10000"], ["directions", "--n", "20", "--list"]],
    ids=["table", "directions"],
)
def test_a_pipe_closed_after_one_line_exits_2_without_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplexwidth.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().endswith(b"\n")
    proc.stdout.close()  # the reader goes away, as `head -n 1` does
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


EXACT_COMMANDS = [
    ["table", "--max-n", "20"],
    ["table", "--max-n", "20", "--format", "json"],
    ["width", "--n", "5", "--exact"],
    ["directions", "--n", "5"],
    ["directions", "--n", "5", "--list"],
    ["directions", "--n", "100"],
]


# Blocks numpy, imports the package eagerly as usual, runs each command
# given as JSON in argv[1] and prints its exit code and stdout as JSON,
# followed by the numeric modules that were imported.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import simplexwidth, simplexwidth.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = simplexwidth.cli.main(argv)
    runs.append([code, out.getvalue()])
modules = ["simplexwidth.optimizer", "simplexwidth.verification", "simplexwidth.energy"]
print(json.dumps({"runs": runs, "modules": [m for m in modules if m in sys.modules]}))
"""


def test_exact_commands_run_without_numpy(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(EXACT_COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # the tracer of the benchmark finds its hooks in these modules
    assert report["modules"] == [
        "simplexwidth.optimizer",
        "simplexwidth.verification",
        "simplexwidth.energy",
    ]
    for argv, (code, out) in zip(EXACT_COMMANDS, report["runs"]):
        assert code == 0, argv
        assert out == run(capsys, *argv)[1], argv


# Lists the modules that importing the CLI adds to sys.modules, taken as a
# difference so that the interpreter's own start-up imports do not count,
# then runs the commands given as JSON in argv[1] with numpy importable and
# prints their exit codes and whether numpy was loaded by the end.
_LOADED_MODULES = """
import sys
before = set(sys.modules)
import simplexwidth.cli
added = sorted(set(sys.modules) - before)
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    codes = [simplexwidth.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"added": added, "codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_cli_import_loads_no_numpy_dataclasses_inspect_csv_or_json():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, json.dumps(EXACT_COMMANDS)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    added = set(report["added"])
    assert not added & {"numpy", "dataclasses", "inspect", "csv", "json"}, added
    # the tracer of the benchmark finds its hooks in the numeric modules
    numeric = {"simplexwidth.optimizer", "simplexwidth.verification", "simplexwidth.energy"}
    assert numeric <= added
    # `table`, `width` and `directions` run without loading numpy
    assert report["codes"] == [0] * len(EXACT_COMMANDS)
    assert report["numpy"] is False


def _readme_examples():
    """(argv, expected stdout) of every `$ simplexwidth ...` line in the
    README's code blocks: the output is the lines after it, up to a blank
    line, the next command or the end of the block."""
    examples = []
    in_block = False
    current = None
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines() + [""]:
        ends = line.startswith("```") or not line or line.startswith("$ ")
        if current is not None and ends:
            examples.append((current[0], "".join(current[1])))
            current = None
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("$ simplexwidth "):
            current = (shlex.split(line)[2:], [])
        elif current is not None:
            current[1].append(line + "\n")
    return examples


README_EXAMPLES = _readme_examples()


def test_the_readme_shows_command_examples():
    commands = {argv[0] for argv, _ in README_EXAMPLES}
    assert {"table", "width", "optimize", "directions", "verify"} <= commands


@pytest.mark.parametrize(
    "argv,expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
)
def test_readme_examples_print_what_the_readme_shows(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected
