"""Command-line front-end for the simplex width toolkit.

Subcommands: `table` (closed-form table, CSV or JSON lines), `width`
(one simplex, float or exact rational), `optimize` (subgradient
minimizer), `directions` (optimal direction family), and `verify`
(full cross-check battery).

Exit codes: 0 success, 1 verification failure, 2 usage error or output
that cannot be written.
Identical command line and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from itertools import product
from typing import IO, Callable, Iterator, Sequence

from .closed_form import (
    SimplexKind,
    _halved,
    _squared_pairs,
    alpha_beta,
    optimal_t,
    width,
    width_squared,
)
from .directions import is_optimal_direction, make_two_value_direction, optimal_low_sets
from .geometry import (
    MAX_ORDER,
    MAX_SEED,
    VERTEX_MAX_ORDER,
    check_flag,
    check_order,
    regular_simplex_vertices,
    standard_simplex_vertices,
)
from .optimizer import OptimizerConfig, minimize_width
from .verification import EXACT_MAX_N, derive_seed, run_all_checks

TABLE_MAX_N = 10_000
TABLE_NUMERIC_MAX_N = 100
# Each restart is one row of every restarts x (n+1) optimizer array and
# one spawned seed sequence; the cap keeps those arrays near 8 MB at
# n = 1000, of which the minimizer holds three at a time.
MAX_RESTARTS = 1024
# `directions` prints the family size C(n+1, t) in decimal; 14,290 is the
# largest order whose size fits Python's default 4,300-digit limit on
# int-to-str conversion.
DIRECTIONS_MAX_N = 14_290

CSV_COLUMNS = (
    "n",
    "parity",
    "width_std_sq",
    "width_reg_sq",
    "width_reg",
    "inradius",
    "circumradius",
)
NUMERIC_COLUMNS = ("numeric_width", "abs_error")

# Written as numerator/denominator, and quoted in a JSON line.
_RATIONAL_COLUMNS = frozenset(("width_std_sq", "width_reg_sq"))


def format_decimal(x: float) -> str:
    """12 significant digits, round-half-even, always with a decimal
    point or exponent so the value reads as non-integral.

    Raises ValueError on inf and nan, which are numbers in neither CSV
    nor JSON.
    """
    text = format(x, ".12g")
    if "." not in text and "e" not in text:
        # "inf", "-inf" and "nan" have neither, so only they and whole
        # numbers pay for this check.
        if not math.isfinite(x):
            raise ValueError(f"cannot write the non-finite value {x!r} as a decimal")
        text += ".0"
    return text


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _use_color(stream: IO[str]) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _line_template(columns: Sequence[str], fmt: str) -> str:
    """The %-template of one table line in the given format.

    Every column takes one field, a rational column two: its numerator and
    denominator. No field holds a quote, a comma, a backslash or a control
    character, so neither format escapes anything. In a JSON line the
    parity and the rationals are strings, the other columns numbers.
    """
    slots = ["%s/%s" if c in _RATIONAL_COLUMNS else "%s" for c in columns]
    if fmt == "csv":
        return ",".join(slots) + "\n"
    quoted = _RATIONAL_COLUMNS | {"parity"}
    return "{" + ", ".join(
        f'"{c}": "{slot}"' if c in quoted else f'"{c}": {slot}'
        for c, slot in zip(columns, slots)
    ) + "}\n"


def table_rows(
    max_n: int, include_numeric: bool, seed: int, restarts: int
) -> Iterator[tuple[object, ...]]:
    """The fields of the rows for n = 1..max_n, in the order of
    `_line_template`, from the closed forms' integer pairs."""
    check_order(max_n)
    check_flag(include_numeric, "include_numeric")
    for n in range(1, max_n + 1):
        (std_num, std_den), in_pair, circ_pair = _squared_pairs(n)
        reg_num, reg_den = _halved(std_num, std_den)
        in_num, in_den = _halved(*in_pair)
        circ_num, circ_den = _halved(*circ_pair)
        width_reg = math.sqrt(reg_num / reg_den)
        row: tuple[object, ...] = (
            n,
            "odd" if n % 2 else "even",
            std_num,
            std_den,
            reg_num,
            reg_den,
            format_decimal(width_reg),
            format_decimal(math.sqrt(in_num / in_den)),
            format_decimal(math.sqrt(circ_num / circ_den)),
        )
        if include_numeric:
            cfg = OptimizerConfig(
                restarts=restarts,
                seed=derive_seed(seed, n),
                constrain_sum_zero=True,
            )
            numeric = minimize_width(regular_simplex_vertices(n), cfg).width
            row += (format_decimal(numeric), format_decimal(abs(numeric - width_reg)))
        yield row


def cmd_table(args: argparse.Namespace) -> int:
    if args.include_numeric and args.max_n > TABLE_NUMERIC_MAX_N:
        # A usage error, exit 2, like the module validation errors in main.
        raise ValueError(
            f"--max-n must be in 1..{TABLE_NUMERIC_MAX_N} when --include-numeric is set"
        )
    columns = CSV_COLUMNS + (NUMERIC_COLUMNS if args.include_numeric else ())
    template = _line_template(columns, args.format)
    rows = table_rows(args.max_n, args.include_numeric, args.seed, args.restarts)
    if args.format == "csv":
        sys.stdout.write(",".join(columns) + "\n")
    sys.stdout.writelines(map(template.__mod__, rows))
    return 0


def cmd_width(args: argparse.Namespace) -> int:
    kind = SimplexKind(args.kind)
    if args.exact:
        print(f"width^2 = {format_rational(width_squared(args.n, kind))}")
    else:
        print(f"width = {format_decimal(width(args.n, kind))}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = OptimizerConfig(
        restarts=args.restarts,
        tol=args.tol,
        seed=args.seed,
        constrain_sum_zero=True,
    )
    result = minimize_width(standard_simplex_vertices(args.n), cfg)
    in_family = is_optimal_direction(args.n, result.direction)
    print(f"width: {format_decimal(result.width)}")
    print("direction: " + " ".join(format_decimal(c) for c in result.direction.coords))
    print(f"converged: {str(result.converged).lower()}")
    print(f"optimal-family: {str(in_family).lower()}")
    return 0


def _write_family(n: int, out: IO[str]) -> None:
    """Write every member of the optimal family of order n, one per line,
    in the order of `enumerate_optimal_directions`: lexicographic over the
    words in {alpha, beta} with t alphas, alpha first.

    No member is built here. `cmd_directions` builds the representative,
    and so checks it for unit norm and sum zero; every member permutes
    its coordinates, and math.fsum is correctly rounded, so no other
    check could fail. A line splits into a head of t coordinates and a
    tail; lexicographic order over lines is order over heads, then over
    tails. So the tails are joined once, grouped by alpha count, and each
    head is written in one call with every tail that completes it to t
    alphas (at most 462 lines, 150,150 bytes, at n = 20). Every head has
    a nonempty tail group, since t <= n + 1 - t.
    """
    optimal_low_sets(n)  # raises above ENUMERATION_CAP before any write
    t = optimal_t(n)
    low_text, high_text = map(format_decimal, alpha_beta(n, t))
    tails: list[list[str]] = [[] for _ in range(n + 2 - t)]
    for tail in product((low_text, high_text), repeat=n + 1 - t):
        tails[tail.count(low_text)].append(" ".join(tail))
    for head in product((low_text, high_text), repeat=t):
        prefix = " ".join(head) + " "
        out.write(prefix + ("\n" + prefix).join(tails[t - head.count(low_text)]) + "\n")


def cmd_directions(args: argparse.Namespace) -> int:
    n = args.n
    t = optimal_t(n)
    make_two_value_direction(n, range(t))  # built, hence validated, before any output
    if args.list:
        _write_family(n, sys.stdout)
        return 0
    alpha, beta = alpha_beta(n, t)
    # One write of all five lines: under a lowered int-to-str digit limit
    # the count's conversion raises, and that usage error writes nothing.
    sys.stdout.write(
        f"n: {n}\nt: {t}\ncount: {math.comb(n + 1, t)}\n"
        f"alpha: {format_decimal(alpha)}\nbeta: {format_decimal(beta)}\n"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks(args.max_n, args.seed)
    color = _use_color(sys.stdout)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if color:
            status = f"\x1b[{'32' if res.passed else '31'}m{status}\x1b[0m"
        print(f"{status} {res.name}: {res.detail}")
        failures += not res.passed
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _bounded_int(hi: int, lo: int = 1) -> Callable[[str], int]:
    """Argument type for an integer in lo..hi."""

    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}")
        return value

    parse.__name__ = "int"  # argparse names it: "invalid int value: 'x'"
    return parse


class _Parser(argparse.ArgumentParser):
    """An `argparse.ArgumentParser` whose help, like every other output,
    raises when it cannot be written; argparse's own ignores that."""

    def print_help(self, file: IO[str] | None = None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplexwidth",
        description="Exact widths, radii, and optimal directions of regular simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="closed-form table for n = 1..max-n")
    table.add_argument("--max-n", type=_bounded_int(TABLE_MAX_N), required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--include-numeric",
        action="store_true",
        help="append the numeric minimizer's width and its absolute error",
    )
    table.add_argument("--restarts", type=_bounded_int(MAX_RESTARTS), default=64)
    table.add_argument("--seed", type=_bounded_int(MAX_SEED, 0), default=0)
    table.set_defaults(func=cmd_table)

    width = sub.add_parser("width", help="width of a single simplex")
    width.add_argument("--n", type=_bounded_int(MAX_ORDER), required=True)
    width.add_argument("--kind", choices=("standard", "regular"), default="standard")
    width.add_argument(
        "--exact", action="store_true", help="print the squared width as p/q"
    )
    width.set_defaults(func=cmd_width)

    optimize = sub.add_parser(
        "optimize", help="numerically minimize the width of the standard simplex"
    )
    # `optimize` passes the minimizer standard_simplex_vertices(n), which
    # holds n and c, not its (n+1)^2 coordinates, and takes that builder's cap.
    optimize.add_argument("--n", type=_bounded_int(VERTEX_MAX_ORDER), required=True)
    optimize.add_argument("--restarts", type=_bounded_int(MAX_RESTARTS), default=64)
    optimize.add_argument("--seed", type=_bounded_int(MAX_SEED, 0), default=0)
    optimize.add_argument("--tol", type=float, default=1e-10)
    optimize.set_defaults(func=cmd_optimize)

    directions = sub.add_parser(
        "directions", help="optimal direction family for one order"
    )
    directions.add_argument(
        "--n", type=_bounded_int(DIRECTIONS_MAX_N), required=True
    )
    directions.add_argument(
        "--list", action="store_true", help="print every member, one per line"
    )
    directions.set_defaults(func=cmd_directions)

    verify = sub.add_parser("verify", help="run the full cross-check battery")
    verify.add_argument("--max-n", type=_bounded_int(EXACT_MAX_N), default=12)
    verify.add_argument("--seed", type=_bounded_int(MAX_SEED, 0), default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code  # argparse exits with an int: 0 after help, 2 on misuse
        else:
            code = args.func(args)
        # Help and command output wait in stdout's buffer: a full disk or a
        # closed pipe shows when it is flushed.
        sys.stdout.flush()
    except OSError as exc:
        # Stdout is a closed pipe or a full disk: not a failed check.
        _discard_stdout()
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad argument values surface as the module checks' ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _discard_stdout() -> None:
    """Point stdout's descriptor, if it has one, at the null device, so that
    the interpreter's final flush of what is still buffered cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
