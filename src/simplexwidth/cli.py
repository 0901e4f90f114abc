"""Command-line front-end for the simplex width toolkit.

Subcommands: `table` (closed-form table, CSV or JSON lines), `width`
(one simplex, float or exact rational), `optimize` (subgradient
minimizer), `directions` (optimal direction family), and `verify`
(full cross-check battery).

Exit codes: 0 success, 1 verification failure, 2 usage error.
Identical command line and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import IO, Iterator, Sequence

from .closed_form import (
    SimplexKind,
    alpha_beta,
    circumradius_squared,
    inradius_squared,
    width_squared,
)
from .directions import is_optimal_direction, optimal_family, optimal_t
from .geometry import (
    VERTEX_MAX_ORDER,
    DimensionError,
    PreconditionError,
    regular_simplex_vertices,
    standard_simplex_vertices,
)
from .optimizer import OptimizerConfig, minimize_width
from .verification import derive_seed, run_all_checks

TABLE_MAX_N = 10_000
TABLE_NUMERIC_MAX_N = 100
VERIFY_MAX_N = 64
# The optimizer works on the dense (n+1) x (n+1) vertex matrix.
OPTIMIZE_MAX_N = VERTEX_MAX_ORDER
# Each restart is one row of every restarts x (n+1) optimizer array and
# one spawned seed sequence; the cap keeps those arrays near 8 MB at n = 1000.
MAX_RESTARTS = 1024
# `directions --list` writes its lines in chunks of this many: the output
# runs to ~120 MB at the enumeration cap, so it is never held whole.
LIST_CHUNK_LINES = 4096

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

# Columns rendered as bare JSON number literals rather than strings.
_DECIMAL_COLUMNS = frozenset(
    ("width_reg", "inradius", "circumradius") + NUMERIC_COLUMNS
)


def format_decimal(x: float) -> str:
    """12 significant digits, round-half-even, always with a decimal
    point or exponent so the value reads as non-integral."""
    text = format(x, ".12g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _use_color(stream: IO[str]) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def table_rows(
    max_n: int, include_numeric: bool, seed: int, restarts: int
) -> Iterator[dict[str, object]]:
    for n in range(1, max_n + 1):
        reg_sq = width_squared(n, SimplexKind.REGULAR)
        width_reg = math.sqrt(reg_sq)
        row: dict[str, object] = {
            "n": n,
            "parity": "odd" if n % 2 else "even",
            "width_std_sq": format_rational(width_squared(n, SimplexKind.STANDARD)),
            "width_reg_sq": format_rational(reg_sq),
            "width_reg": format_decimal(width_reg),
            "inradius": format_decimal(math.sqrt(inradius_squared(n))),
            "circumradius": format_decimal(math.sqrt(circumradius_squared(n))),
        }
        if include_numeric:
            cfg = OptimizerConfig(
                restarts=restarts,
                seed=derive_seed(seed, n),
                constrain_sum_zero=True,
            )
            result = minimize_width(regular_simplex_vertices(n), cfg)
            row["numeric_width"] = format_decimal(result.width)
            row["abs_error"] = format_decimal(abs(result.width - width_reg))
        yield row


def _json_line(row: dict[str, object]) -> str:
    parts = []
    for key, value in row.items():
        if key == "n":
            rendered = str(value)
        elif key in _DECIMAL_COLUMNS:
            rendered = str(value)
        else:
            rendered = json.dumps(value)
        parts.append(f'"{key}": {rendered}')
    return "{" + ", ".join(parts) + "}"


def cmd_table(args: argparse.Namespace) -> int:
    limit = TABLE_NUMERIC_MAX_N if args.include_numeric else TABLE_MAX_N
    if not 1 <= args.max_n <= limit:
        return _usage_error(
            f"--max-n must be in 1..{limit}"
            + (" when --include-numeric is set" if args.include_numeric else "")
        )
    columns = CSV_COLUMNS + (NUMERIC_COLUMNS if args.include_numeric else ())
    rows = table_rows(args.max_n, args.include_numeric, args.seed, args.restarts)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    else:
        for row in rows:
            print(_json_line(row))
    return 0


def cmd_width(args: argparse.Namespace) -> int:
    kind = SimplexKind(args.kind)
    w_sq = width_squared(args.n, kind)
    if args.exact:
        print(f"width^2 = {format_rational(w_sq)}")
    else:
        print(f"width = {format_decimal(math.sqrt(w_sq))}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= OPTIMIZE_MAX_N:
        return _usage_error(f"--n must be in 1..{OPTIMIZE_MAX_N}")
    cfg = OptimizerConfig(
        restarts=args.restarts,
        tol=args.tol,
        seed=args.seed,
        constrain_sum_zero=True,
    )
    result = minimize_width(standard_simplex_vertices(args.n), cfg)
    in_family = is_optimal_direction(args.n, result.direction)
    print(f"width: {format_decimal(result.width)}")
    print("direction: " + " ".join(format_decimal(c) for c in result.direction.vec.coords))
    print(f"converged: {str(result.converged).lower()}")
    print(f"optimal-family: {str(in_family).lower()}")
    return 0


def _write_family(n: int, out: IO[str]) -> None:
    """Write every member of the optimal family, one per line, in the
    order of `enumerate_optimal_directions`.

    Only the representative is built as a Direction, which checks it for
    unit norm and sum zero. Every other member is a permutation of its
    coordinates, and math.fsum is correctly rounded, so the member's norm
    and sum are bit for bit the representative's: checking them again
    could not fail. The lines are therefore filled in from the two
    formatted coordinate values.
    """
    family = optimal_family(n)
    low_text = format_decimal(family.alpha)
    row = [format_decimal(family.beta)] * (n + 1)
    lines: list[str] = []
    for low in family.low_sets():
        member = row.copy()
        for i in low:
            member[i] = low_text
        lines.append(" ".join(member))
        if len(lines) == LIST_CHUNK_LINES:
            out.write("\n".join(lines) + "\n")
            lines.clear()
    if lines:
        out.write("\n".join(lines) + "\n")


def cmd_directions(args: argparse.Namespace) -> int:
    if args.list:
        _write_family(args.n, sys.stdout)
        return 0
    t = optimal_t(args.n)
    low, high = alpha_beta(args.n, t)
    print(f"n: {args.n}")
    print(f"t: {t}")
    print(f"count: {math.comb(args.n + 1, t)}")
    print(f"alpha: {format_decimal(low)}")
    print(f"beta: {format_decimal(high)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.max_n <= VERIFY_MAX_N:
        return _usage_error(f"--max-n must be in 1..{VERIFY_MAX_N}")
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


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _restarts_type(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_RESTARTS:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_RESTARTS}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexwidth",
        description="Exact widths, radii, and optimal directions of regular simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="closed-form table for n = 1..max-n")
    table.add_argument("--max-n", type=_positive_int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--include-numeric",
        action="store_true",
        help="append the numeric minimizer's width and its absolute error",
    )
    table.add_argument("--restarts", type=_restarts_type, default=64)
    table.add_argument("--seed", type=_seed_type, default=0)
    table.set_defaults(func=cmd_table)

    width = sub.add_parser("width", help="width of a single simplex")
    width.add_argument("--n", type=_positive_int, required=True)
    width.add_argument("--kind", choices=("standard", "regular"), default="standard")
    width.add_argument(
        "--exact", action="store_true", help="print the squared width as p/q"
    )
    width.set_defaults(func=cmd_width)

    optimize = sub.add_parser(
        "optimize", help="numerically minimize the width of the standard simplex"
    )
    optimize.add_argument("--n", type=_positive_int, required=True)
    optimize.add_argument("--restarts", type=_restarts_type, default=64)
    optimize.add_argument("--seed", type=_seed_type, default=0)
    optimize.add_argument("--tol", type=float, default=1e-10)
    optimize.set_defaults(func=cmd_optimize)

    directions = sub.add_parser(
        "directions", help="optimal direction family for one order"
    )
    directions.add_argument("--n", type=_positive_int, required=True)
    directions.add_argument(
        "--list", action="store_true", help="print every member, one per line"
    )
    directions.set_defaults(func=cmd_directions)

    verify = sub.add_parser("verify", help="run the full cross-check battery")
    verify.add_argument("--max-n", type=_positive_int, default=12)
    verify.add_argument("--seed", type=_seed_type, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return args.func(args)
    except (DimensionError, PreconditionError, ValueError) as exc:
        # Bad argument values surface as module validation errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
