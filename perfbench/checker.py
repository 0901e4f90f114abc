"""Independent checks of simplexwidth CLI output.

Every expected value is derived here, in `Fraction` arithmetic, from the
parity formulas of the paper; nothing is imported from the library under
test. Output arrives line by line, so a checker holds only the counters it
needs and never the output itself.

Each checker has `feed(line)` for one line without its newline and
`finish()`, which returns None when the output is accepted and a one-line
reason otherwise. The first problem found is the one reported.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Decimals carry 12 significant digits, so a printed value is within
# 5e-12 relative of the exact one; 1e-11 leaves room for that rounding.
DECIMAL_REL_TOL = 1e-11
OPTIMIZE_REL_TOL = Fraction(1, 10**6)
SUM_ZERO_ABS_TOL = 1e-12
MIN_VERIFY_CHECKS = 6

TABLE_COLUMNS = (
    "n",
    "parity",
    "width_std_sq",
    "width_reg_sq",
    "width_reg",
    "inradius",
    "circumradius",
)


def standard_width_squared(n: int) -> Fraction:
    """Squared width of the standard n-simplex: 4/(n+1) for odd n,
    4(n+1)/(n(n+2)) for even n."""
    if n % 2:
        return Fraction(4, n + 1)
    return Fraction(4 * (n + 1), n * (n + 2))


def two_values_squared(n: int, t: int) -> tuple[Fraction, Fraction]:
    """Squares of the low and high coordinate of a unit sum-zero vector
    in R^(n+1) with t equal low and n+1-t equal high coordinates."""
    return Fraction(n + 1 - t, t * (n + 1)), Fraction(t, (n + 1 - t) * (n + 1))


def _rational_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _close_to_root(value: float, square: Fraction, rel_tol: float) -> bool:
    """True when ``value`` is within ``rel_tol`` relative of sqrt(square)."""
    target = math.sqrt(square)
    return abs(value - target) <= rel_tol * target


def _half_print_ulp(value: float) -> float:
    """Half a unit in the 12th significant digit of ``value``: the most
    that printing it with 12 significant digits can move it."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


class Checker:
    """Base class: counts lines and keeps the first error."""

    def __init__(self) -> None:
        self.lines = 0
        self.error: str | None = None

    def feed(self, line: str) -> None:
        self.lines += 1
        if self.error is None:
            problem = self.check_line(line)
            if problem:
                self.error = f"line {self.lines}: {problem}"

    def check_line(self, line: str) -> str | None:
        raise NotImplementedError

    def check_end(self) -> str | None:
        return None

    def finish(self) -> str | None:
        if self.error is None:
            self.error = self.check_end()
        return self.error


class TableChecker(Checker):
    """`table --max-n N` in CSV or JSON-lines form: one row per n, with
    the exact squared widths and 12-digit radii of the unit-edge simplex."""

    def __init__(self, max_n: int, fmt: str = "csv") -> None:
        super().__init__()
        self.max_n = max_n
        self.fmt = fmt
        self.rows = 0

    def _parse(self, line: str) -> dict[str, object] | str:
        if self.fmt == "csv":
            if self.lines == 1:
                return {} if line == ",".join(TABLE_COLUMNS) else "bad CSV header"
            fields = line.split(",")
            if len(fields) != len(TABLE_COLUMNS):
                return f"expected {len(TABLE_COLUMNS)} fields, got {len(fields)}"
            return dict(zip(TABLE_COLUMNS, fields))
        try:
            row = json.loads(line)
        except ValueError:
            return "not a JSON object"
        if not isinstance(row, dict) or tuple(row) != TABLE_COLUMNS:
            return "JSON keys differ from the table columns"
        return row

    def check_line(self, line: str) -> str | None:
        row = self._parse(line)
        if isinstance(row, str):
            return row
        if not row:
            return None
        self.rows += 1
        n = self.rows
        if str(row["n"]) != str(n):
            return f"expected n={n}, got {row['n']!r}"
        if row["parity"] != ("odd" if n % 2 else "even"):
            return f"wrong parity at n={n}"
        std = standard_width_squared(n)
        if row["width_std_sq"] != _rational_text(std):
            return f"width_std_sq {row['width_std_sq']!r} != {_rational_text(std)} at n={n}"
        if row["width_reg_sq"] != _rational_text(std / 2):
            return f"width_reg_sq {row['width_reg_sq']!r} != {_rational_text(std / 2)} at n={n}"
        decimals = {
            "width_reg": std / 2,
            "inradius": Fraction(1, 2 * n * (n + 1)),
            "circumradius": Fraction(n, 2 * (n + 1)),
        }
        for column, square in decimals.items():
            try:
                value = float(row[column])
            except (TypeError, ValueError):
                return f"{column} is not a number at n={n}"
            if not _close_to_root(value, square, DECIMAL_REL_TOL):
                return f"{column} {row[column]!r} is off at n={n}"
        return None

    def check_end(self) -> str | None:
        if self.rows != self.max_n:
            return f"expected {self.max_n} rows, got {self.rows}"
        return None


class DirectionsListChecker(Checker):
    """`directions --n N --list`: C(n+1, t) distinct lines with t = (n+1)//2,
    each a unit sum-zero vector taking exactly two values."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.t = (n + 1) // 2
        self.expected_lines = math.comb(n + 1, self.t)
        self.low_sq, self.high_sq = two_values_squared(n, self.t)
        self.patterns: set[int] = set()

    def check_line(self, line: str) -> str | None:
        tokens = line.split(" ")
        if len(tokens) != self.n + 1:
            return f"expected {self.n + 1} coordinates, got {len(tokens)}"
        distinct = set(tokens)
        if len(distinct) != 2:
            return f"expected two distinct values, got {len(distinct)}"
        try:
            coords = [float(tok) for tok in tokens]
        except ValueError:
            return "non-numeric coordinate"
        low, high = sorted(float(tok) for tok in distinct)
        if not (low < 0 < high):
            return "values do not straddle zero"
        if not _close_to_root(-low, self.low_sq, DECIMAL_REL_TOL) or not _close_to_root(
            high, self.high_sq, DECIMAL_REL_TOL
        ):
            return "values differ from the two-value coordinates"
        pattern = 0
        for c in coords:
            pattern = (pattern << 1) | (c < 0)
        if bin(pattern).count("1") != self.t:
            return f"expected {self.t} low coordinates"
        # The exact coordinates sum to zero; the printed ones may miss by
        # the rounding of each to 12 significant digits.
        slack = self.t * _half_print_ulp(low) + (self.n + 1 - self.t) * _half_print_ulp(high)
        if abs(math.fsum(coords)) > SUM_ZERO_ABS_TOL + slack:
            return "coordinates do not sum to zero"
        if pattern in self.patterns:
            return "repeated direction"
        self.patterns.add(pattern)
        return None

    def check_end(self) -> str | None:
        if self.lines != self.expected_lines:
            return f"expected {self.expected_lines} lines, got {self.lines}"
        return None


class OptimizeChecker(Checker):
    """`optimize --n N`: the printed width is within 1e-6 relative of the
    closed form, the printed direction achieves it, and the direction is
    reported as a member of the optimal family."""

    PREFIXES = ("width: ", "direction: ", "converged: ", "optimal-family: ")

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.width: Fraction | None = None

    def check_line(self, line: str) -> str | None:
        if self.lines > len(self.PREFIXES):
            return "unexpected extra line"
        prefix = self.PREFIXES[self.lines - 1]
        if not line.startswith(prefix):
            return f"expected a line starting {prefix!r}"
        value = line[len(prefix) :]
        if prefix == "width: ":
            try:
                self.width = Fraction(value)
            except ValueError:
                return "width is not a number"
            target = standard_width_squared(self.n)
            lo, hi = (1 - OPTIMIZE_REL_TOL) ** 2, (1 + OPTIMIZE_REL_TOL) ** 2
            if not lo * target <= self.width**2 <= hi * target:
                return f"width {value} is not within 1e-6 of the closed form"
        elif prefix == "direction: ":
            try:
                coords = [float(tok) for tok in value.split(" ")]
            except ValueError:
                return "non-numeric direction coordinate"
            if len(coords) != self.n + 1:
                return f"direction has {len(coords)} coordinates, expected {self.n + 1}"
            if abs(math.fsum(coords)) > 1e-9 or abs(math.fsum(c * c for c in coords) - 1) > 1e-9:
                return "direction is not a unit sum-zero vector"
            # Along u the standard simplex projects onto its coordinates.
            if self.width is None or abs(max(coords) - min(coords) - float(self.width)) > 1e-9:
                return "direction does not achieve the printed width"
        elif prefix == "converged: ":
            if value not in ("true", "false"):
                return "converged is not a boolean"
        elif value != "true":
            return "direction is outside the optimal family"
        return None

    def check_end(self) -> str | None:
        if self.lines != len(self.PREFIXES):
            return f"expected {len(self.PREFIXES)} lines, got {self.lines}"
        return None


class VerifyChecker(Checker):
    """`verify`: every check line reads PASS and the run ends with
    `all K checks passed`, K the number of PASS lines and at least six."""

    def __init__(self) -> None:
        super().__init__()
        self.passed = 0
        self.last = ""

    def check_line(self, line: str) -> str | None:
        if self.last:
            return "output continues after the summary line"
        if line.startswith("PASS "):
            self.passed += 1
            return None
        if line.startswith("all "):
            self.last = line
            return None
        return f"not a passing check: {line[:80]!r}"

    def check_end(self) -> str | None:
        if self.passed < MIN_VERIFY_CHECKS:
            return f"only {self.passed} checks passed, expected at least {MIN_VERIFY_CHECKS}"
        if self.last != f"all {self.passed} checks passed":
            return f"run does not end with 'all {self.passed} checks passed'"
        return None


def checker_for(argv: list[str]) -> Checker:
    """The checker for one CLI command line, as the benchmark issues them."""
    command = argv[0]

    def option(name: str, default: str | None = None) -> str:
        if name in argv:
            return argv[argv.index(name) + 1]
        if default is None:
            raise ValueError(f"{command} needs {name}")
        return default

    if command == "table":
        return TableChecker(int(option("--max-n")), option("--format", "csv"))
    if command == "directions" and "--list" in argv:
        return DirectionsListChecker(int(option("--n")))
    if command == "optimize":
        return OptimizeChecker(int(option("--n")))
    if command == "verify":
        return VerifyChecker()
    raise ValueError(f"no checker for {' '.join(argv)!r}")
