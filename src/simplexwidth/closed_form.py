"""Exact closed-form widths and radii of regular simplices.

Every quantity here is a square: width^2, radius^2, and the squared
two-value coordinates are all rationals, so the public functions return
exact `fractions.Fraction` values; the width and radius ones build them
from (numerator, denominator) pairs, which the CLI `table` reads
directly. The pair helpers do not check n and may return a pair not in
lowest terms. Square roots are taken only at presentation boundaries
(CLI output, float helpers).

Conventions, for the n-simplex with n >= 1:

* standard: convex hull of the n+1 standard basis vectors of R^{n+1},
  edge length sqrt(2);
* regular: the same simplex scaled by 1/sqrt(2), edge length 1.

Width of the standard simplex, squared:

    4/(n+1)              for odd n
    4(n+1)/(n(n+2))      for even n

and the regular simplex gets exactly half of each squared value.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterator

# MAX_ORDER is re-exported: it is the closed forms' order cap, applied by
# check_order.
from .geometry import MAX_ORDER, Vector, check_int, check_order


class SimplexKind(Enum):
    STANDARD = "standard"
    REGULAR = "regular"


def _squared_pairs(ns: range) -> Iterator[tuple[int, ...]]:
    """For each n in ns: n, then the squared widths of the standard and the
    regular simplex and the squared inradius and circumradius of the
    unit-edge simplex, as four (numerator, denominator) pairs flattened
    into one tuple of nine ints."""
    for n in ns:
        num, den = (4, n + 1) if n % 2 else (4 * (n + 1), n * (n + 2))
        yield n, num, den, num, 2 * den, 1, 2 * n * (n + 1), n, 2 * (n + 1)


def _width_squared_pair(n: int, kind: SimplexKind) -> tuple[int, int]:
    _, std_num, std_den, reg_num, reg_den, *_ = next(_squared_pairs(range(n, n + 1)))
    if kind is SimplexKind.STANDARD:
        return std_num, std_den
    if kind is SimplexKind.REGULAR:
        return reg_num, reg_den
    raise TypeError(f"unknown simplex kind: {kind!r}")


def width_squared(n: int, kind: SimplexKind) -> Fraction:
    """Exact squared width of the n-simplex of the given kind."""
    check_order(n)
    return Fraction(*_width_squared_pair(n, kind))


def width(n: int, kind: SimplexKind) -> float:
    """Width as a float; the square root of `width_squared`."""
    check_order(n)
    num, den = _width_squared_pair(n, kind)
    return math.sqrt(num / den)


def center(n: int) -> Vector:
    """Center of the standard simplex: all coordinates 1/(n+1).

    Lies on the hyperplane where the coordinates sum to 1, at equal
    distance from every vertex.
    """
    check_order(n)
    return Vector((1.0 / (n + 1),) * (n + 1))


def circumdistance_squared(n: int) -> Fraction:
    """Squared distance from the standard simplex's center to each vertex: n/(n+1)."""
    check_order(n)
    return Fraction(n, n + 1)


def indistance_squared(n: int) -> Fraction:
    """Squared radius of the largest ball around the center that fits in the
    standard simplex within its carrying hyperplane: 1/(n(n+1)).

    Equals the squared distance from the center to any facet centroid.
    """
    check_order(n)
    return Fraction(1, n * (n + 1))


def inradius_squared(n: int) -> Fraction:
    """Squared inradius of the unit-edge simplex: 1/(2n(n+1))."""
    check_order(n)
    *_, num, den, _, _ = next(_squared_pairs(range(n, n + 1)))
    return Fraction(num, den)


def circumradius_squared(n: int) -> Fraction:
    """Squared circumradius of the unit-edge simplex: n/(2(n+1))."""
    check_order(n)
    *_, num, den = next(_squared_pairs(range(n, n + 1)))
    return Fraction(num, den)


def width_for_t(n: int, t: int) -> Fraction:
    """Squared projection width of the standard simplex along any unit
    sum-zero direction with exactly t equal low coordinates.

    Equals (n+1)/(t(n+1-t)); minimized over t at t = (n+1)//2 (and, for
    even n, equally at t = n/2 + 1 by the t <-> n+1-t symmetry).
    """
    check_order(n)
    check_int(t, "low-coordinate count t", 1, n)
    return Fraction(n + 1, t * (n + 1 - t))


def alpha_beta_squared(n: int, t: int) -> tuple[Fraction, Fraction]:
    """Exact squares of the two coordinate values of a unit sum-zero
    direction with t low coordinates.

    alpha^2 = (n+1-t)/(t(n+1)) and beta^2 = t/((n+1-t)(n+1)). They
    satisfy t*alpha^2 + (n+1-t)*beta^2 = 1 identically.
    """
    check_order(n)
    check_int(t, "low-coordinate count t", 1, n)
    return (
        Fraction(n + 1 - t, t * (n + 1)),
        Fraction(t, (n + 1 - t) * (n + 1)),
    )


def alpha_beta(n: int, t: int) -> tuple[float, float]:
    """The two coordinate values (alpha < 0 < beta) as floats.

    alpha sits on the t low coordinates, beta on the remaining n+1-t,
    making the direction unit and sum-zero. Their gap beta - alpha is
    the projection width sqrt(width_for_t(n, t)).
    """
    a_sq, b_sq = (q.numerator / q.denominator for q in alpha_beta_squared(n, t))
    return -math.sqrt(a_sq), math.sqrt(b_sq)
