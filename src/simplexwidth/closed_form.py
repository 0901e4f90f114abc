"""Exact closed-form widths and radii of regular simplices.

Every quantity here is a square: width^2, radius^2, and the squared
two-value coordinates are all rationals, so the public functions return
exact `fractions.Fraction` values; the width and radius ones build them
from (numerator, denominator) pairs of ints in lowest terms, which the
CLI `table` reads directly. Square roots are taken only at presentation
boundaries (CLI output, float helpers).

Conventions, for the n-simplex with n >= 1:

* standard: convex hull of the n+1 standard basis vectors of R^{n+1},
  edge length sqrt(2);
* regular: the same simplex scaled by 1/sqrt(2), edge length 1.

Along a unit sum-zero direction with t equal low coordinates the
standard simplex has squared width (n+1)/(t(n+1-t)), least at
t = optimal_t(n); that least value is the squared width. The regular
simplex halves every squared length of the standard one.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .geometry import Vector, check_int, check_order, check_type


class SimplexKind(Enum):
    STANDARD = "standard"
    REGULAR = "regular"


def optimal_t(n: int) -> int:
    """Low-coordinate count minimizing the two-value width: (n+1)//2."""
    check_order(n)
    return _optimal_t(n)


def _optimal_t(n: int) -> int:
    return (n + 1) // 2


def _width_for_t_pair(n: int, t: int) -> tuple[int, int]:
    """`width_for_t` as a pair in lowest terms; n and t are not checked."""
    num, den = n + 1, t * (n + 1 - t)
    g = math.gcd(num, den)
    return num // g, den // g


def _squared_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The squared width, indistance and circumdistance of the standard
    n-simplex, as (numerator, denominator) pairs in lowest terms; n is not
    checked."""
    return _width_for_t_pair(n, _optimal_t(n)), (1, n * (n + 1)), (n, n + 1)


def _halved(num: int, den: int) -> tuple[int, int]:
    """A squared length num/den of the standard simplex, in lowest terms,
    at the scale of the regular simplex: num/(2 den), in lowest terms."""
    return (num // 2, den) if num % 2 == 0 else (num, 2 * den)


def width_squared(n: int, kind: SimplexKind) -> Fraction:
    """Exact squared width of the n-simplex of the given kind."""
    check_order(n)
    pair = _squared_pairs(n)[0]
    if check_type(kind, SimplexKind, "kind") is SimplexKind.STANDARD:
        return Fraction(*pair)
    return Fraction(*_halved(*pair))


def width(n: int, kind: SimplexKind) -> float:
    """Width as a float; the square root of `width_squared`."""
    return math.sqrt(width_squared(n, kind))


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
    return Fraction(*_squared_pairs(n)[2])


def indistance_squared(n: int) -> Fraction:
    """Squared radius of the largest ball around the center that fits in the
    standard simplex within its carrying hyperplane: 1/(n(n+1)).

    Equals the squared distance from the center to any facet centroid.
    """
    check_order(n)
    return Fraction(*_squared_pairs(n)[1])


def inradius_squared(n: int) -> Fraction:
    """Squared inradius of the unit-edge simplex: 1/(2n(n+1))."""
    check_order(n)
    return Fraction(*_halved(*_squared_pairs(n)[1]))


def circumradius_squared(n: int) -> Fraction:
    """Squared circumradius of the unit-edge simplex: n/(2(n+1))."""
    check_order(n)
    return Fraction(*_halved(*_squared_pairs(n)[2]))


def width_for_t(n: int, t: int) -> Fraction:
    """Squared projection width of the standard simplex along any unit
    sum-zero direction with exactly t equal low coordinates.

    Minimized over t at t = optimal_t(n) (and, for even n, equally at
    t = n/2 + 1 by the t <-> n+1-t symmetry).
    """
    check_order(n)
    check_int(t, "low-coordinate count t", 1, n)
    return Fraction(*_width_for_t_pair(n, t))


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
