"""Optimal direction families for the simplex width.

The width of the standard n-simplex K is achieved by the unit sum-zero
directions taking two coordinate values alpha < 0 < beta, with
t = (n+1)//2 coordinates at alpha, and their negations, and by no other
direction. For odd n this family is the balanced sign vectors scaled by
1/sqrt(n+1), which holds its own negations. The proof, for every n:

* The width along u is h_K(u) + h_K(-u) = h_{K-K}(u), so the width is
  the least support value of K - K over unit sum-zero u.
* Only the unit facet normals of K - K attain it: any other unit u is
  a positive combination of two or more non-parallel unit facet normals,
  so its support value exceeds the least facet distance of K - K.
* The facets of a simplex's K - K are the bipartitions of its vertices.
  A bipartition with k vertices on one side has a two-valued normal
  with k low coordinates, at squared distance (n+1)/(k(n+1-k)).
* That distance is least exactly at k in {floor((n+1)/2), ceil((n+1)/2)}:
  k = t, and for even n also k = t + 1, the negations of k = t.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .closed_form import alpha_beta, optimal_t
from .geometry import (
    SUM_ZERO_TOL,
    DimensionError,
    Direction,
    PreconditionError,
    check_int,
    check_order,
    check_type,
)

# C(21, 10) ~= 352k directions keeps exhaustive sweeps tractable.
ENUMERATION_CAP = 20

# Per-coordinate tolerance for family membership, after sign alignment.
# Optimizer outputs arrive with roughly 1e-8 noise; the two coordinate
# values are separated by at least the width itself, which is orders of
# magnitude larger.
MEMBERSHIP_TOL = 1e-10


def optimal_low_sets(n: int) -> Iterator[tuple[int, ...]]:
    """The optimal family's low sets, the optimal_t(n)-subsets of {0..n},
    in lexicographic order; raises ValueError above ENUMERATION_CAP when
    called, not when first iterated."""
    t = optimal_t(n)
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive enumeration is capped at n <= {ENUMERATION_CAP}, got {n}"
        )
    return combinations(range(n + 1), t)


def make_two_value_direction(n: int, low_set: Iterable[int]) -> Direction:
    """The unit sum-zero direction with alpha(n, t) on the t distinct
    indices of ``low_set``, 1..n of them, and beta(n, t) on the other n+1-t."""
    check_order(n)
    low = frozenset([check_int(i, "low_set index", 0, n, IndexError) for i in low_set])
    a, b = alpha_beta(n, len(low))
    coords = [a if i in low else b for i in range(n + 1)]
    return Direction(coords, sum_zero=True)


def enumerate_optimal_directions(n: int) -> list[Direction]:
    """All width-achieving directions of the standard n-simplex.

    Odd n: the C(n+1, (n+1)/2) balanced sign vectors scaled by
    1/sqrt(n+1), negations included. Even n: the C(n+1, n/2) two-value
    directions with t = n/2, one per choice of low coordinates; the
    optimal set is these directions and their negations.
    """
    return [make_two_value_direction(n, low) for low in optimal_low_sets(n)]


def is_optimal_direction(n: int, u: Direction) -> bool:
    """Structural membership test against the optimal family.

    True iff u or -u matches, coordinate by coordinate within
    MEMBERSHIP_TOL, a two-value direction with t = optimal_t(n): for
    every n a complete optimality verdict (see the module docstring).
    """
    t = optimal_t(n)
    a, b = alpha_beta(n, t)
    if check_type(u, Direction, "u").dim != n + 1:
        raise DimensionError(f"direction has dimension {u.dim}, expected {n + 1}")
    if abs(u.coordinate_sum()) > SUM_ZERO_TOL:
        raise PreconditionError("direction must be sum-zero")

    for coords in (u.coords, [-c for c in u.coords]):
        low = sum(1 for c in coords if abs(c - a) <= MEMBERSHIP_TOL)
        high = sum(1 for c in coords if abs(c - b) <= MEMBERSHIP_TOL)
        # low + high == n+1 forces every coordinate onto one of the two
        # values; the values are too far apart to double-match.
        if low == t and high == n + 1 - t:
            return True
    return False
