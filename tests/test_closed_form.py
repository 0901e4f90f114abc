"""Exact rational formulas: widths, radii, two-value coordinates."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from simplexwidth.cli import TABLE_MAX_N
from simplexwidth.closed_form import (
    SimplexKind,
    _halved,
    _squared_pairs,
    alpha_beta,
    alpha_beta_squared,
    center,
    circumdistance_squared,
    circumradius_squared,
    indistance_squared,
    inradius_squared,
    width,
    width_for_t,
    width_squared,
)
from simplexwidth.geometry import (
    MAX_ORDER,
    DimensionError,
    distance,
    standard_simplex_vertices,
)

orders = st.integers(min_value=1, max_value=500)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, Fraction(2)),
        (2, Fraction(3, 2)),
        (3, Fraction(1)),
        (4, Fraction(5, 6)),
        (5, Fraction(2, 3)),
    ],
)
def test_standard_width_squared_spot_values(n, expected):
    assert width_squared(n, SimplexKind.STANDARD) == expected


@given(orders)
def test_width_squared_parity_formula(n):
    std = width_squared(n, SimplexKind.STANDARD)
    if n % 2 == 1:
        assert std == Fraction(4, n + 1)
    else:
        assert std == Fraction(4 * (n + 1), n * (n + 2))
    assert width_squared(n, SimplexKind.REGULAR) * 2 == std


@given(orders)
def test_width_float_is_sqrt_of_exact(n):
    for kind in SimplexKind:
        assert width(n, kind) == math.sqrt(width_squared(n, kind))


def test_unit_segment_width():
    # n = 1 regular simplex is a unit segment
    assert width_squared(1, SimplexKind.REGULAR) == 1
    assert width(1, SimplexKind.REGULAR) == 1.0


@given(orders)
def test_radii_formulas(n):
    assert circumdistance_squared(n) == Fraction(n, n + 1)
    assert indistance_squared(n) == Fraction(1, n * (n + 1))
    assert inradius_squared(n) * 2 == indistance_squared(n)
    assert circumradius_squared(n) * 2 == circumdistance_squared(n)
    # the width can never escape the inball/circumball sandwich
    w = width_squared(n, SimplexKind.STANDARD)
    assert indistance_squared(n) <= w / 4 <= circumdistance_squared(n)


def test_center_is_equidistant_from_vertices():
    for n in range(1, 9):
        c = center(n)
        assert abs(c.coordinate_sum() - 1.0) <= 1e-12
        r_sq = float(circumdistance_squared(n))
        for v in standard_simplex_vertices(n):
            assert abs(distance(c, v) ** 2 - r_sq) <= 1e-14


@given(st.integers(min_value=1, max_value=200), st.data())
def test_width_for_t_symmetry_and_argmin(n, data):
    t = data.draw(st.integers(min_value=1, max_value=n))
    w = width_for_t(n, t)
    assert w == Fraction(n + 1, t * (n + 1 - t))
    assert w == width_for_t(n, n + 1 - t)
    assert w >= width_for_t(n, (n + 1) // 2)


@given(st.integers(min_value=1, max_value=200), st.data())
def test_alpha_beta_identities(n, data):
    t = data.draw(st.integers(min_value=1, max_value=n))
    a_sq, b_sq = alpha_beta_squared(n, t)
    assert t * a_sq + (n + 1 - t) * b_sq == 1
    # sum-zero in exact form: t*alpha = -(n+1-t)*beta
    assert t * t * a_sq == (n + 1 - t) * (n + 1 - t) * b_sq
    a, b = alpha_beta(n, t)
    assert a < 0 < b
    assert abs(t * a + (n + 1 - t) * b) <= 1e-14
    assert abs((b - a) - math.sqrt(width_for_t(n, t))) <= 1e-14
    assert (a, b) == (-math.sqrt(a_sq), math.sqrt(b_sq))


def test_order_and_low_count_validation():
    for bad in (0, -3, True, 2.0):
        with pytest.raises(DimensionError):
            width_squared(bad, SimplexKind.STANDARD)
    with pytest.raises(DimensionError):
        width_squared(MAX_ORDER + 1, SimplexKind.STANDARD)
    with pytest.raises(ValueError):
        width_for_t(3, 0)
    with pytest.raises(ValueError):
        width_for_t(3, 4)
    with pytest.raises(ValueError):
        alpha_beta_squared(5, 6)


@pytest.mark.parametrize("n", [MAX_ORDER - 1, MAX_ORDER])
def test_regular_is_half_standard_at_the_order_cap(n):
    reg = width_squared(n, SimplexKind.REGULAR)
    assert reg * 2 == width_squared(n, SimplexKind.STANDARD)
    assert math.gcd(reg.numerator, reg.denominator) == 1


def test_results_are_fractions_in_lowest_terms():
    w = width_squared(6, SimplexKind.STANDARD)
    assert isinstance(w, Fraction)
    assert w == Fraction(7, 12)
    assert math.gcd(w.numerator, w.denominator) == 1


def _assert_pair_is(pair, exact):
    # in lowest terms, as the table writes it
    assert pair == (exact.numerator, exact.denominator)
    num, den = pair
    # int/int division is correctly rounded
    assert math.sqrt(num / den) == math.sqrt(exact)


@given(st.integers(min_value=1, max_value=MAX_ORDER))
@example(1)
@example(2)
@example(TABLE_MAX_N)
@example(MAX_ORDER)
def test_integer_pairs_are_the_public_fractions(n):
    width_pair, in_pair, circ_pair = _squared_pairs(n)
    _assert_pair_is(width_pair, width_squared(n, SimplexKind.STANDARD))
    _assert_pair_is(_halved(*width_pair), width_squared(n, SimplexKind.REGULAR))
    for kind in SimplexKind:
        assert width(n, kind) == math.sqrt(width_squared(n, kind))
    _assert_pair_is(in_pair, indistance_squared(n))
    _assert_pair_is(circ_pair, circumdistance_squared(n))
    _assert_pair_is(_halved(*in_pair), inradius_squared(n))
    _assert_pair_is(_halved(*circ_pair), circumradius_squared(n))
