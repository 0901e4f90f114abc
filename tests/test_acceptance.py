"""Acceptance battery: one test per contract-level guarantee.

Each test checks its claim at the exact stated tolerance and range and
prints a single pass line (visible with pytest -s or -rA). Timed tests
assert wall-clock budgets that hold with a wide margin on desk hardware.
"""

import contextlib
import csv
import io
import math
import time
from fractions import Fraction

from simplexwidth import cli
from simplexwidth.closed_form import (
    SimplexKind,
    alpha_beta,
    alpha_beta_squared,
    center,
    circumradius_squared,
    indistance_squared,
    inradius_squared,
    width_for_t,
    width_squared,
)
from simplexwidth.directions import enumerate_optimal_directions, is_optimal_direction
from simplexwidth.geometry import (
    Vector,
    distance,
    projection_width,
    standard_simplex_vertices,
)
from simplexwidth.optimizer import (
    OptimizerConfig,
    minimize_width,
    two_value_enumeration_width,
)
from simplexwidth.verification import derive_seed, energy_fuzz

from grid_oracle import family_offsets, grid_width_oracle


def report(num, label):
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_01_exact_width_identity_and_enumeration():
    started = time.perf_counter()
    for n in range(1, 65):
        std = width_squared(n, SimplexKind.STANDARD)
        if n % 2 == 1:
            assert std == Fraction(4, n + 1)
        else:
            assert std == Fraction(4 * (n + 1), n * (n + 2))
        assert two_value_enumeration_width(n) == std
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "exact width identity, n = 1..64, enumeration agrees")


def test_02_regular_rescaling_and_printed_digits():
    for n in range(1, 65):
        assert (
            width_squared(n, SimplexKind.REGULAR) * 2
            == width_squared(n, SimplexKind.STANDARD)
        )
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["table", "--max-n", "3", "--format", "csv"]) == 0
    printed = {
        int(row["n"]): row["width_reg"]
        for row in csv.DictReader(io.StringIO(buffer.getvalue()))
    }
    assert printed[2] == "0.866025403784"  # sqrt(3)/2
    assert printed[3] == "0.707106781187"  # sqrt(2/(n+1)) at n = 3
    report(2, "regular width is half the squared standard width")


def test_03_radii_distances_and_halving():
    for n in range(1, 33):
        c = center(n)
        vertices = list(standard_simplex_vertices(n))
        vertex_sq = float(Fraction(n, n + 1))
        facet_sq = float(indistance_squared(n))
        for j, v in enumerate(vertices):
            assert abs(distance(c, v) ** 2 - vertex_sq) <= 1e-14
            others = [p for k, p in enumerate(vertices) if k != j]
            centroid = Vector(
                tuple(
                    math.fsum(p.coords[i] for p in others) / n
                    for i in range(n + 1)
                )
            )
            assert abs(distance(c, centroid) ** 2 - facet_sq) <= 1e-14
        assert inradius_squared(n) == Fraction(1, 2 * n * (n + 1))
        assert circumradius_squared(n) == Fraction(n, 2 * (n + 1))
    report(3, "center distances match the radii closed forms, n = 1..32")


def test_04_direction_families_achieve_the_width():
    started = time.perf_counter()
    for n in range(1, 12):
        family = enumerate_optimal_directions(n)
        assert len(family) == math.comb(n + 1, (n + 1) // 2)
        vertices = standard_simplex_vertices(n)
        target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
        for d in family:
            assert abs(projection_width(d, vertices) - target) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, "every family member achieves the width, odd n <= 11, even n <= 10")


def test_05_two_value_sanity_identity():
    for n in range(1, 65):
        for t in range(1, n + 1):
            a_sq, b_sq = alpha_beta_squared(n, t)
            assert t * a_sq + (n + 1 - t) * b_sq == 1
            a, b = alpha_beta(n, t)
            assert abs(t * a * a + (n + 1 - t) * b * b - 1.0) <= 1e-14
    report(5, "t*alpha^2 + (n+1-t)*beta^2 = 1, exact and float")


def test_06_energy_monotonicity_fuzz():
    trials, violations = energy_fuzz(10_000, seed=42)
    assert trials == 10_000
    assert violations == 0
    report(6, "10^4 outward moves, energy strictly increased every time")


def test_07_optimizer_rediscovers_the_closed_form():
    started = time.perf_counter()
    for n in range(1, 13):
        cfg = OptimizerConfig(
            restarts=64, seed=derive_seed(0, n), constrain_sum_zero=True
        )
        result = minimize_width(standard_simplex_vertices(n), cfg)
        target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
        assert abs(result.width - target) <= 1e-6 * target
        assert result.width >= target - 1e-9
        assert is_optimal_direction(n, result.direction)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, "subgradient descent within 1e-6 of the closed form, n = 1..12")


def test_08_dense_grid_oracle_and_direction_clustering():
    d2, _ = grid_width_oracle(standard_simplex_vertices(2), 100_000, constrain_sum_zero=True)
    target2 = math.sqrt(width_squared(2, SimplexKind.STANDARD))
    assert abs(d2 - target2) <= 1e-3

    d3, _ = grid_width_oracle(standard_simplex_vertices(3), 2000, constrain_sum_zero=True)
    target3 = math.sqrt(width_squared(3, SimplexKind.STANDARD))
    assert abs(d3 - target3) <= 2e-3

    # every near-optimal grid direction hugs the enumerated family,
    # evidence that odd orders admit no optimal directions outside it
    near, worst = family_offsets(3, 2000, slack=5e-3)
    assert near > 0
    assert worst <= 0.05
    report(8, "dense grids agree with the closed form and cluster on the family")


def test_09_optimal_low_count():
    for n in range(1, 65):
        values = {t: width_for_t(n, t) for t in range(1, n + 1)}
        minimum = min(values.values())
        argmin = {t for t, w in values.items() if w == minimum}
        assert argmin == {(n + 1) // 2, (n + 2) // 2}
    report(9, "width over t is minimized exactly at the balanced split")


def test_10_width_strictly_decreases_in_n():
    previous = None
    for n in range(1, 65):
        current = width_squared(n, SimplexKind.REGULAR)
        if previous is not None:
            assert current < previous
        previous = current
    report(10, "squared regular width strictly decreases, n = 1..64")
