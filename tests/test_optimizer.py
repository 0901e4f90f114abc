"""Subgradient minimizer, dense grid oracle, and exact enumeration."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from simplexwidth.closed_form import SimplexKind, width_squared
from simplexwidth.directions import is_optimal_direction
from simplexwidth.geometry import (
    DimensionError,
    Direction,
    PointSet,
    Vector,
    projection_width,
    regular_simplex_vertices,
    standard_simplex_vertices,
)
from simplexwidth.optimizer import (
    SNAP_EVERY,
    OptimizerConfig,
    grid_directions,
    grid_width_oracle,
    minimize_width,
    two_value_enumeration_width,
)
from simplexwidth.optimizer import (
    _batch_widths,
    _identity_scale,
    _points_matrix,
    _restart_inits,
    _snap,
)


def unit_square():
    return PointSet(
        tuple(Vector(c) for c in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    )


def test_batch_widths_match_projection_width():
    # the vectorized objective must agree with the scalar definition
    points = standard_simplex_vertices(4)
    pts = _points_matrix(points)
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((100, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    batched = _batch_widths(dirs, pts)
    for row, w in zip(dirs, batched):
        expected = projection_width(Direction(Vector(tuple(row))), points)
        assert abs(w - expected) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(step_init=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=2**64)


def test_minimize_width_is_deterministic():
    cfg = OptimizerConfig(restarts=8, max_iters=500, seed=123, constrain_sum_zero=True)
    points = standard_simplex_vertices(3)
    a = minimize_width(points, cfg)
    b = minimize_width(points, cfg)
    assert a.width == b.width
    assert a.direction.coords == b.direction.coords
    # too few iterations for the stall rule, which stops at 600 at the earliest
    assert a.iterations == 500


def test_minimize_width_single_point_is_zero():
    cfg = OptimizerConfig(restarts=4, max_iters=50, seed=0)
    result = minimize_width(PointSet((Vector((3.0, 4.0)),)), cfg)
    assert result.width == 0.0


def test_minimize_width_unit_square():
    cfg = OptimizerConfig(restarts=16, seed=5)
    result = minimize_width(unit_square(), cfg)
    assert abs(result.width - 1.0) <= 1e-6


def test_sum_zero_constraint_changes_the_answer():
    # the simplex lives on an affine hyperplane; unconstrained search
    # finds its normal and a width of zero
    points = standard_simplex_vertices(3)
    free = minimize_width(points, OptimizerConfig(restarts=8, seed=2))
    assert free.width <= 1e-3
    constrained = minimize_width(
        points, OptimizerConfig(restarts=8, seed=2, constrain_sum_zero=True)
    )
    assert abs(constrained.width - 1.0) <= 1e-9


def test_sum_zero_needs_two_dimensions():
    with pytest.raises(DimensionError):
        minimize_width(
            PointSet((Vector((1.0,)),)),
            OptimizerConfig(restarts=2, constrain_sum_zero=True),
        )


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_minimizer_lands_in_optimal_family(n):
    points = standard_simplex_vertices(n)
    cfg = OptimizerConfig(restarts=32, seed=17, constrain_sum_zero=True)
    result = minimize_width(points, cfg)
    target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
    assert abs(result.width - target) <= 1e-9 * max(1.0, target)
    assert is_optimal_direction(n, result.direction)
    # the reported width must be the projection width of the reported direction
    recomputed = projection_width(result.direction, points)
    assert abs(result.width - recomputed) <= 1e-12 * max(1.0, recomputed)


def test_grid_requires_coarse_limits():
    with pytest.raises(ValueError):
        grid_width_oracle(unit_square(), 7)
    five_d = PointSet((Vector((1.0, 0.0, 0.0, 0.0, 0.0)),))
    with pytest.raises(ValueError):
        grid_width_oracle(five_d, 100)
    with pytest.raises(DimensionError):
        grid_width_oracle(PointSet((Vector((1.0,)),)), 100, constrain_sum_zero=True)


def test_grid_dimension_one_is_the_antipodes():
    points = PointSet((Vector((1.0,)), Vector((4.0,))))
    result = grid_width_oracle(points, 8)
    assert result.width == 3.0
    assert result.iterations == 2


def test_grid_circle_counts_and_square_width():
    result = grid_width_oracle(unit_square(), 10_000)
    assert result.iterations == 10_000
    assert abs(result.width - 1.0) <= 1e-3


def test_grid_chunking_is_seamless():
    chunks = list(grid_directions(2, 1000, chunk_rows=128))
    assert sum(len(c) for c in chunks) == 1000
    stacked = np.vstack(chunks)
    whole = np.vstack(list(grid_directions(2, 1000)))
    assert np.array_equal(stacked, whole)


def test_grid_directions_are_unit():
    for chunk in grid_directions(4, 64, constrain_sum_zero=True):
        norms = np.linalg.norm(chunk, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.max(np.abs(chunk.sum(axis=1))) <= 1e-12


def test_grid_matches_closed_form_on_triangle():
    points = standard_simplex_vertices(2)
    result = grid_width_oracle(points, 10_000, constrain_sum_zero=True)
    target = math.sqrt(width_squared(2, SimplexKind.STANDARD))
    assert -1e-12 <= result.width - target <= 1e-3


def test_enumeration_is_exact():
    for n in range(1, 33):
        result = two_value_enumeration_width(n)
        assert result.width_squared_exact == width_squared(n, SimplexKind.STANDARD)
        assert result.width == math.sqrt(result.width_squared_exact)
        assert isinstance(result.width_squared_exact, Fraction)
        assert is_optimal_direction(n, result.direction)


def test_enumeration_validates_order():
    with pytest.raises(DimensionError):
        two_value_enumeration_width(0)
    with pytest.raises(DimensionError):
        two_value_enumeration_width(True)


def _reference_snap(u, constrain_sum_zero):
    """The textbook two-value snap of one direction: clamp coordinates
    to its own extremes by sign, re-center if constrained, renormalize;
    None when the result is (nearly) zero."""
    lo, hi = u.min(), u.max()
    snapped = np.where(u < 0, lo, hi)
    if constrain_sum_zero:
        snapped = snapped - snapped.mean()
    norm = np.linalg.norm(snapped)
    if norm < 1e-12:
        return None
    return snapped / norm


def _reference_snap_rows(best_u, best_w, pts, constrain_sum_zero):
    """Snap the rows of ``best_u`` one at a time, in place, keeping a
    snap only when it does not increase the width in ``best_w``."""
    for j in range(len(best_u)):
        snapped = _reference_snap(best_u[j], constrain_sum_zero)
        if snapped is None:
            continue
        projections = pts @ snapped
        w = float(projections.max() - projections.min())
        if w <= best_w[j]:
            best_u[j] = snapped
            best_w[j] = w


def _reference_minimize_width(points, cfg):
    """The textbook form of the subgradient loop (np.mean, np.linalg.norm,
    a matrix product for the projections, max/min for the widths), kept
    as the oracle for bit-for-bit equality. Returns (width, coords,
    converged, iterations)."""
    pts = _points_matrix(points)
    r = cfg.restarts
    inits = _restart_inits(cfg, points.dim)
    U = inits.copy()
    dots = U @ pts.T
    widths = dots.max(axis=1) - dots.min(axis=1)
    best_w = widths.copy()
    best_u = U.copy()
    last_gain = np.zeros(r)
    for k in range(1, cfg.max_iters + 1):
        hi = np.argmax(dots, axis=1)
        lo = np.argmin(dots, axis=1)
        g = pts[hi] - pts[lo]
        if cfg.constrain_sum_zero:
            g = g - g.mean(axis=1, keepdims=True)
        g = g - np.sum(g * U, axis=1, keepdims=True) * U
        U = U - (cfg.step_init / math.sqrt(k)) * g
        if cfg.constrain_sum_zero:
            U = U - U.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(U, axis=1, keepdims=True)
        degenerate = norms[:, 0] < 1e-12
        if degenerate.any():
            U[degenerate] = inits[degenerate]
            norms[degenerate] = 1.0
        U = U / norms
        dots = U @ pts.T
        widths = dots.max(axis=1) - dots.min(axis=1)
        improved = widths < best_w
        last_gain = np.where(improved, best_w - widths, 0.0)
        best_u[improved] = U[improved]
        best_w = np.where(improved, widths, best_w)
    _reference_snap_rows(best_u, best_w, pts, cfg.constrain_sum_zero)
    winner = int(np.argmin(best_w))
    coords = Vector(tuple(best_u[winner])).coords
    converged = bool(last_gain[winner] < cfg.tol)
    return float(best_w[winner]), coords, converged, cfg.max_iters


def _random_points(seed, dim, count):
    rng = np.random.default_rng(seed)
    return PointSet(tuple(Vector(tuple(row)) for row in rng.standard_normal((count, dim))))


EQUIVALENCE_CASES = [
    *[(f"standard-{n}", standard_simplex_vertices(n), True) for n in (1, 2, 5, 12, 60)],
    ("standard-5-free", standard_simplex_vertices(5), False),
    *[(f"regular-{n}", regular_simplex_vertices(n), True) for n in (3, 4)],
    ("unit-square", unit_square(), False),
    ("random-2d", _random_points(21, 2, 7), False),
    ("random-3d", _random_points(22, 3, 9), False),
    ("random-3d-sum-zero", _random_points(23, 3, 6), True),
    ("random-5d", _random_points(24, 5, 11), False),
    ("origin", PointSet((Vector((0.0, 0.0, 0.0)),)), False),
]


@pytest.mark.parametrize(
    "points,sum_zero",
    [case[1:] for case in EQUIVALENCE_CASES],
    ids=[case[0] for case in EQUIVALENCE_CASES],
)
def test_minimize_width_is_bitwise_equal_to_the_reference_loop(points, sum_zero):
    cfg = OptimizerConfig(max_iters=300, seed=41, constrain_sum_zero=sum_zero)
    result = minimize_width(points, cfg)
    width, coords, converged, iterations = _reference_minimize_width(points, cfg)
    assert result.width == width
    assert result.direction.coords == coords
    assert result.converged == converged
    assert result.iterations == iterations


@pytest.mark.parametrize(
    "points,sum_zero",
    [case[1:] for case in EQUIVALENCE_CASES],
    ids=[case[0] for case in EQUIVALENCE_CASES],
)
def test_early_stop_is_the_reference_loop_cut_short(points, sum_zero):
    # a c*I run that stops after k iterations returns exactly what the
    # textbook loop returns with max_iters=k; other point sets never stop
    cfg = OptimizerConfig(seed=41, constrain_sum_zero=sum_zero)
    result = minimize_width(points, cfg)
    if not _identity_scale(_points_matrix(points)):
        assert result.iterations == cfg.max_iters
        return
    assert result.iterations < cfg.max_iters
    assert result.iterations % SNAP_EVERY == 0
    cut = dataclasses.replace(cfg, max_iters=result.iterations)
    width, coords, converged, iterations = _reference_minimize_width(points, cut)
    assert result.width == width
    assert result.direction.coords == coords
    assert result.converged == converged
    assert result.iterations == iterations


@pytest.mark.parametrize("n", [5, 7, 12])
@pytest.mark.parametrize("restarts", [1, 4])
def test_early_stop_keeps_the_full_run_width(n, restarts):
    points = standard_simplex_vertices(n)
    for seed in range(3):
        cfg = OptimizerConfig(restarts=restarts, seed=seed, constrain_sum_zero=True)
        result = minimize_width(points, cfg)
        assert result.iterations < cfg.max_iters
        width, coords, _, _ = _reference_minimize_width(points, cfg)
        assert abs(result.width - width) <= 1e-12 * width
        assert is_optimal_direction(n, result.direction) == is_optimal_direction(
            n, Direction(Vector(coords), sum_zero=True)
        )


@pytest.mark.parametrize("sum_zero", [True, False])
@pytest.mark.parametrize(
    "scale", [1.0, 1.0 / math.sqrt(2.0), 0.0], ids=["c=1", "c=1/sqrt2", "general"]
)
def test_snap_is_bitwise_the_per_row_snap(scale, sum_zero):
    # scale 0.0 stands for a general vertex matrix
    rng = np.random.default_rng(5)
    kept = {"no snap": 0, "wider": 0}
    for trial in range(300):
        r, dim = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        u = rng.standard_normal((r, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if trial % 5 == 0:
            u[0] = np.abs(u[0])  # one sign only: no snap under sum zero
        if trial % 7 == 0:
            u[-1] = 0.0  # no snap at all
        best_w = rng.uniform(0.0, 3.0, r)
        if trial % 3 == 0:
            best_w[0] = 0.0  # any nonzero snapped width is wider
        if scale:
            pts = np.diag(np.full(dim, scale))
        else:
            pts = rng.standard_normal((int(rng.integers(1, 9)), dim))
        u_in, w_in = u.copy(), best_w.copy()
        got_u, got_w = _snap(u, best_w, pts, scale, sum_zero)
        assert u.tobytes() == u_in.tobytes() and best_w.tobytes() == w_in.tobytes()
        expected_u, expected_w = u.copy(), best_w.copy()
        _reference_snap_rows(expected_u, expected_w, pts, sum_zero)
        assert got_u.tobytes() == expected_u.tobytes()
        assert got_w.tobytes() == expected_w.tobytes()
        # a row without a snap, or whose snap is wider, comes back unchanged
        for j in range(r):
            snapped = _reference_snap(u[j], sum_zero)
            if snapped is None:
                kept["no snap"] += 1
            elif np.ptp(pts @ snapped) > best_w[j]:
                kept["wider"] += 1
            else:
                continue
            assert got_u[j].tobytes() == u[j].tobytes()
            assert got_w[j] == best_w[j]
    assert min(kept.values()) > 0


def test_identity_scale_detects_only_scaled_identities():
    assert _identity_scale(_points_matrix(standard_simplex_vertices(4))) == 1.0
    assert _identity_scale(_points_matrix(regular_simplex_vertices(4))) == 1.0 / math.sqrt(2.0)
    assert _identity_scale(np.zeros((1, 1))) == 0.0
    assert _identity_scale(_points_matrix(unit_square())) == 0.0
    assert _identity_scale(np.array([[1.0, -0.0], [0.0, 1.0]])) == 0.0
    assert _identity_scale(np.array([[2.0, 0.0], [0.0, 1.0]])) == 0.0
    assert _identity_scale(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0


def _exact_planar_width(pts):
    """Minimum over point pairs of the spread of all points along the
    normal of the line through the pair; one such line is a hull edge."""
    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j] - pts[i]
            length = math.hypot(dx, dy)
            if length == 0.0:
                continue
            proj = (pts @ np.array([-dy, dx])) / length
            best = min(best, float(proj.max() - proj.min()))
    return best


@pytest.mark.parametrize("seed", range(8))
def test_minimize_width_matches_exact_planar_width(seed):
    rng = np.random.default_rng(1000 + seed)
    pts = rng.standard_normal((int(rng.integers(4, 13)), 2))
    points = PointSet(tuple(Vector(tuple(row)) for row in pts))
    exact = _exact_planar_width(pts)
    result = minimize_width(points, OptimizerConfig(restarts=16, seed=seed))
    assert abs(result.width - exact) <= 1e-5 * exact
