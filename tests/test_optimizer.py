"""Subgradient minimizer, dense grid oracle, and exact enumeration."""

import copy
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    STEP_INIT,
    OptimizerConfig,
    minimize_width,
    two_value_enumeration_width,
)
from simplexwidth.optimizer import (
    _points_matrix,
    _restart_inits,
    _snap,
)

import grid_oracle
from grid_oracle import batch_widths, grid_directions, grid_width_oracle


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
    batched = batch_widths(dirs, pts)
    for row, w in zip(dirs, batched):
        expected = projection_width(Direction(row), points)
        assert abs(w - expected) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=2**64)
    # the integer fields follow check_order's rule: an int, not a bool;
    # the flag must be a bool
    for field, value in [
        ("restarts", 2.5),
        ("restarts", True),
        ("max_iters", 10.5),
        ("max_iters", True),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "1"),
        ("constrain_sum_zero", 1),
        ("constrain_sum_zero", "no"),
        ("constrain_sum_zero", None),
    ]:
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})


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


def test_grid_dimension_one_is_the_antipodes():
    points = PointSet((Vector((1.0,)), Vector((4.0,))))
    assert grid_width_oracle(points, 8) == (3.0, 2)


def test_grid_circle_counts_and_square_width():
    width, evaluated = grid_width_oracle(unit_square(), 10_000)
    assert evaluated == 10_000
    assert abs(width - 1.0) <= 1e-3


def test_grid_chunking_is_seamless(monkeypatch):
    monkeypatch.setattr(grid_oracle, "GRID_CHUNK_ROWS", 128)
    chunks = list(grid_directions(2, 1000))
    assert len(chunks) == 8 and sum(len(c) for c in chunks) == 1000
    stacked = np.vstack(chunks)
    monkeypatch.undo()
    whole = np.vstack(list(grid_directions(2, 1000)))
    assert np.array_equal(stacked, whole)


def test_grid_directions_are_unit():
    for chunk in grid_directions(4, 64, constrain_sum_zero=True):
        norms = np.linalg.norm(chunk, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.max(np.abs(chunk.sum(axis=1))) <= 1e-12


def test_grid_matches_closed_form_on_triangle():
    points = standard_simplex_vertices(2)
    width, _ = grid_width_oracle(points, 10_000, constrain_sum_zero=True)
    target = math.sqrt(width_squared(2, SimplexKind.STANDARD))
    assert -1e-12 <= width - target <= 1e-3


def test_enumeration_is_exact():
    for n in range(1, 33):
        w_sq = two_value_enumeration_width(n)
        assert isinstance(w_sq, Fraction)
        assert w_sq == width_squared(n, SimplexKind.STANDARD)


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
        U = U - (STEP_INIT / math.sqrt(k)) * g
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


def _point_set(rows):
    return PointSet(tuple(Vector(tuple(row)) for row in rows))


def _random_points(seed, dim, count):
    return _point_set(np.random.default_rng(seed).standard_normal((count, dim)))


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
    # given as rows, a scaled identity takes the general path; adding
    # 0.0 makes the -0.0 entries of -I +0.0, as in the builders' rows
    ("minus-identity-4", _point_set(-np.eye(4) + 0.0), True),
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
    # a run on a builder's set that stops after k iterations returns
    # exactly what the textbook loop returns with max_iters=k; sets given
    # as rows never stop
    cfg = OptimizerConfig(seed=41, constrain_sum_zero=sum_zero)
    result = minimize_width(points, cfg)
    if not points._scale:
        assert result.iterations == cfg.max_iters
        return
    assert result.iterations < cfg.max_iters
    assert result.iterations % SNAP_EVERY == 0
    cut = OptimizerConfig(
        restarts=cfg.restarts,
        max_iters=result.iterations,
        tol=cfg.tol,
        seed=cfg.seed,
        constrain_sum_zero=cfg.constrain_sum_zero,
    )
    width, coords, converged, iterations = _reference_minimize_width(points, cut)
    assert result.width == width
    assert result.direction.coords == coords
    assert result.converged == converged
    assert result.iterations == iterations


@st.composite
def _general_runs(draw):
    dim = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    coords = st.tuples(*[st.floats(-10.0, 10.0, allow_subnormal=False)] * dim)
    rows = draw(st.lists(coords, min_size=count, max_size=count))
    cfg = OptimizerConfig(
        restarts=draw(st.integers(1, 4)),
        max_iters=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
        constrain_sum_zero=dim >= 2 and draw(st.booleans()),
    )
    return PointSet(tuple(Vector(row) for row in rows)), cfg


@settings(max_examples=30, deadline=None)
@given(_general_runs())
def test_minimize_width_is_the_reference_loop_on_random_point_sets(run):
    # the reference resets a row whose norm falls under 1e-12; the
    # minimizer has no such reset, since a step never shortens a unit row
    points, cfg = run
    result = minimize_width(points, cfg)
    width, coords, converged, iterations = _reference_minimize_width(points, cfg)
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
            n, Direction(coords, sum_zero=True)
        )


@pytest.mark.parametrize("sum_zero", [True, False])
@pytest.mark.parametrize(
    "scale",
    [1.0, 1.0 / math.sqrt(2.0), 0.0],
    ids=["c=1", "c=1/sqrt2", "general"],
)
def test_snap_is_bitwise_the_per_row_snap(scale, sum_zero):
    # scale 0.0 stands for a general vertex matrix
    # rows are unit, and centered under sum zero, as the descent holds them
    rng = np.random.default_rng(5)
    kept = {"no snap": 0, "wider": 0}
    for trial in range(300):
        r, dim = int(rng.integers(1, 7)), int(rng.integers(1 + sum_zero, 9))
        u = rng.standard_normal((r, dim))
        if sum_zero:
            u -= u.mean(axis=1, keepdims=True)
        elif trial % 5 == 0:
            u[0] = np.abs(u[0])  # one sign only
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        best_w = rng.uniform(0.0, 3.0, r)
        if trial % 3 == 0:
            best_w[0] = 0.0  # any nonzero snapped width is wider
        if scale:
            pts = np.diag(np.full(dim, scale))
        else:
            pts = rng.standard_normal((int(rng.integers(1, 9)), dim))
        u_in, w_in = u.copy(), best_w.copy()
        # the c*I path never reads the vertex matrix
        got_u, got_w = _snap(u, best_w, None if scale else pts, scale, sum_zero)
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
    assert kept["no snap"] == 0 and kept["wider"] > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_row_the_descent_holds_has_a_snap(dim, sum_zero, seed):
    # _snap divides by its snaps' norms unguarded. The descent holds unit
    # rows, centered under sum zero, and clamping such a row to its own
    # extremes by sign keeps the norm at least 1, or, centered, at least
    # (max - min) * sqrt((d - 1) / d).
    sum_zero = sum_zero and dim >= 2
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < 4:
        # small integers give ties and zero coordinates
        if len(rows) % 2:
            u = rng.integers(-2, 3, dim).astype(float)
        else:
            u = rng.standard_normal(dim)
        if sum_zero:
            u -= u.mean()
        norm = np.linalg.norm(u)
        if norm >= 1e-12:
            rows.append(u / norm)
    for u in rows:
        snapped = np.where(u < 0, u.min(), u.max())
        bound = 1.0
        if sum_zero:
            snapped -= snapped.mean()
            bound = (u.max() - u.min()) * math.sqrt((dim - 1) / dim)
        assert np.linalg.norm(snapped) >= bound * (1 - 1e-12)
    # every row takes its snap, and every snap is a unit vector
    got_u, got_w = _snap(np.array(rows), np.full(4, np.inf), None, 1.0, sum_zero)
    assert np.all(np.isfinite(got_w))
    assert np.allclose(np.linalg.norm(got_u, axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_only_the_vertex_builders_record_a_scale():
    # both scales are positive, and survive pickling and copying
    for build, c in (
        (standard_simplex_vertices, 1.0),
        (regular_simplex_vertices, 1.0 / math.sqrt(2.0)),
    ):
        built = build(4)
        assert built._scale == c > 0
        for clone in (
            pickle.loads(pickle.dumps(built)),
            copy.copy(built),
            copy.deepcopy(built),
        ):
            assert clone._scale == c and clone.dim == len(clone) == 5
    # a set given as rows keeps the class default, whatever its rows are:
    # the explicit rows of both builders, -I, a -0.0 off the diagonal,
    # and sets that are not square
    rows = np.eye(5)
    rows[4, 0] = -0.0
    for points in (
        _point_set([p.coords for p in standard_simplex_vertices(4)]),
        _point_set([p.coords for p in regular_simplex_vertices(4)]),
        _point_set(-np.eye(4) + 0.0),
        _point_set([[0.0]]),
        unit_square(),
        _point_set([[1.0, -0.0], [0.0, 1.0]]),
        _point_set(rows),
        _point_set([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        _point_set([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ):
        assert points._scale == 0.0 and "_scale" not in vars(points)
        assert "_order" not in vars(points)


def test_identity_path_allocates_nothing_of_the_vertex_matrix_size():
    cfg = OptimizerConfig(restarts=2, max_iters=1, constrain_sum_zero=True)
    prebuilt = standard_simplex_vertices(300)
    # the vertices built before the trace, and built inside it
    for make in (lambda: prebuilt, lambda: standard_simplex_vertices(300)):
        tracemalloc.start()
        try:
            minimize_width(make(), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 copy of the 301 x 301 vertex matrix
        assert peak < 8 * 301**2


def test_identity_path_holds_few_arrays_of_the_restarts_size():
    # three arrays: the descent's iterates, the incumbents and one
    # scratch, which also takes the step; the stall check's and the
    # final snap each add one array while the scratch (and at the end
    # all but the incumbents) is freed
    points = standard_simplex_vertices(200)
    cfg = OptimizerConfig(restarts=64, max_iters=2 * SNAP_EVERY, constrain_sum_zero=True)
    # a first call imports numpy's lazily loaded parts outside the trace
    minimize_width(points, OptimizerConfig(restarts=1, max_iters=1))
    tracemalloc.start()
    try:
        result = minimize_width(points, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations == cfg.max_iters
    # in arrays of 64 x 201 float64; numpy's ufunc buffers add a fixed 64 KiB
    assert peak / (8 * 64 * 201) < 4.5


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
