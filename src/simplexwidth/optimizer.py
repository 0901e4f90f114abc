"""Numerical width minimization over unit directions.

Three independent routes to the width of a point set:

* `minimize_width`: projected subgradient descent on the sphere, with
  seeded random restarts and a final snap onto the nearest two-value
  direction. Returns an upper bound on the true width.
* `grid_width_oracle`: brute-force sweep of a uniform angular grid of
  the (at most 3-dimensional) search space. Slow but assumption-free.
* `two_value_enumeration_width`: exact rational scan over the
  two-value family, the structural optimum for simplices.

The objective f(u) = max_p <u, p> - min_p <u, p> is a maximum of linear
functions minus a minimum of linear functions, so p_max - p_min is a
valid subgradient at u; ties are broken by lowest vertex index to keep
every run deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .closed_form import width_for_t
from .directions import make_two_value_direction
from .geometry import DimensionError, Direction, PointSet, Vector, check_order

# The stall rule of `minimize_width` on c*I vertex matrices: check every
# SNAP_EVERY iterations, stop after PATIENCE checks without progress.
SNAP_EVERY = 100
PATIENCE = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for `minimize_width`.

    The step schedule is step_init/sqrt(iter), the standard choice for
    non-smooth convex objectives; the width landscape on the sphere has
    one local basin per face pair, so restarts are the remedy, each
    initialized from its own sub-seed of ``seed``.

    ``max_iters`` is an upper bound: on the standard and regular
    simplices `minimize_width` stops earlier once its two-value snap
    stalls (see there). ``tol`` is the "improved by less than" threshold
    of both ``converged`` and that stall rule.
    """

    restarts: int = 64
    max_iters: int = 10_000
    step_init: float = 1.0
    tol: float = 1e-10
    seed: int = 0
    constrain_sum_zero: bool = False

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class WidthResult:
    """Achieved width, the direction achieving it, and run metadata.

    ``iterations`` is the count actually run: the subgradient iterations
    (at most ``max_iters``), the grid directions evaluated, or the orders
    scanned by the enumeration.

    ``width_squared_exact`` is populated only by the exact enumeration
    route, where the squared width is a rational computed without any
    floating point.
    """

    width: float
    direction: Direction
    iterations: int
    converged: bool
    width_squared_exact: Fraction | None = None


def _points_matrix(points: PointSet) -> np.ndarray:
    return np.array([p.coords for p in points], dtype=float)


def _batch_widths(dirs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Projection widths of many directions at once; rows of ``dirs``
    are directions, rows of ``pts`` are points."""
    dots = dirs @ pts.T
    return dots.max(axis=1) - dots.min(axis=1)


def _restart_inits(cfg: OptimizerConfig, dim: int) -> np.ndarray:
    """One unit start per restart, drawn from per-restart sub-seeds:
    Gaussian sample, project into the constraint subspace, normalize."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    rows = np.empty((cfg.restarts, dim))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        v = rng.standard_normal(dim)
        if cfg.constrain_sum_zero:
            v = v - v.mean()
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.standard_normal(dim)
            if cfg.constrain_sum_zero:
                v = v - v.mean()
            norm = np.linalg.norm(v)
        rows[k] = v / norm
    return rows


def _snap(
    best_u: np.ndarray,
    best_w: np.ndarray,
    pts: np.ndarray,
    scale: float,
    sum_zero: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Snap every row of ``best_u`` onto the two-value family: clamp each
    coordinate to its row's own extremes by sign, re-center the row if
    constrained, renormalize. A row takes its snap only where the snap's
    norm is at least 1e-12 and its width does not exceed ``best_w``.
    Returns the new directions and widths; the inputs are not changed.

    This is the rounding step of the energy argument, which recovers the
    exact two-value direction from a noisy near-optimal iterate. It is
    the one snap of `minimize_width`: the stall check reads its widths,
    and the final snap keeps its result. The arithmetic is that of
    snapping one row at a time: each row norm is one dot product, as in
    `np.linalg.norm` of a vector, and each projection a matrix-vector
    product, or ``scale`` times the row for a vertex matrix that is
    ``scale`` times the identity.
    """
    lo = best_u.min(axis=1, keepdims=True)
    hi = best_u.max(axis=1, keepdims=True)
    snapped = np.where(best_u < 0, lo, hi)
    if sum_zero:
        snapped -= snapped.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.matmul(snapped[:, None, :], snapped[:, :, None])[:, 0])
    valid = norms[:, 0] >= 1e-12
    norms[~valid] = 1.0
    snapped /= norms
    if scale:
        dots = snapped * scale
    else:
        dots = np.matmul(pts, snapped[:, :, None])[:, :, 0]
    widths = dots.max(axis=1) - dots.min(axis=1)
    keep = valid & (widths <= best_w)
    return np.where(keep[:, None], snapped, best_u), np.where(keep, widths, best_w)


def _identity_scale(pts: np.ndarray) -> float:
    """The c of a vertex matrix that is exactly c times the identity,
    c != 0 and every off-diagonal entry +0.0; 0.0 for any other matrix.
    The standard simplex has c = 1, the regular one c = 1/sqrt(2)."""
    rows, dim = pts.shape
    c = float(pts[0, 0])
    if rows != dim or c == 0.0:
        return 0.0
    return c if pts.tobytes() == np.diag(np.full(dim, c)).tobytes() else 0.0


def minimize_width(points: PointSet, cfg: OptimizerConfig) -> WidthResult:
    """Best-of-restarts projected subgradient descent for the width.

    Each iteration takes the subgradient p_max - p_min at the current
    iterate (ties to the lowest vertex index), projects out the all-ones
    component when constrained, projects out the radial component, steps
    by step_init/sqrt(iter), and renormalizes. After the last iteration
    `_snap` snaps each restart's incumbent onto the two-value family,
    and the best width wins. The result is an upper bound on the true
    width; ``converged`` records whether the last iteration run improved
    the best width by less than ``tol``, and ``iterations`` is the
    number of iterations run.

    When the vertex matrix is c times the identity (the standard and
    regular simplices), the projections of an iterate u are just its
    coordinates scaled by c, so they are computed as ``c * u`` instead
    of a matrix product. Each dot product has one nonzero term, so the
    scaled coordinates equal the matrix product exactly and the result
    is the same, bit for bit, as on the general path.

    On such a matrix the run also stops early, so ``max_iters`` is only
    an upper bound. Every SNAP_EVERY iterations it calls the same
    `_snap` on the incumbents, without keeping its result, and stops at
    the first check where the width the final snap would return has not
    fallen by more than ``tol`` over the last PATIENCE checks. The
    minimizers of the width of a simplex are two-valued, and an
    incumbent with the optimal sign pattern snaps to the exact optimum,
    so once one restart reaches that pattern the snapped width stops
    moving. A run that stops after k iterations returns what a run with
    ``max_iters=k`` returns. Other point sets have no such structure (a
    stall rule of this kind cost widths up to 15% on random 4-D and 5-D
    sets), so they always run ``max_iters`` iterations.

    NOTE: a point set that spans an affine hyperplane not through the
    origin (such as a simplex on the coordinates-sum-to-one hyperplane)
    has unconstrained width 0 along the hyperplane's normal; pass
    ``constrain_sum_zero=True`` to search parallel to that hyperplane.
    """
    dim = points.dim
    sum_zero = cfg.constrain_sum_zero
    if sum_zero and dim < 2:
        raise DimensionError(
            "the sum-zero constraint leaves no directions in dimension 1"
        )
    pts = _points_matrix(points)
    scale = _identity_scale(pts)
    r = cfg.restarts
    add = np.add.reduce

    inits = _restart_inits(cfg, dim)
    U = inits.copy()
    rows = np.arange(r)
    checks: list[float] = []

    dots = U * scale if scale else U @ pts.T
    hi = dots.argmax(axis=1)
    lo = dots.argmin(axis=1)
    widths = dots[rows, hi] - dots[rows, lo]
    best_w = widths.copy()
    best_u = U.copy()

    # Each step is U <- normalize(U - step * (g - <g, U> U)), with
    # np.mean and np.linalg.norm spelled out as the np.add.reduce calls
    # they make and the updates done in place. The rounding is the same,
    # so the result matches the textbook loop kept in the tests bit for
    # bit.
    for k in range(1, cfg.max_iters + 1):
        if scale:
            # g = pts[hi] - pts[lo] holds c, -c and +0.0 only: its
            # coordinate sum is exactly 0, so centering leaves it as it
            # is, and <g, U> has two nonzero terms, c*U[hi] - c*U[lo],
            # which is exactly the current width.
            g = np.zeros((r, dim))
            g[rows, hi] = scale
            g[rows, lo] -= scale
            gu = widths[:, None]
        else:
            g = pts[hi] - pts[lo]
            if sum_zero:
                g -= add(g, axis=1, keepdims=True) / dim
            gu = add(g * U, axis=1, keepdims=True)
        g -= gu * U
        g *= cfg.step_init / math.sqrt(k)
        U -= g
        if sum_zero:
            U -= add(U, axis=1, keepdims=True) / dim
        norms = np.sqrt(add(U * U, axis=1, keepdims=True))
        if norms.min() < 1e-12:
            degenerate = norms[:, 0] < 1e-12
            U[degenerate] = inits[degenerate]
            norms[degenerate] = 1.0
        U /= norms

        dots = U * scale if scale else U @ pts.T
        hi = dots.argmax(axis=1)
        lo = dots.argmin(axis=1)
        widths = dots[rows, hi] - dots[rows, lo]
        improved = widths < best_w
        check = scale != 0.0 and k % SNAP_EVERY == 0
        if check or k == cfg.max_iters:
            last_gain = np.where(improved, best_w - widths, 0.0)
        np.copyto(best_u, U, where=improved[:, None])
        np.copyto(best_w, widths, where=improved)
        if check:
            checks.append(float(_snap(best_u, best_w, pts, scale, sum_zero)[1].min()))
            if (
                len(checks) > PATIENCE
                and checks[-1 - PATIENCE] - checks[-1] <= cfg.tol
            ):
                break

    best_u, best_w = _snap(best_u, best_w, pts, scale, sum_zero)
    winner = int(np.argmin(best_w))
    u = best_u[winner]
    direction = Direction(Vector(tuple(u)), sum_zero=sum_zero)
    return WidthResult(
        width=float(best_w[winner]),
        direction=direction,
        iterations=k,
        converged=bool(last_gain[winner] < cfg.tol),
    )


def _constraint_basis(dim: int, constrain_sum_zero: bool) -> np.ndarray:
    """Orthonormal rows spanning the search subspace."""
    if not constrain_sum_zero:
        return np.eye(dim)
    _, _, vh = np.linalg.svd(np.ones((1, dim)))
    return vh[1:]


def grid_directions(
    dim: int,
    resolution: int,
    constrain_sum_zero: bool = False,
    chunk_rows: int = 200_000,
) -> Iterator[np.ndarray]:
    """Uniform angular grid of the unit sphere of the search subspace,
    yielded as chunks of direction rows in the ambient dimension.

    Supports search dimensions 1 to 3 (a pair of antipodes, a circle
    with ``resolution`` angles, or a sphere with ``resolution``
    subdivisions per polar and azimuthal angle).
    """
    if resolution < 8:
        raise ValueError("grid resolution must be at least 8")
    search_dim = dim - 1 if constrain_sum_zero else dim
    if constrain_sum_zero and dim < 2:
        raise DimensionError(
            "the sum-zero constraint leaves no directions in dimension 1"
        )
    if not 1 <= search_dim <= 3:
        raise ValueError(
            f"grid search supports subspace dimensions 1..3, got {search_dim}"
        )
    basis = _constraint_basis(dim, constrain_sum_zero)

    if search_dim == 1:
        yield np.vstack([basis[0], -basis[0]])
        return

    if search_dim == 2:
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        for start in range(0, resolution, chunk_rows):
            block = theta[start : start + chunk_rows]
            yield np.outer(np.cos(block), basis[0]) + np.outer(
                np.sin(block), basis[1]
            )
        return

    # Two-sphere: polar angle 0..pi inclusive, azimuth 0..2pi exclusive.
    polar = np.pi * np.arange(resolution + 1) / resolution
    azimuth = 2.0 * np.pi * np.arange(resolution) / resolution
    cos_az, sin_az = np.cos(azimuth), np.sin(azimuth)
    polar_per_chunk = max(1, chunk_rows // resolution)
    for start in range(0, resolution + 1, polar_per_chunk):
        block = polar[start : start + polar_per_chunk]
        sin_p, cos_p = np.sin(block), np.cos(block)
        # (polar block, azimuth, ambient dim)
        chunk = (
            sin_p[:, None, None]
            * (
                cos_az[None, :, None] * basis[0][None, None, :]
                + sin_az[None, :, None] * basis[1][None, None, :]
            )
            + cos_p[:, None, None] * basis[2][None, None, :]
        )
        yield chunk.reshape(-1, dim)


def grid_width_oracle(
    points: PointSet, resolution: int, constrain_sum_zero: bool = False
) -> WidthResult:
    """Exhaustive width over a uniform angular grid of the search space.

    The returned minimum is within O(diam(P)/resolution) of the true
    width. Only search dimensions up to 3 are supported; use it as a
    desk-scale oracle, not a general solver.
    """
    pts = _points_matrix(points)
    best_w = math.inf
    best_u: np.ndarray | None = None
    evaluated = 0
    for chunk in grid_directions(points.dim, resolution, constrain_sum_zero):
        widths = _batch_widths(chunk, pts)
        j = int(np.argmin(widths))
        if widths[j] < best_w:
            best_w = float(widths[j])
            best_u = chunk[j].copy()
        evaluated += len(chunk)
    assert best_u is not None
    direction = Direction(Vector(tuple(best_u)), sum_zero=constrain_sum_zero)
    return WidthResult(
        width=best_w,
        direction=direction,
        iterations=evaluated,
        converged=True,
    )


def two_value_enumeration_width(n: int) -> WidthResult:
    """Exact width of the standard n-simplex by scanning the two-value
    family over the low-coordinate count t.

    Every candidate width (n+1)/(t(n+1-t)) is an exact rational, so the
    minimum is exact; the witness puts the low coordinates first. Ties
    (even n) resolve to the smaller t.
    """
    check_order(n)
    best_t = min(range(1, n + 1), key=lambda t: (width_for_t(n, t), t))
    w_sq = width_for_t(n, best_t)
    witness = make_two_value_direction(n, best_t, frozenset(range(best_t)))
    return WidthResult(
        width=math.sqrt(w_sq),
        direction=witness.direction,
        iterations=n,
        converged=True,
        width_squared_exact=w_sq,
    )
