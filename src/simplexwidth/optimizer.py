"""Numerical width minimization over unit directions.

Two independent routes to the width of a point set:

* `minimize_width`: projected subgradient descent on the sphere, with
  seeded random restarts and a final snap onto the nearest two-value
  direction. Returns an upper bound on the true width.
* `two_value_enumeration_width`: exact rational scan of the squared
  width over the two-value family, the structural optimum for simplices.

The objective f(u) = max_p <u, p> - min_p <u, p> is a maximum of linear
functions minus a minimum of linear functions, so p_max - p_min is a
valid subgradient at u; ties are broken by lowest vertex index to keep
every run deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .closed_form import width_for_t
from .geometry import (
    MAX_SEED,
    DimensionError,
    Direction,
    Frozen,
    PointSet,
    Vector,
    check_flag,
    check_int,
    check_order,
    check_real,
    check_type,
)

# numpy is imported in the body of each function that uses it, so that
# importing the package, as the exact CLI commands do, does not load it.
if TYPE_CHECKING:
    import numpy as np

# The stall rule of `minimize_width` on the vertex builders' sets: check
# every SNAP_EVERY iterations, stop after PATIENCE checks without progress.
SNAP_EVERY = 100
PATIENCE = 5

# The subgradient step at iteration k is STEP_INIT / sqrt(k).
STEP_INIT = 1.0

class OptimizerConfig(Frozen):
    """Knobs for `minimize_width`.

    The step schedule is STEP_INIT/sqrt(iter), the standard choice for
    non-smooth convex objectives; the width landscape on the sphere has
    one local basin per face pair, so restarts are the remedy, each
    initialized from its own sub-seed of ``seed``.

    ``max_iters`` is an upper bound: on the sets made by the vertex
    builders `minimize_width` stops earlier once its two-value snap
    stalls (see there). ``tol`` is the "improved by less than" threshold
    of both ``converged`` and that stall rule.
    """

    _fields = ("restarts", "max_iters", "tol", "seed", "constrain_sum_zero")
    restarts: int
    max_iters: int
    tol: float
    seed: int
    constrain_sum_zero: bool

    def __init__(
        self,
        restarts: int = 64,
        max_iters: int = 10_000,
        tol: float = 1e-10,
        seed: int = 0,
        constrain_sum_zero: bool = False,
    ) -> None:
        tol = check_real(tol, "tol")
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        self.__dict__.update(
            restarts=check_int(restarts, "restarts"),
            max_iters=check_int(max_iters, "max_iters"),
            tol=tol,
            seed=check_int(seed, "seed", 0, MAX_SEED),
            constrain_sum_zero=check_flag(constrain_sum_zero, "constrain_sum_zero"),
        )


class WidthResult(Frozen):
    """Achieved width, the direction achieving it, and run metadata.

    ``iterations`` is the count of subgradient iterations actually run,
    at most ``max_iters``.
    """

    _fields = ("width", "direction", "iterations", "converged")
    width: float
    direction: Direction
    iterations: int
    converged: bool

    def __init__(
        self, width: float, direction: Direction, iterations: int, converged: bool
    ) -> None:
        self.__dict__.update(
            width=width, direction=direction, iterations=iterations, converged=converged
        )


def _points_matrix(points: PointSet) -> np.ndarray:
    import numpy as np

    return np.array([p.coords for p in points], dtype=float)


def _restart_inits(cfg: OptimizerConfig, dim: int) -> np.ndarray:
    """One unit start per restart, drawn from per-restart sub-seeds:
    Gaussian sample, project into the constraint subspace, normalize."""
    import numpy as np

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    rows = np.empty((cfg.restarts, dim))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        norm = 0.0
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
    pts: np.ndarray | None,
    scale: float,
    sum_zero: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Snap every row of ``best_u`` onto the two-value family: clamp each
    coordinate to its row's own extremes by sign, re-center the row if
    constrained, renormalize. A row takes its snap only where its width
    does not exceed ``best_w``. Returns the new directions and widths;
    the inputs are not changed. Rows must be unit and, if constrained,
    centered, so of both signs: clamping never shrinks a coordinate, so a
    snap's norm is at least 1, or re-centered (max - min) * sqrt((d-1)/d).

    This is the rounding step of the energy argument, which recovers the
    exact two-value direction from a noisy near-optimal iterate. It is
    the one snap of `minimize_width`: the stall check reads its widths,
    and the final snap keeps its result. The arithmetic is that of
    snapping one row at a time: each row norm is one dot product, as in
    `np.linalg.norm` of a vector, and each projection a matrix-vector
    product with ``pts``, or ``scale`` times the row for a vertex matrix
    that is ``scale`` times the identity, which leaves ``pts`` unread.

    The only float array of ``best_u``'s shape that it makes is the one
    it returns. On a c*I matrix, c > 0, a row's width is its largest and
    smallest coordinate times c: rounding is monotone, so these are the
    bits of the extremes of the row times c.
    """
    import numpy as np

    snapped = np.empty_like(best_u)
    np.copyto(snapped, best_u.max(axis=1, keepdims=True))
    np.copyto(snapped, best_u.min(axis=1, keepdims=True), where=best_u < 0)
    if sum_zero:
        snapped -= snapped.mean(axis=1, keepdims=True)
    snapped /= np.sqrt(np.matmul(snapped[:, None, :], snapped[:, :, None])[:, 0])
    if scale:
        widths = snapped.max(axis=1) * scale - snapped.min(axis=1) * scale
    else:
        dots = np.matmul(pts, snapped[:, :, None])[:, :, 0]
        widths = dots.max(axis=1) - dots.min(axis=1)
    keep = widths <= best_w
    np.copyto(snapped, best_u, where=~keep[:, None])
    return snapped, np.where(keep, widths, best_w)


def minimize_width(points: PointSet, cfg: OptimizerConfig) -> WidthResult:
    """Best-of-restarts projected subgradient descent for the width.

    Each iteration takes the subgradient p_max - p_min at the current
    iterate (ties to the lowest vertex index), projects out the all-ones
    component when constrained, projects out the radial component, steps
    by STEP_INIT/sqrt(iter), and renormalizes. After the last iteration
    `_snap` snaps each restart's incumbent onto the two-value family,
    and the best width wins. The result is an upper bound on the true
    width; ``converged`` records whether the last iteration run improved
    the best width by less than ``tol``, and ``iterations`` is the
    number of iterations run.

    On a set made by `standard_simplex_vertices` or
    `regular_simplex_vertices`, which records its scale c (1 or
    1/sqrt(2)) in ``_scale``, the vertex matrix is c times the identity,
    so the projections of an iterate u are computed as ``c * u`` instead
    of a matrix product, and neither the matrix nor the set's rows are
    built. Each dot product has one nonzero term, so the scaled
    coordinates equal the matrix product exactly and the result is the
    same, bit for bit, as on the general path, which a set given as rows
    takes whatever its rows are. The descent holds three arrays of
    restarts x (n+1) floats: the iterates, the incumbents and one
    scratch, whose place each snap's array takes.

    On a built set the run also stops early, so ``max_iters`` is only
    an upper bound. Every SNAP_EVERY iterations it calls the same
    `_snap` on the incumbents, without keeping its result, and stops at
    the first check where the width the final snap would return has not
    fallen by more than ``tol`` over the last PATIENCE checks. The
    minimizers of the width of a simplex are two-valued, and an
    incumbent with the optimal sign pattern snaps to the exact optimum,
    so once one restart reaches that pattern the snapped width stops
    moving. A run that stops after k iterations returns what a run with
    ``max_iters=k`` returns. Sets given as rows, which may lack that
    structure (a stall rule of this kind cost widths up to 15% on random
    4-D and 5-D sets), always run ``max_iters`` iterations.

    NOTE: a point set that spans an affine hyperplane not through the
    origin (such as a simplex on the coordinates-sum-to-one hyperplane)
    has unconstrained width 0 along the hyperplane's normal; pass
    ``constrain_sum_zero=True`` to search parallel to that hyperplane.
    """
    import numpy as np

    dim = check_type(points, PointSet, "points").dim
    sum_zero = check_type(cfg, OptimizerConfig, "cfg").constrain_sum_zero
    check_int(dim - sum_zero, "search dimension", 1, error=DimensionError)
    scale = points._scale
    pts = None if scale else _points_matrix(points)
    r = cfg.restarts
    add = np.add.reduce

    U = _restart_inits(cfg, dim)
    rows = np.arange(r)
    checks: list[float] = []
    # Made once: a scratch that holds in turn the step (on c*I) or
    # <g, U> U, then U*U, then (on c*I) the projections U*scale.
    scratch = np.empty((r, dim))

    dots = np.multiply(U, scale, out=scratch) if scale else U @ pts.T
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
            # The general step's g = pts[hi] - pts[lo] holds c, -c and
            # +0.0 only, so centering leaves it as it is and <g, U> is
            # exactly the width. The scratch takes (<g, U> U - g) * step,
            # the exact negation of the general term, so U += it is the
            # general U -= term bit for bit, signed zeros included.
            np.multiply(widths[:, None], U, out=scratch)
            scratch[rows, hi] -= scale
            scratch[rows, lo] += scale
            scratch *= STEP_INIT / math.sqrt(k)
            U += scratch
        else:
            g = pts[hi] - pts[lo]
            if sum_zero:
                g -= add(g, axis=1, keepdims=True) / dim
            g -= np.multiply(add(g * U, axis=1, keepdims=True), U, out=scratch)
            g *= STEP_INIT / math.sqrt(k)
            U -= g
        if sum_zero:
            U -= add(U, axis=1, keepdims=True) / dim
        norms = np.sqrt(add(np.multiply(U, U, out=scratch), axis=1, keepdims=True))
        U /= norms

        dots = np.multiply(U, scale, out=scratch) if scale else U @ pts.T
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
            # Between steps the scratch holds nothing that is read again,
            # so the snap may take its memory.
            scratch = dots = None
            checks.append(float(_snap(best_u, best_w, pts, scale, sum_zero)[1].min()))
            scratch = np.empty((r, dim))
            if (
                len(checks) > PATIENCE
                and checks[-1 - PATIENCE] - checks[-1] <= cfg.tol
            ):
                break

    # Only the incumbents outlive the descent.
    U = g = scratch = dots = None
    best_u, best_w = _snap(best_u, best_w, pts, scale, sum_zero)
    winner = int(np.argmin(best_w))
    u = best_u[winner]
    direction = Direction(Vector(u.tolist()), sum_zero=sum_zero)
    return WidthResult(
        width=float(best_w[winner]),
        direction=direction,
        iterations=k,
        converged=bool(last_gain[winner] < cfg.tol),
    )


def two_value_enumeration_width(n: int) -> Fraction:
    """Exact squared width of the standard n-simplex: the least
    `width_for_t(n, t)` over the low-coordinate counts t = 1..n of the
    two-value family. Despite the name, the result is squared, like
    `width_for_t`'s.
    """
    check_order(n)
    return min(width_for_t(n, t) for t in range(1, n + 1))
