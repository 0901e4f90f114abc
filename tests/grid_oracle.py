"""A uniform angular grid of unit directions: the brute-force width
oracle of the tests, slow but assumption-free, for search dimensions
1 to 3 (a pair of antipodes, a circle or a two-sphere).
"""

import math

import numpy as np

from simplexwidth.closed_form import SimplexKind, width_squared
from simplexwidth.directions import enumerate_optimal_directions
from simplexwidth.geometry import standard_simplex_vertices
from simplexwidth.optimizer import _points_matrix

# Rows per chunk of `grid_directions`; a sphere chunk holds whole polar
# rows, at least one.
GRID_CHUNK_ROWS = 200_000


def batch_widths(dirs, pts):
    """Projection widths of the rows of ``dirs`` over the rows of ``pts``."""
    dots = dirs @ pts.T
    return dots.max(axis=1) - dots.min(axis=1)


def grid_directions(dim, resolution, constrain_sum_zero=False):
    """Chunks of about GRID_CHUNK_ROWS unit rows in the ambient dimension:
    the grid of the unit sphere of the search subspace, with
    ``resolution`` angles on the circle, or per polar and azimuthal
    angle on the sphere, whose polar angle runs 0..pi inclusive."""
    search_dim = dim - constrain_sum_zero
    assert 1 <= search_dim <= 3, f"search dimension {search_dim}"
    if constrain_sum_zero:
        basis = np.linalg.svd(np.ones((1, dim)))[2][1:]
    else:
        basis = np.eye(dim)
    if search_dim == 1:
        yield np.vstack([basis[0], -basis[0]])
        return
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    ring = np.outer(np.cos(angles), basis[0]) + np.outer(np.sin(angles), basis[1])
    if search_dim == 2:
        for start in range(0, resolution, GRID_CHUNK_ROWS):
            yield ring[start : start + GRID_CHUNK_ROWS]
        return
    polar = np.pi * np.arange(resolution + 1) / resolution
    per_chunk = max(1, GRID_CHUNK_ROWS // resolution)
    for start in range(0, resolution + 1, per_chunk):
        block = polar[start : start + per_chunk]
        chunk = np.multiply.outer(np.sin(block), ring) + np.multiply.outer(
            np.cos(block), basis[2]
        )[:, None]
        yield chunk.reshape(-1, dim)


def grid_width_oracle(points, resolution, constrain_sum_zero=False):
    """The least projection width of ``points`` over the grid, within
    O(diam/resolution) of the true width, and the directions evaluated."""
    pts = _points_matrix(points)
    best, evaluated = math.inf, 0
    for chunk in grid_directions(points.dim, resolution, constrain_sum_zero):
        best = min(best, float(batch_widths(chunk, pts).min()))
        evaluated += len(chunk)
    return best, evaluated


def family_offsets(n, resolution, slack):
    """Over the sum-zero grid directions whose width on the standard
    n-simplex is within ``slack`` of the closed form: their count, and
    the largest angle from one to its nearest member of the enumerated
    family or that member's negation."""
    points = standard_simplex_vertices(n)
    pts = _points_matrix(points)
    family = np.array([d.coords for d in enumerate_optimal_directions(n)])
    bound = math.sqrt(width_squared(n, SimplexKind.STANDARD)) + slack
    count, worst = 0, 0.0
    for chunk in grid_directions(n + 1, resolution, constrain_sum_zero=True):
        near = chunk[batch_widths(chunk, pts) <= bound]
        if len(near):
            cosines = np.clip(np.abs(near @ family.T).max(axis=1), -1.0, 1.0)
            count += len(near)
            worst = max(worst, float(np.arccos(cosines).max()))
    return count, worst
