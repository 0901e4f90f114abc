"""Vector, direction, and projection width primitives."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexwidth.geometry import (
    MAX_ORDER,
    VERTEX_MAX_ORDER,
    DimensionError,
    Direction,
    PointSet,
    PreconditionError,
    Vector,
    distance,
    projection_width,
    regular_simplex_vertices,
    standard_simplex_vertices,
)

coords_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=16,
)


def test_vector_rejects_empty_and_nonfinite():
    with pytest.raises(DimensionError):
        Vector(())
    with pytest.raises(ValueError):
        Vector((1.0, math.nan))
    with pytest.raises(ValueError):
        Vector((math.inf,))


def test_vector_coerces_to_float():
    v = Vector((1, 2, 3))
    assert v.coords == (1.0, 2.0, 3.0)
    assert all(isinstance(c, float) for c in v.coords)


@pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12"), ""])
def test_vector_rejects_strings(text):
    with pytest.raises(TypeError):
        Vector(text)


def bits(coords):
    return [c.hex() for c in coords]


def negated(d):
    return Direction(Vector([-c for c in d.coords]), d.sum_zero)


numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.just(-0.0),
)

SOURCES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda values: (x for x in values),
    "ndarray": lambda values: np.array(values, dtype=float),
    "float64": lambda values: [np.float64(x) for x in values],
}


@given(st.lists(numbers, min_size=1, max_size=50), st.sampled_from(sorted(SOURCES)))
def test_sized_builds_match_the_generator_spelling_bit_for_bit(values, source):
    make = SOURCES[source]
    v = Vector(make(values))
    # the spelling used before coordinate tuples were built from lists
    assert bits(v.coords) == bits(tuple(map(float, make(values))))


def test_vector_norm_squared():
    assert Vector((3.0, 4.0)).norm_squared() == 25.0


def test_direction_requires_unit_norm():
    with pytest.raises(PreconditionError):
        Direction(Vector((1.0, 1.0)))
    d = Direction(Vector((0.6, 0.8)))
    assert d.dim == 2


def test_direction_sum_zero_flag_is_checked():
    # unit but not sum-zero
    with pytest.raises(PreconditionError):
        Direction(Vector((0.6, 0.8)), sum_zero=True)
    s = 1.0 / math.sqrt(2.0)
    d = Direction(Vector((s, -s)), sum_zero=True)
    assert d.sum_zero


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(())
    with pytest.raises(DimensionError):
        PointSet((Vector((1.0,)), Vector((1.0, 2.0))))
    ps = PointSet((Vector((1.0, 2.0)),))
    assert len(ps) == 1 and ps.dim == 2


_HALF = math.sqrt(0.5)


# a wrong type names the input; a flag of another type is a bad argument
# value under the package's argument rule, so it raises ValueError
_WRONG_TYPE = (TypeError, "Vector|bool")
_BAD_FLAG = (ValueError, "sum_zero")


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: Direction((1.0, 0.0)), *_WRONG_TYPE),
        (lambda: Direction([_HALF, -_HALF], sum_zero=True), *_WRONG_TYPE),
        (lambda: Direction(Vector((_HALF, -_HALF)), sum_zero="no"), *_BAD_FLAG),
        (lambda: Direction(Vector((1.0, 0.0)), sum_zero=0), *_BAD_FLAG),
        (lambda: PointSet(((1.0,),)), *_WRONG_TYPE),
        (lambda: PointSet("ab"), *_WRONG_TYPE),
        (lambda: PointSet((Vector((1.0,)), (2.0,))), *_WRONG_TYPE),
    ],
    ids=[
        "direction-of-tuple",
        "direction-of-list",
        "sum-zero-str",
        "sum-zero-int",
        "points-of-tuples",
        "points-of-str",
        "one-point-a-tuple",
    ],
)
def test_constructors_reject_wrong_types(build, error, match):
    # an error that names the input, not an AttributeError from inside
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_standard_simplex_vertices(n):
    ps = standard_simplex_vertices(n)
    assert len(ps) == n + 1
    pts = list(ps)
    for p in pts:
        assert abs(p.coordinate_sum() - 1.0) <= 1e-15
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(distance(pts[i], pts[j]) - math.sqrt(2.0)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_regular_simplex_has_unit_edges(n):
    pts = list(regular_simplex_vertices(n))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(distance(pts[i], pts[j]) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "build,c",
    [(standard_simplex_vertices, 1.0), (regular_simplex_vertices, 1.0 / math.sqrt(2.0))],
    ids=["standard", "regular"],
)
def test_built_vertices_are_the_point_set_of_their_rows(build, c):
    # dim, len and _scale read the stored order and scale:
    # less than one row's doubles, where the rows take 8 * 301^2 bytes
    tracemalloc.start()
    try:
        points = build(300)
        assert (points.dim, len(points), points._scale) == (301, 301, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 301
    # the rows are c times those of the identity, off-diagonals +0.0
    rows = np.array([p.coords for p in build(6)])
    assert rows.tobytes() == (np.eye(7) * c).tobytes()
    explicit = PointSet(tuple(Vector(row) for row in rows))
    assert build(6) == explicit and explicit == build(6)
    assert hash(build(6)) == hash(explicit)
    assert repr(build(6)) == repr(explicit)
    for clone in (pickle.loads(pickle.dumps(build(6))), copy.copy(build(6))):
        assert clone == explicit and clone.dim == len(clone) == 7
    assert copy.deepcopy(build(6)) == explicit


@pytest.mark.parametrize("bad", [0, -1, True, 1.5, "3"])
def test_simplex_order_validation(bad):
    with pytest.raises(DimensionError):
        standard_simplex_vertices(bad)


@pytest.mark.parametrize("build", [standard_simplex_vertices, regular_simplex_vertices])
def test_vertex_order_cap_refuses_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            build(VERTEX_MAX_ORDER + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The vertex list at this order would take about 8 MB.
    assert peak < 64 * 1024


@pytest.mark.parametrize("build", [standard_simplex_vertices, regular_simplex_vertices])
def test_simplex_order_cap_refuses_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            build(MAX_ORDER + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One vertex at this order alone would take 8 MB of floats.
    assert peak < 64 * 1024


def test_projection_width_unit_square():
    square = PointSet(
        tuple(Vector(c) for c in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    )
    assert projection_width(Direction(Vector((1.0, 0.0))), square) == 1.0
    diag = Direction(Vector((_HALF, _HALF)))
    assert abs(projection_width(diag, square) - math.sqrt(2.0)) <= 1e-12


def test_projection_width_scales_with_the_point_set():
    u = Direction(Vector((_HALF, -_HALF, 0.0)))
    std = standard_simplex_vertices(2)
    assert projection_width(u, std) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # shrinking every point shrinks every projection width by the same factor
    shrunk = PointSet(tuple(Vector([0.5 * c for c in p.coords]) for p in std))
    assert projection_width(u, shrunk) == pytest.approx(
        0.5 * math.sqrt(2.0), abs=1e-12
    )


def test_projection_width_dimension_mismatch():
    with pytest.raises(DimensionError):
        projection_width(Direction(Vector((1.0, 0.0))), standard_simplex_vertices(2))


@given(coords_strategy, coords_strategy)
def test_projection_width_negation_and_shift_invariance(dir_coords, shift_coords):
    dim = min(len(dir_coords), len(shift_coords))
    dir_coords, shift_coords = dir_coords[:dim], shift_coords[:dim]
    v = Vector(tuple(dir_coords))
    if v.norm_squared() < 1e-12:
        return
    scale = 1.0 / math.sqrt(v.norm_squared())
    u = Direction(Vector([scale * c for c in v.coords]))
    pts = PointSet(
        tuple(
            Vector(tuple(float(i == k) for k in range(dim))) for i in range(dim)
        )
    )
    w = projection_width(u, pts)
    assert w >= 0.0
    assert projection_width(negated(u), pts) == pytest.approx(w, abs=1e-12)
    shifted = PointSet(
        tuple(
            Vector(tuple(c + s for c, s in zip(p.coords, shift_coords)))
            for p in pts
        )
    )
    assert projection_width(u, shifted) == pytest.approx(w, abs=1e-6)


def test_distance_matches_pythagoras():
    assert distance(Vector((0.0, 0.0)), Vector((3.0, 4.0))) == 5.0
    with pytest.raises(DimensionError):
        distance(Vector((0.0,)), Vector((0.0, 0.0)))
