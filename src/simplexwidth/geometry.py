"""Points, unit directions, and projection widths in R^d.

Everything downstream (closed forms, direction families, optimizers) is
built on the two primitives here: Euclidean distance and the projection
width of a point set along a unit direction.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import Sequence

# Absolute tolerance on the squared norm of a unit vector, and on the
# coordinate sum of a sum-zero vector. Well above double rounding, far
# below any geometric scale in play.
UNIT_NORM_TOL = 1e-12
SUM_ZERO_TOL = 1e-12

# Largest accepted simplex order. Guards integer growth in the rational
# closed forms; every order check in the package applies it.
MAX_ORDER = 10**6

# Largest order the vertex builders accept. A built set stores n and c;
# its (n+1)^2 coordinates, about 8 MB of tuples at this order, are made
# only when its rows are read.
VERTEX_MAX_ORDER = 1000

# Largest seed: seeds are unsigned 64-bit integers.
MAX_SEED = 2**64 - 1


class DimensionError(ValueError):
    """Invalid or mismatched ambient dimension."""


class PreconditionError(ValueError):
    """An operation was called outside its stated hypothesis."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields, in constructor order, in ``_fields`` and
    stores them in the instance ``__dict__`` from its own ``__init__``.
    Instances of one class compare and hash by their fields, print as
    ``Name(field=value, ...)``, and refuse attribute assignment and
    deletion. Keeping the plain instance ``__dict__`` (no ``__slots__``)
    lets ``copy``, ``pickle`` and ``functools.cached_property`` work.
    Fields are read with ``getattr``, so a field may also be a
    ``cached_property`` that fills itself on first read (`PointSet`'s
    ``points``).
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={value!r}" for name, value in zip(self._fields, self._values())]
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Vector(Frozen):
    """Immutable dense coordinate vector in R^d."""

    _fields = ("coords",)
    coords: tuple[float, ...]

    def __init__(self, coords: Sequence[float]) -> None:
        if isinstance(coords, (str, bytes, bytearray)):
            raise TypeError("vector coordinates must be numbers, not str or bytes")
        # One copy, through a list: tuple() of an iterator grows by reallocation
        # and fragments the heap. Plain finite floats pass the real-number rule
        # unchanged, so they are checked at C speed and stored as they are.
        coords = tuple(list(coords))
        if set(map(type, coords)) != {float} or not all(map(math.isfinite, coords)):
            coords = tuple([*map(check_real, coords, repeat("vector coordinate"))])
        if len(coords) == 0:
            raise DimensionError("a vector needs at least one coordinate")
        self.__dict__["coords"] = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm_squared(self) -> float:
        return math.fsum(map(mul, self.coords, self.coords))

    def coordinate_sum(self) -> float:
        return math.fsum(self.coords)


class Direction(Vector):
    """Unit vector, optionally constrained to the sum-zero subspace.

    ``sum_zero`` marks directions orthogonal to the all-ones vector,
    i.e. parallel to the hyperplane that carries the basis-vector
    simplex. Both invariants are validated on construction. A direction
    never equals a plain `Vector`, whatever their coordinates.
    """

    _fields = ("coords", "sum_zero")
    sum_zero: bool

    def __init__(self, coords: Sequence[float], sum_zero: bool = False) -> None:
        super().__init__(coords)
        self.__dict__["sum_zero"] = sum_zero
        self.__post_init__()

    def __post_init__(self) -> None:
        # A method of its own so that a profiler can wrap every check.
        sum_zero = check_flag(self.sum_zero, "sum_zero")
        try:
            nsq = self.norm_squared()
        except OverflowError:  # fsum's partial sums passed the largest float
            nsq = math.inf
        if abs(nsq - 1.0) > UNIT_NORM_TOL:
            raise PreconditionError(
                f"direction must be a unit vector, got squared norm {nsq!r}"
            )
        if sum_zero and abs(self.coordinate_sum()) > SUM_ZERO_TOL:
            raise PreconditionError(
                "direction flagged sum-zero has a nonzero coordinate sum"
            )


class PointSet(Frozen):
    """Nonempty list of points sharing one ambient dimension.

    Duplicate points are legal; they never change a projection width.

    A set is either its rows or, made by the vertex builders, c times
    the identity of order n+1 (off-diagonals +0.0), which records only
    ``_order`` n and ``_scale`` c. ``dim`` and ``len`` read n, and the
    rows are built when first read, so a built set equals, hashes and
    prints as the set of its rows. A set given as rows keeps the class
    ``_scale`` 0.0, whatever its rows are.
    """

    _fields = ("points",)
    _scale = 0.0

    def __init__(self, points: tuple[Vector, ...]) -> None:
        points = tuple(points)
        if len(points) == 0:
            raise ValueError("a point set must be nonempty")
        dims = {check_type(p, Vector, "point set member").dim for p in points}
        if len(dims) > 1:
            raise DimensionError("all points must share one dimension")
        self.__dict__["points"] = points

    @cached_property
    def points(self) -> tuple[Vector, ...]:
        # Reached only by a set made by `_scaled_identity`: __init__ stores
        # the rows of every set given as rows.
        dim, c = self._order + 1, self._scale
        rows = []
        for i in range(dim):
            coords = [0.0] * dim
            coords[i] = c
            rows.append(Vector(coords))
        return tuple(rows)

    @property
    def dim(self) -> int:
        return self._order + 1 if self._scale else self.points[0].dim

    def __len__(self) -> int:
        return self._order + 1 if self._scale else len(self.points)

    def __iter__(self):
        return iter(self.points)


# The package's argument rule: an integer, real number, seed or flag of the
# wrong type or out of range raises ValueError (DimensionError for orders and
# dimensions); an index of the right type that is out of range raises
# IndexError; an object argument of the wrong class raises TypeError.


def _shown(value: object) -> str:
    """``repr(value)``, or the bit length of an int past the int-to-str
    digit limit, whose repr raises ValueError in place of the rule's error."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to show"


def check_type(value: object, cls: type, name: str):
    """Return ``value`` if it is a ``cls``; raise TypeError otherwise."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_int(
    value: int,
    name: str,
    lo: int = 1,
    hi: int | None = None,
    error: type[Exception] = ValueError,
) -> int:
    """Return ``value`` if it is an int, not a bool, in lo..hi (no upper
    bound when hi is None). Otherwise raise ``error``, except that a value
    of another type raises ValueError when ``error`` is not a ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        wrong_type = error if issubclass(error, ValueError) else ValueError
        raise wrong_type(f"{name} must be an integer, got {_shown(value)}")
    if value < lo or hi is not None and value > hi:
        bounds = f"{lo}..{'' if hi is None else hi}"
        raise error(f"{name} must be in {bounds}, got {_shown(value)}")
    return value


def check_flag(value: bool, name: str) -> bool:
    """Return ``value`` if it is a bool; raise ValueError otherwise."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {_shown(value)}")
    return value


def check_real(value: float, name: str) -> float:
    """Return ``value`` as a float if it is an int or a float, not a bool,
    and finite as a float; raise ValueError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(x):
                return x
    raise ValueError(f"{name} must be a finite real number, got {_shown(value)}")


def check_order(n: int, cap: int = MAX_ORDER) -> None:
    """Raise DimensionError unless n is an int (not a bool) in 1..cap."""
    check_int(n, "simplex order", 1, cap, DimensionError)


def _scaled_identity(n: int, c: float) -> PointSet:
    """c times the identity of order n+1, off-diagonals +0.0, as a set
    that stores n and c and builds its rows when they are first read."""
    check_order(n, VERTEX_MAX_ORDER)
    points = PointSet.__new__(PointSet)
    points.__dict__.update(_order=n, _scale=c)
    return points


def standard_simplex_vertices(n: int) -> PointSet:
    """Vertices of the basis-vector n-simplex: e_1, ..., e_{n+1} in R^{n+1}.

    All pairwise distances are sqrt(2), and every vertex lies on the
    hyperplane where the coordinates sum to 1. Orders above
    VERTEX_MAX_ORDER raise DimensionError before anything is built.
    """
    return _scaled_identity(n, 1.0)


def regular_simplex_vertices(n: int) -> PointSet:
    """Vertices of the unit-edge n-simplex, embedded in R^{n+1}.

    The basis-vector simplex scaled by 1/sqrt(2); pairwise distances 1.
    Orders above VERTEX_MAX_ORDER raise DimensionError.
    """
    return _scaled_identity(n, 1.0 / math.sqrt(2.0))


def projection_width(u: Direction, points: PointSet) -> float:
    """Spread of the point set's dot products with ``u``: max minus min."""
    check_type(u, Direction, "u")
    if u.dim != check_type(points, PointSet, "points").dim:
        raise DimensionError(
            f"dimension mismatch: direction {u.dim} vs points {points.dim}"
        )
    dots = [math.fsum(map(mul, u.coords, p.coords)) for p in points]
    return max(dots) - min(dots)


def distance(a: Vector, b: Vector) -> float:
    """Euclidean distance; no squared difference overflows or underflows."""
    if check_type(a, Vector, "a").dim != check_type(b, Vector, "b").dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return math.dist(a.coords, b.coords)
