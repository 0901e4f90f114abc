"""The public namespace of the package and its immutable value classes."""

import ast
import copy
import math
import pickle
import re
from decimal import Decimal
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import simplexwidth
from simplexwidth.cli import table_rows
from simplexwidth.closed_form import SimplexKind, width_squared
from simplexwidth.directions import (
    is_optimal_direction,
    make_two_value_direction,
    optimal_low_sets,
)
from simplexwidth.energy import energy_push
from simplexwidth.geometry import (
    DimensionError,
    Direction,
    PointSet,
    Vector,
    distance,
    projection_width,
    standard_simplex_vertices,
)
from simplexwidth.optimizer import (
    OptimizerConfig,
    WidthResult,
    minimize_width,
)
from simplexwidth.verification import (
    CheckResult,
    check_direction_families,
    check_exact_identities,
    check_optimizer_agreement,
    check_radii_distances,
    derive_seed,
    energy_fuzz,
    run_all_checks,
)


def test_public_names_resolve_once():
    names = simplexwidth.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(simplexwidth, name), name
    # `from simplexwidth import *` binds every public name but the submodules
    public = [
        name
        for name, value in vars(simplexwidth).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(names) == sorted(public)


def test_readme_python_blocks_run():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


_PACKAGE = Path(simplexwidth.__file__).parent


@pytest.mark.parametrize(
    "path",
    sorted(_PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: p.name if p.parent == _PACKAGE else f"tests/{p.name}",
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    if path == _PACKAGE / "__init__.py":
        # the package imports to export: a name is used if `__all__` lists it
        used = set(simplexwidth.__all__)
    else:
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    assert sorted(imported - used) == []


_UNIT = (0.6, 0.8)

# (class, the shortest positional call, every argument by keyword with
# the defaults spelled out, its repr, one argument and another value for
# it).
VALUE_CASES = [
    (
        Vector,
        ((0.6, 0.8),),
        {"coords": (0.6, 0.8)},
        "Vector(coords=(0.6, 0.8))",
        ("coords", (0.8, 0.6)),
    ),
    (
        Direction,
        (_UNIT,),
        {"coords": _UNIT, "sum_zero": False},
        "Direction(coords=(0.6, 0.8), sum_zero=False)",
        ("coords", (0.8, 0.6)),
    ),
    (
        PointSet,
        ((Vector((1.0, 0.0)), Vector((0.0, 1.0))),),
        {"points": (Vector((1.0, 0.0)), Vector((0.0, 1.0)))},
        "PointSet(points=(Vector(coords=(1.0, 0.0)), Vector(coords=(0.0, 1.0))))",
        ("points", (Vector((1.0, 0.0)),)),
    ),
    (
        OptimizerConfig,
        (),
        {
            "restarts": 64,
            "max_iters": 10_000,
            "tol": 1e-10,
            "seed": 0,
            "constrain_sum_zero": False,
        },
        "OptimizerConfig(restarts=64, max_iters=10000, tol=1e-10, seed=0, "
        "constrain_sum_zero=False)",
        ("seed", 1),
    ),
    (
        WidthResult,
        (0.5, Direction(_UNIT), 3, True),
        {
            "width": 0.5,
            "direction": Direction(_UNIT),
            "iterations": 3,
            "converged": True,
        },
        "WidthResult(width=0.5, direction=Direction(coords=(0.6, 0.8), sum_zero=False), "
        "iterations=3, converged=True)",
        ("converged", False),
    ),
    (
        CheckResult,
        ("x", True, "ok"),
        {"name": "x", "passed": True, "detail": "ok"},
        "CheckResult(name='x', passed=True, detail='ok')",
        ("passed", False),
    ),
]


@pytest.mark.parametrize(
    "cls,args,kwargs,text,change",
    VALUE_CASES,
    ids=[case[0].__name__ for case in VALUE_CASES],
)
def test_value_classes_are_immutable_values(cls, args, kwargs, text, change):
    value = cls(**kwargs)
    assert cls(*args) == value
    assert cls(*kwargs.values()) == value
    assert hash(cls(*args)) == hash(value)
    assert repr(value) == text

    name, other = change
    assert cls(**{**kwargs, name: other}) != value
    subclass = type(cls.__name__, (cls,), {})
    assert subclass(**kwargs) != value and value != subclass(**kwargs)
    assert value != value._values()

    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text

    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def _first_table_row(*args):
    # table_rows is a generator: its checks run at the first row
    return next(table_rows(*args))


# (entry point, a call with one bad argument, the class the argument rule
# gives it): a scalar of the wrong type or out of range raises ValueError,
# DimensionError for an order; an argument that must be a value class,
# TypeError
BAD_ARGUMENTS = [
    (run_all_checks, (0, 0), DimensionError),
    (make_two_value_direction, (3, [0, 1.5]), ValueError),
    (make_two_value_direction, (3, [0, True]), ValueError),
    (make_two_value_direction, (3, [0, "1"]), ValueError),
    # the order is checked before it bounds the indices
    (make_two_value_direction, ("3", [0]), DimensionError),
    # the order is checked before it is compared with the enumeration cap
    (optimal_low_sets, ("3",), DimensionError),
    (derive_seed, (True, 1), ValueError),
    (derive_seed, (2**64, 1), ValueError),
    (derive_seed, (0, True), ValueError),
    (energy_fuzz, (1, True), ValueError),
    (OptimizerConfig, (64, 10_000, "1"), ValueError),
    (OptimizerConfig, (64, 10_000, True), ValueError),
    (is_optimal_direction, (1, _UNIT), TypeError),
    (minimize_width, (((1.0, 0.0),), OptimizerConfig()), TypeError),
    (minimize_width, (standard_simplex_vertices(2), None), TypeError),
    (energy_push, ((1.0, 2.0), 0, 3.0), TypeError),
    (projection_width, ((1.0, 0.0), standard_simplex_vertices(1)), TypeError),
    # a Direction is a Vector, but a plain Vector is not a direction
    (projection_width, (Vector((1.0, 0.0)), standard_simplex_vertices(1)), TypeError),
    (projection_width, (Direction(_UNIT), ((0.0, 0.0),)), TypeError),
    (distance, ((1.0,), Vector((1.0,))), TypeError),
    (check_exact_identities, (0,), DimensionError),
    (check_radii_distances, (-3,), DimensionError),
    (check_direction_families, (0,), DimensionError),
    (check_optimizer_agreement, (0, 0), DimensionError),
    (is_optimal_direction, (0, Direction((1.0,))), DimensionError),
    (energy_push, (Vector((1.0,)), 0, 2.0), DimensionError),
    # "no" is truthy, and float() accepts "3", b"3", bytearray(b"3") and
    # True: each call would run at (0, 0), i = 0, and return
    (energy_push, (Vector((0.0, 0.0)), 0, 1e-300, "no"), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, "3"), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, b"3"), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, bytearray(b"3")), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, True), ValueError),
    # a real number is an int or a float: float() accepts Decimal("3") and
    # raises TypeError on None, 1+0j and [3.0], OverflowError on 10**400
    (energy_push, (Vector((0.0, 0.0)), 0, None), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, 1 + 0j), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, [3.0]), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, Decimal("3")), ValueError),
    (energy_push, (Vector((0.0, 0.0)), 0, 10**400), ValueError),
    # float() raises OverflowError on an int coordinate too large for a float
    (Vector, ([10**400],), ValueError),
    (Direction, ([10**400, 0.0],), ValueError),
    # a coordinate is a real number: float() accepts "1", b"1" and True, and
    # raises TypeError on None
    (Vector, (["1", "0"],), ValueError),
    (Vector, ([b"1"],), ValueError),
    (Vector, ([True, False],), ValueError),
    (Vector, ([None],), ValueError),
    (Direction, ([True, False],), ValueError),
    (Direction, (["0.6", "0.8"],), ValueError),
    # a numpy integer scalar is not an int; .tolist() makes it one
    (Vector, (np.arange(3),), ValueError),
    (OptimizerConfig, (64, 10_000, math.inf), ValueError),
    # "no" is truthy: the row would run the optimizer and add its columns
    (_first_table_row, (1, "no", 0, 1), ValueError),
    # the kind's value in place of the kind
    (width_squared, (5, "regular"), TypeError),
    # an int past the int-to-str digit limit, out of range: repr refuses
    # it with ValueError, so the message shows its bit length instead
    (width_squared, (10**5000, SimplexKind.STANDARD), DimensionError),
    (make_two_value_direction, (3, [10**5000]), IndexError),
    (energy_push, (Vector((0.0, 0.0)), 10**5000, 1.0), IndexError),
    # of the wrong type, in a list that repr refuses for the same reason
    (width_squared, ([10**5000], SimplexKind.STANDARD), DimensionError),
]


@pytest.mark.parametrize(
    "entry,args,error",
    BAD_ARGUMENTS,
    ids=[
        "run_all_checks-max_n-0",
        "low_set-index-float",
        "low_set-index-bool",
        "low_set-index-str",
        "make_two_value_direction-order-str",
        "optimal_low_sets-order-str",
        "derive_seed-bool",
        "derive_seed-2**64",
        "derive_seed-key-bool",
        "energy_fuzz-seed-bool",
        "config-tol-str",
        "config-tol-bool",
        "is_optimal_direction-tuple",
        "minimize_width-points-tuple",
        "minimize_width-cfg-none",
        "energy_push-tuple",
        "projection_width-u-tuple",
        "projection_width-u-vector",
        "projection_width-points-tuple",
        "distance-tuple",
        "check_exact_identities-max_n-0",
        "check_radii_distances-max_n-negative",
        "check_direction_families-max_n-0",
        "check_optimizer_agreement-max_n-0",
        "is_optimal_direction-order-0",
        "energy_push-one-coordinate",
        "energy_push-exact-str",
        "energy_push-new_value-str",
        "energy_push-new_value-bytes",
        "energy_push-new_value-bytearray",
        "energy_push-new_value-bool",
        "energy_push-new_value-none",
        "energy_push-new_value-complex",
        "energy_push-new_value-list",
        "energy_push-new_value-decimal",
        "energy_push-new_value-int-overflow",
        "vector-coordinate-int-overflow",
        "direction-coordinate-int-overflow",
        "vector-coordinate-str",
        "vector-coordinate-bytes",
        "vector-coordinate-bool",
        "vector-coordinate-none",
        "direction-coordinate-bool",
        "direction-coordinate-str",
        "vector-coordinate-numpy-int",
        "config-tol-inf",
        "table_rows-include_numeric-str",
        "width_squared-kind-str",
        "width_squared-order-huge-int",
        "low_set-index-huge-int",
        "energy_push-index-huge-int",
        "width_squared-order-list-of-huge-int",
    ],
)
def test_bad_arguments_raise_by_the_rule(entry, args, error):
    with pytest.raises(error) as info:
        entry(*args)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "entry,args,name",
    [
        (Vector, ([10**5000],), "vector coordinate"),
        (derive_seed, (10**5000, 1), "seed"),
        (energy_push, (Vector((0.0, 0.0)), 0, 1.0, 10**5000), "exact"),
    ],
    ids=["vector-coordinate", "derive_seed-seed", "energy_push-exact"],
)
def test_an_int_too_long_to_print_shows_its_bit_length(entry, args, name):
    with pytest.raises(ValueError) as info:
        entry(*args)
    assert str(info.value).startswith(f"{name} must be")
    assert str(info.value).endswith(f"got an int of {(10**5000).bit_length()} bits")
