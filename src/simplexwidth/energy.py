"""Mean-centering energy of coordinate vectors.

The energy of v is the squared norm of v after subtracting its
coordinate mean, which is also the minimum 1-mean clustering cost of
the numbers v_1, ..., v_d. Moving any single coordinate strictly away
from the mean strictly increases the energy; `energy_push` makes that
statement executable. The rounding step that exploits it, clamping
every coordinate of a direction to its own extremes, is the two-value
snap of `optimizer.minimize_width`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geometry import (
    DimensionError,
    Frozen,
    PreconditionError,
    Vector,
    check_flag,
    check_int,
    check_real,
    check_type,
)

# Relative gap certifying a strict energy increase in floating point.
ENERGY_REL_TOL = 1e-12


class EnergyReport(Frozen):
    """Mean, mean-centered vector, and energy of ``v``, computed from it."""

    _fields = ("mean", "centered", "energy")
    mean: float
    centered: Vector
    energy: float

    def __init__(self, v: Vector) -> None:
        mean = math.fsum(check_type(v, Vector, "v").coords) / v.dim
        centered = Vector([c - mean for c in v.coords])
        energy = centered.norm_squared()
        self.__dict__.update(mean=mean, centered=centered, energy=energy)


def _scaled_energy(coords: tuple[float, ...]) -> Fraction:
    """d times the energy, exactly: d·Σq² − (Σq)² over the coordinates'
    binary values q, summed as integers over their common denominator."""
    ratios = [c.as_integer_ratio() for c in coords]
    den = math.lcm(*[b for _, b in ratios])
    q = [a * (den // b) for a, b in ratios]
    return Fraction(len(q) * sum([x * x for x in q]) - sum(q) ** 2, den * den)


def energy_push(
    v: Vector, i: int, new_value: float, exact: bool = False
) -> tuple[EnergyReport, EnergyReport, bool]:
    """Replace coordinate i with a value strictly farther from the mean
    and report both energies plus the verdict "energy increased".

    Hypothesis, checked before doing anything: v has d >= 2 coordinates
    (one coordinate always has energy 0; d = 1 raises DimensionError),
    and either new_value > v_i >= mean(v), or new_value < v_i < mean(v).
    Violations raise PreconditionError; under the hypothesis the verdict
    is always True.

    With ``exact=True`` the hypothesis and the verdict are evaluated in
    exact rational arithmetic over the binary values of the inputs;
    otherwise the verdict requires a relative float gap of
    ENERGY_REL_TOL to rule out rounding false positives.
    """
    dim = check_type(v, Vector, "v").dim
    check_int(dim, "vector dimension", 2, error=DimensionError)
    check_int(i, "coordinate index", 0, dim - 1, IndexError)
    new_value = check_real(new_value, "new coordinate value")
    check_flag(exact, "exact")

    before = EnergyReport(v)
    if exact:
        q = [Fraction(c) for c in v.coords]
        mean, vi, nv = sum(q) / dim, q[i], Fraction(new_value)
    else:
        mean, vi, nv = before.mean, v.coords[i], new_value
    if not (nv > vi >= mean or nv < vi < mean):
        raise PreconditionError(
            "coordinate must start on or beyond the mean and move strictly "
            "away from it (upward case requires v_i >= mean, downward case "
            "requires v_i < mean strictly)"
        )

    moved = list(v.coords)
    moved[i] = new_value
    u = Vector(moved)
    after = EnergyReport(u)

    if exact:
        increased = _scaled_energy(u.coords) > _scaled_energy(v.coords)
    else:
        gap = after.energy - before.energy
        increased = gap > ENERGY_REL_TOL * max(1.0, before.energy)
    return before, after, increased
