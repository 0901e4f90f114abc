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
from dataclasses import dataclass
from fractions import Fraction

from .geometry import PreconditionError, Vector

# Relative gap certifying a strict energy increase in floating point.
ENERGY_REL_TOL = 1e-12


@dataclass(frozen=True)
class EnergyReport:
    """Mean, mean-centered vector, and energy of one input vector."""

    mean: float
    centered: Vector
    energy: float

    def __post_init__(self) -> None:
        dim = self.centered.dim
        if abs(self.centered.coordinate_sum()) > 1e-12 * dim:
            raise ValueError("centered vector must have coordinate sum zero")
        nsq = self.centered.norm_squared()
        if abs(self.energy - nsq) > 1e-12 * max(1.0, nsq):
            raise ValueError("energy must equal the squared centered norm")


def center_vector(v: Vector) -> EnergyReport:
    """Subtract the coordinate mean and report the resulting energy."""
    mean = math.fsum(v.coords) / v.dim
    centered = Vector(tuple(c - mean for c in v.coords))
    return EnergyReport(mean=mean, centered=centered, energy=centered.norm_squared())


def _energy_exact(coords: tuple[float, ...]) -> Fraction:
    exact = [Fraction(c) for c in coords]
    mean = sum(exact) / len(exact)
    return sum((c - mean) ** 2 for c in exact)


def energy_push(
    v: Vector, i: int, new_value: float, exact: bool = False
) -> tuple[EnergyReport, EnergyReport, bool]:
    """Replace coordinate i with a value strictly farther from the mean
    and report both energies plus the verdict "energy increased".

    Hypothesis, checked before doing anything: either
    new_value > v_i >= mean(v), or new_value < v_i < mean(v).
    Violations raise PreconditionError; under the hypothesis the verdict
    is always True.

    With ``exact=True`` the hypothesis and the verdict are evaluated in
    exact rational arithmetic over the binary values of the inputs;
    otherwise the verdict requires a relative float gap of
    ENERGY_REL_TOL to rule out rounding false positives.
    """
    if not 0 <= i < v.dim:
        raise IndexError(f"coordinate index {i} out of range for dimension {v.dim}")
    new_value = float(new_value)
    if not math.isfinite(new_value):
        raise ValueError("new coordinate value must be finite")

    before = center_vector(v)

    if exact:
        exact_coords = [Fraction(c) for c in v.coords]
        mean = sum(exact_coords) / len(exact_coords)
        vi = exact_coords[i]
        nv = Fraction(new_value)
        hypothesis = (nv > vi >= mean) or (nv < vi < mean)
    else:
        vi_f = v.coords[i]
        hypothesis = (new_value > vi_f >= before.mean) or (
            new_value < vi_f < before.mean
        )
    if not hypothesis:
        raise PreconditionError(
            "coordinate must start on or beyond the mean and move strictly "
            "away from it (upward case requires v_i >= mean, downward case "
            "requires v_i < mean strictly)"
        )

    moved = list(v.coords)
    moved[i] = new_value
    u = Vector(tuple(moved))
    after = center_vector(u)

    if exact:
        increased = _energy_exact(u.coords) > _energy_exact(v.coords)
    else:
        gap = after.energy - before.energy
        increased = gap > ENERGY_REL_TOL * max(1.0, before.energy)
    return before, after, increased

