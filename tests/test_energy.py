"""Mean-centering energy and the strict-growth property of outward moves."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwidth.energy import EnergyReport, center_vector, energy_push
from simplexwidth.geometry import PreconditionError, Vector
from simplexwidth.optimizer import _snap


def test_center_vector_basic():
    rep = center_vector(Vector((1.0, 2.0, 3.0)))
    assert rep.mean == 2.0
    assert rep.centered.coords == (-1.0, 0.0, 1.0)
    assert rep.energy == 2.0


def test_center_vector_fixed_points():
    rep = center_vector(Vector((1.0, -1.0)))
    assert rep.mean == 0.0
    assert rep.centered.coords == (1.0, -1.0)
    assert rep.energy == 2.0
    assert center_vector(Vector((4.0, 4.0, 4.0))).energy == 0.0


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=12),
    st.floats(-20.0, 20.0),
    st.floats(-4.0, 4.0),
)
def test_energy_translation_and_scaling(coords, shift, scale):
    base = center_vector(Vector(tuple(coords))).energy
    shifted = center_vector(Vector(tuple(x + shift for x in coords))).energy
    assert shifted == pytest.approx(base, abs=1e-9)
    scaled = center_vector(Vector(tuple(scale * x for x in coords))).energy
    assert scaled == pytest.approx(scale * scale * base, rel=1e-9, abs=1e-9)


def test_energy_report_validates_itself():
    with pytest.raises(ValueError):
        EnergyReport(mean=0.0, centered=Vector((1.0, 1.0)), energy=2.0)
    with pytest.raises(ValueError):
        EnergyReport(mean=0.0, centered=Vector((1.0, -1.0)), energy=3.0)


def test_push_upward_from_mean():
    before, after, increased = energy_push(Vector((0.0, 0.0)), 0, 1.0)
    assert before.energy == 0.0
    assert after.energy == pytest.approx(0.5, abs=1e-15)
    assert increased


def test_push_downward_below_mean():
    # v_0 = 0 sits strictly below the mean 1; pushing it further down
    before, after, increased = energy_push(Vector((0.0, 2.0)), 0, -1.0)
    assert before.energy == 2.0
    assert after.energy == pytest.approx(4.5, abs=1e-12)
    assert increased


def test_exact_increment_identity():
    # moving coordinate i outward by delta from distance a to the mean
    # raises the energy by exactly delta^2 * (d-1)/d + 2*a*delta
    v = Vector((1.0, 5.0, 6.0))  # mean 4, d = 3
    before, after, increased = energy_push(v, 0, -2.0, exact=True)
    a, delta, d = 3.0, 3.0, 3
    expected = delta**2 * (d - 1) / d + 2 * a * delta
    assert after.energy - before.energy == pytest.approx(expected, rel=1e-12)
    assert increased


def test_push_mirrored_spot_values():
    # raising the top coordinate of (0,1,2) by 1 and lowering the bottom
    # coordinate of (-1,0,1) by 1 both land at energy 14/3
    _, after_up, up = energy_push(Vector((0.0, 1.0, 2.0)), 2, 3.0)
    _, after_down, down = energy_push(Vector((-1.0, 0.0, 1.0)), 0, -2.0)
    assert after_up.energy == pytest.approx(14.0 / 3.0, rel=1e-14)
    assert after_down.energy == pytest.approx(14.0 / 3.0, rel=1e-14)
    assert up and down


def test_hypothesis_rejections():
    # moving toward the mean
    with pytest.raises(PreconditionError):
        energy_push(Vector((0.0, 2.0)), 0, 0.5)
    # downward from the mean itself is outside the stated hypothesis
    with pytest.raises(PreconditionError):
        energy_push(Vector((1.0, 1.0)), 0, 0.0)
    # no move at all
    with pytest.raises(PreconditionError):
        energy_push(Vector((1.0, 1.0)), 0, 1.0)


def test_upward_from_exact_mean_is_allowed():
    before, after, increased = energy_push(Vector((1.0, 1.0)), 0, 2.0)
    assert increased
    assert after.energy > before.energy


def test_index_and_value_validation():
    with pytest.raises(IndexError):
        energy_push(Vector((1.0, 2.0)), 2, 5.0)
    with pytest.raises(IndexError):
        energy_push(Vector((1.0, 2.0)), -1, 5.0)
    with pytest.raises(ValueError):
        energy_push(Vector((1.0, 2.0)), 0, math.nan)


def test_exact_mode_sees_sub_ulp_moves():
    v = Vector((0.0, 0.0))
    # the float verdict gap cannot certify a 1e-300 move, exact mode can
    _, _, increased_exact = energy_push(v, 0, 1e-300, exact=True)
    _, _, increased_float = energy_push(v, 0, 1e-300, exact=False)
    assert increased_exact
    assert not increased_float


def test_exact_mode_hypothesis_uses_rationals():
    # 0.1 + 0.2 > 0.3 in binary; the exact route must agree with the
    # binary values, not the decimal literals
    v = Vector((0.1, 0.2, 0.3))
    before, after, increased = energy_push(v, 2, 1.0, exact=True)
    assert increased


coord_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=20,
)


@settings(max_examples=200)
@given(coord_lists, st.data())
def test_outward_moves_always_increase_energy(coords, data):
    v = Vector(tuple(coords))
    i = data.draw(st.integers(min_value=0, max_value=v.dim - 1))
    delta = data.draw(st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    mean = math.fsum(v.coords) / v.dim
    if v.coords[i] >= mean:
        new_value = v.coords[i] + delta
    else:
        new_value = v.coords[i] - delta
    before, after, increased = energy_push(v, i, new_value)
    assert increased
    assert after.energy > before.energy


@settings(max_examples=300)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_clamping_unit_sum_zero_never_loses_energy(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    z -= z.mean()
    norm = np.linalg.norm(z)
    if norm < 1e-9:
        return
    z /= norm
    # the snap clamps z to its extremes, re-centers and renormalizes; on
    # the standard simplex its width is spread(z) over the norm of the
    # centered clamp, so "norm^2 >= 1" reads as "the width never grows"
    spread = z.max() - z.min()
    _, snapped_w = _snap(z[None, :], np.array([np.inf]), np.eye(dim), 1.0, True)
    assert snapped_w[0] <= spread / math.sqrt(1.0 - 1e-12)
    displacement = np.where(z < 0, z - z.min(), z.max() - z).sum()
    if displacement > 1e-6:
        assert snapped_w[0] < spread
