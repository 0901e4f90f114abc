"""Mean-centering energy and the strict-growth property of outward moves."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwidth.energy import EnergyReport, _scaled_energy, energy_push
from simplexwidth.geometry import PreconditionError, Vector
from simplexwidth.optimizer import _snap


def test_center_vector_basic():
    rep = EnergyReport(Vector((1.0, 2.0, 3.0)))
    assert rep.mean == 2.0
    assert rep.centered.coords == (-1.0, 0.0, 1.0)
    assert rep.energy == 2.0


@given(
    st.lists(
        st.one_of(st.floats(min_value=-100.0, max_value=100.0), st.just(-0.0)),
        min_size=1,
        max_size=50,
    )
)
def test_center_vector_matches_the_generator_spelling_bit_for_bit(coords):
    v = Vector(coords)
    mean = math.fsum(v.coords) / v.dim
    centered = tuple(map(float, tuple(c - mean for c in v.coords)))
    got = EnergyReport(v).centered.coords
    assert [c.hex() for c in got] == [c.hex() for c in centered]


def test_center_vector_fixed_points():
    rep = EnergyReport(Vector((1.0, -1.0)))
    assert rep.mean == 0.0
    assert rep.centered.coords == (1.0, -1.0)
    assert rep.energy == 2.0
    assert EnergyReport(Vector((4.0, 4.0, 4.0))).energy == 0.0


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=12),
    st.floats(-20.0, 20.0),
    st.floats(-4.0, 4.0),
)
def test_energy_translation_and_scaling(coords, shift, scale):
    base = EnergyReport(Vector(tuple(coords))).energy
    shifted = EnergyReport(Vector(tuple(x + shift for x in coords))).energy
    assert shifted == pytest.approx(base, abs=1e-9)
    scaled = EnergyReport(Vector(tuple(scale * x for x in coords))).energy
    assert scaled == pytest.approx(scale * scale * base, rel=1e-9, abs=1e-9)


def test_large_coordinates_center_and_push():
    # the coordinate sum after centering is about 3.6e-12 here, and
    # centering must not hold it to an absolute tolerance
    v = Vector((0.0, 0.0, 26603.0))
    rep = EnergyReport(v)
    assert rep.mean == math.fsum(v.coords) / 3
    before, after, increased = energy_push(v, 2, 30000.0)
    assert before.energy == rep.energy
    assert increased


@given(st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=60))
def test_center_vector_accepts_large_coordinates(coords):
    # the rounding error of the centered sum grows with the coordinates'
    # magnitude; centering accepts it, and the exact verdict is unaffected
    v = Vector(coords)
    rep = EnergyReport(v)
    assert rep.energy == rep.centered.norm_squared()
    top = max(range(v.dim), key=v.coords.__getitem__)
    new_value = v.coords[top] + max(1.0, abs(v.coords[top]))
    _, after, increased = energy_push(v, top, new_value, exact=True)
    assert increased
    assert after.energy >= rep.energy


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


@pytest.mark.parametrize("i", [1.5, True, "0"])
def test_index_must_be_an_int(i):
    # the package's integer rule: an int that is not a bool; (0, 2) lets
    # True (as coordinate 1) satisfy the hypothesis if it were accepted
    with pytest.raises(ValueError, match="must be an int"):
        energy_push(Vector((0.0, 2.0)), i, 3.0)


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


def _mean_form_energy(coords):
    # the reference: the energy as written in the definition, sum of
    # (q - mean)^2 over the exact binary values q
    exact = [Fraction(c) for c in coords]
    mean = sum(exact) / len(exact)
    return sum((c - mean) ** 2 for c in exact)


# subnormal up to 1e12 in one vector; the first range holds the subnormals
_magnitudes = st.one_of(st.floats(-1e-300, 1e-300), st.floats(-1e12, 1e12))


@settings(max_examples=300)
@given(st.lists(_magnitudes, min_size=2, max_size=50), _magnitudes, st.data())
def test_integer_form_energy_is_d_times_the_mean_form(coords, new_value, data):
    v = Vector(coords)
    assert _scaled_energy(v.coords) == v.dim * _mean_form_energy(v.coords)

    i = data.draw(st.integers(0, v.dim - 1))
    moved = list(v.coords)
    moved[i] = new_value
    growth = _mean_form_energy(moved) - _mean_form_energy(v.coords)
    mean, vi = sum(map(Fraction, v.coords)) / v.dim, Fraction(v.coords[i])
    if new_value > vi >= mean or new_value < vi < mean:
        assert energy_push(v, i, new_value, exact=True)[2] == (growth > 0)
    else:
        with pytest.raises(PreconditionError):
            energy_push(v, i, new_value, exact=True)


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
    _, snapped_w = _snap(z[None, :], np.array([np.inf]), None, 1.0, True)
    assert snapped_w[0] <= spread / math.sqrt(1.0 - 1e-12)
    displacement = np.where(z < 0, z - z.min(), z.max() - z).sum()
    if displacement > 1e-6:
        assert snapped_w[0] < spread
