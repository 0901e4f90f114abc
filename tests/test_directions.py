"""Optimal direction families and the membership test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwidth.closed_form import SimplexKind, alpha_beta, width_for_t, width_squared
from simplexwidth.directions import (
    ENUMERATION_CAP,
    enumerate_optimal_directions,
    is_optimal_direction,
    make_two_value_direction,
    optimal_low_sets,
    optimal_t,
)
from simplexwidth.geometry import (
    DimensionError,
    Direction,
    PreconditionError,
    projection_width,
    standard_simplex_vertices,
)

from grid_oracle import family_offsets


def negated(d):
    return Direction([-c for c in d.coords], d.sum_zero)


@pytest.mark.parametrize("n,t", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (10, 5)])
def test_optimal_t(n, t):
    assert optimal_t(n) == t


def test_optimal_t_validates_order():
    with pytest.raises(DimensionError):
        optimal_t(0)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_optimal_t_rejects_non_integers(n):
    with pytest.raises(DimensionError):
        optimal_t(n)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 3), (3, 6), (4, 10), (5, 20)])
def test_family_sizes(n, count):
    assert len(enumerate_optimal_directions(n)) == count


def test_family_for_segment():
    s = math.sqrt(0.5)
    coords = {d.coords for d in enumerate_optimal_directions(1)}
    assert coords == {(-s, s), (s, -s)}


def test_odd_family_is_sign_vectors_and_negation_closed():
    family = {d.coords for d in enumerate_optimal_directions(3)}
    half = 0.5  # 1/sqrt(n+1) for n = 3
    for coords in family:
        assert all(abs(c) == half for c in coords)
        assert tuple(-c for c in coords) in family


def test_even_family_negations_accepted_but_not_enumerated():
    n = 4
    family = enumerate_optimal_directions(n)
    listed = {d.coords for d in family}
    for d in family:
        neg = negated(d)
        assert neg.coords not in listed  # t and n+1-t differ for even n
        assert is_optimal_direction(n, neg)


@pytest.mark.parametrize("n", range(1, 8))
def test_family_members_achieve_the_width(n):
    vertices = standard_simplex_vertices(n)
    target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
    for d in enumerate_optimal_directions(n):
        assert abs(projection_width(d, vertices) - target) <= 1e-12
        assert is_optimal_direction(n, d)


def test_enumeration_cap_and_order_validation():
    with pytest.raises(ValueError):
        enumerate_optimal_directions(ENUMERATION_CAP + 1)
    for bad in (0, 2.5, True):
        with pytest.raises(DimensionError):
            enumerate_optimal_directions(bad)
    # t, alpha and beta come from the closed forms at any valid order;
    # only the low sets, the enumeration, are capped
    assert optimal_t(ENUMERATION_CAP + 1) == (ENUMERATION_CAP + 2) // 2
    with pytest.raises(ValueError, match="capped"):
        optimal_low_sets(ENUMERATION_CAP + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, ENUMERATION_CAP])
def test_optimal_family_representative_and_low_sets(n):
    t = optimal_t(n)
    alpha, beta = alpha_beta(n, t)
    rep = make_two_value_direction(n, range(t))
    assert rep.coords == (alpha,) * t + (beta,) * (n + 1 - t)
    assert rep.sum_zero
    assert is_optimal_direction(n, rep)
    assert next(optimal_low_sets(n)) == tuple(range(t))
    assert sum(1 for _ in optimal_low_sets(n)) == math.comb(n + 1, t)
    if n <= 8:
        members = [
            tuple(alpha if i in low else beta for i in range(n + 1))
            for low in optimal_low_sets(n)
        ]
        assert members == [d.coords for d in enumerate_optimal_directions(n)]


def _count_direction_builds(monkeypatch):
    built = []
    original = Direction.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Direction, "__post_init__", counting)
    return built


def test_membership_builds_no_direction(monkeypatch):
    member = negated(make_two_value_direction(50, range(optimal_t(50))))
    built = _count_direction_builds(monkeypatch)
    assert is_optimal_direction(50, member)
    assert built == []


def test_make_two_value_direction_validation():
    # t is the low set's size, which must be 1..n: an empty or a full set
    # names no bipartition of the vertices
    with pytest.raises(ValueError):
        make_two_value_direction(3, frozenset())
    with pytest.raises(ValueError):
        make_two_value_direction(3, frozenset({0, 1, 2, 3}))
    with pytest.raises(IndexError):
        make_two_value_direction(3, frozenset({0, 4}))


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_two_value_direction_structure(n, data):
    # a nonempty proper subset, passed as a list with repeats: the
    # repeats name the same set
    low = frozenset(
        data.draw(
            st.sets(st.integers(min_value=0, max_value=n), min_size=1, max_size=n)
        )
    )
    repeats = data.draw(st.lists(st.sampled_from(sorted(low))))
    low_list = data.draw(st.permutations(sorted(low) + repeats))
    direction = make_two_value_direction(n, low_list)
    t = len(low)
    assert isinstance(direction, Direction)
    assert direction.sum_zero
    assert sum(c < 0 for c in direction.coords) == t
    a, b = alpha_beta(n, t)
    for i, c in enumerate(direction.coords):
        assert c == (a if i in low else b)
    w = projection_width(direction, standard_simplex_vertices(n))
    assert abs(w - math.sqrt(width_for_t(n, t))) <= 1e-12


def test_membership_rejects_generic_directions():
    rng = np.random.default_rng(7)
    n = 5
    rejected = 0
    for _ in range(20):
        z = rng.standard_normal(n + 1)
        z -= z.mean()
        z /= np.linalg.norm(z)
        rejected += not is_optimal_direction(n, Direction(z, sum_zero=True))
    assert rejected == 20


def test_membership_tolerance_boundary():
    n = 3
    d = enumerate_optimal_directions(n)[0]
    coords = np.array(d.coords)

    def perturb(eps):
        p = coords.copy()
        p[0] += eps
        p[1] -= eps  # keep the coordinate sum at zero
        p /= np.linalg.norm(p)
        return Direction(p, sum_zero=True)

    assert is_optimal_direction(n, perturb(1e-13))
    assert not is_optimal_direction(n, perturb(1e-6))


def test_membership_above_the_enumeration_cap():
    # the membership test reads t, alpha and beta from the closed forms,
    # which serve every valid order, not only enumerable ones
    n = 50
    member = make_two_value_direction(n, range(1, n + 1, 2))
    assert is_optimal_direction(n, member)
    assert is_optimal_direction(n, negated(member))
    coords = list(member.coords)
    coords[0] += 1e-6
    coords[1] -= 1e-6  # keep the coordinate sum at zero
    scale = 1.0 / math.sqrt(math.fsum(c * c for c in coords))
    off = Direction([scale * c for c in coords], sum_zero=True)
    assert not is_optimal_direction(n, off)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_orders_show_no_optimum_outside_the_family(n):
    # sampling evidence, at orders of both parities the dense grid cannot
    # reach, that the family and its negations are the only optima:
    # independent descents from 40 random starts; every run that attains
    # the width must sit in the family, up to sign
    from simplexwidth.optimizer import OptimizerConfig, minimize_width

    target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
    hits = 0
    for seed in range(40):
        cfg = OptimizerConfig(
            restarts=1, max_iters=2000, seed=seed, constrain_sum_zero=True
        )
        result = minimize_width(standard_simplex_vertices(n), cfg)
        if result.width <= target + 1e-9:
            hits += 1
            assert is_optimal_direction(n, result.direction)
    assert hits >= 10


def test_near_optimal_grid_directions_at_an_even_order_are_the_family_up_to_sign():
    # the even case of acceptance test 08: at n = 2 the family does not
    # hold its own negations, and every direction of a 100,000-angle
    # circle within 5e-3 of the width lies near a member or its negation
    near, worst = family_offsets(2, 100_000, slack=5e-3)
    assert near > 0
    assert worst <= 0.05


def test_membership_precondition_errors():
    n = 3
    half = math.sqrt(0.5)
    with pytest.raises(DimensionError):
        is_optimal_direction(n, Direction((half, -half), sum_zero=True))
    # unit but not sum-zero
    e1 = Direction((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(PreconditionError):
        is_optimal_direction(n, e1)
