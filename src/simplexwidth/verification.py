"""Cross-checks tying the exact formulas, direction families, energy
growth property, and numerical minimizer to one another.

Each check is a pure function of its arguments (including the seed), so
a verification run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .closed_form import (
    SimplexKind,
    alpha_beta_squared,
    center,
    circumdistance_squared,
    circumradius_squared,
    indistance_squared,
    inradius_squared,
    width_for_t,
    width_squared,
)
from .directions import (
    is_optimal_direction,
    make_two_value_direction,
    optimal_low_sets,
)
from .energy import energy_push
from .geometry import (
    MAX_SEED,
    Frozen,
    Vector,
    check_int,
    check_order,
    distance,
    projection_width,
    standard_simplex_vertices,
)
from .optimizer import OptimizerConfig, minimize_width, two_value_enumeration_width

# numpy is imported in the body of each function that uses it (see
# optimizer.py), so that importing this module does not load it.

EXACT_MAX_N = 64  # the battery's bound: no check runs past it, nor `verify`
RADII_MAX_N = 32
ODD_FAMILY_MAX_N = 11
OPTIMIZER_MAX_N = 12
FUZZ_TRIALS = 10_000


class CheckResult(Frozen):
    """Name, verdict and one-line detail of one verification check."""

    _fields = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail)


def _bound(max_n: int, cap: int) -> int:
    """``max_n`` checked as a simplex order, capped at a check's own bound."""
    check_order(max_n)
    return min(max_n, cap)


def derive_seed(seed: int, n: int) -> int:
    """Child seed from the run seed, keyed by one order ``n``."""
    check_int(seed, "seed", 0, MAX_SEED)
    check_int(n, "seed key", 0)
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=(n,)).generate_state(1)[0])


def check_exact_identities(max_n: int = EXACT_MAX_N) -> CheckResult:
    """Exact rational identities over n = 1..max_n.

    The library's widths and radii against this module's own copy of each
    formula: the parity formulas for the squared width, half of each for
    the regular simplex, and the four radii. Then the two-value sanity
    identity, the argmin-in-t characterization, strict monotone decrease
    in n, and the inball/width/circumball sandwich.
    """
    name = "exact-rational-identities"
    max_n = _bound(max_n, EXACT_MAX_N)
    previous_regular: Fraction | None = None
    for n in range(1, max_n + 1):
        std = width_squared(n, SimplexKind.STANDARD)
        reg = width_squared(n, SimplexKind.REGULAR)
        if n % 2 == 1:
            expected = Fraction(4, n + 1)
        else:
            expected = Fraction(4 * (n + 1), n * (n + 2))
        if std != expected:
            return CheckResult(name, False, f"parity formula mismatch at n={n}")
        if reg != expected / 2:
            return CheckResult(name, False, f"regular parity formula mismatch at n={n}")
        circumdistance = circumdistance_squared(n)
        indistance = indistance_squared(n)
        for radius, value, formula in (
            ("circumdistance", circumdistance, Fraction(n, n + 1)),
            ("indistance", indistance, Fraction(1, n * (n + 1))),
            ("circumradius", circumradius_squared(n), Fraction(n, 2 * (n + 1))),
            ("inradius", inradius_squared(n), Fraction(1, 2 * n * (n + 1))),
        ):
            if value != formula:
                return CheckResult(name, False, f"{radius} formula mismatch at n={n}")
        for t in range(1, n + 1):
            a_sq, b_sq = alpha_beta_squared(n, t)
            if t * a_sq + (n + 1 - t) * b_sq != 1:
                return CheckResult(
                    name, False, f"two-value sanity identity fails at n={n}, t={t}"
                )
        widths = [width_for_t(n, t) for t in range(1, n + 1)]
        if widths != widths[::-1]:
            return CheckResult(name, False, f"t symmetry fails at n={n}")
        minimum = min(widths)
        argmin = {t for t, w in enumerate(widths, 1) if w == minimum}
        if argmin != {(n + 1) // 2, (n + 2) // 2} or minimum != std:
            return CheckResult(name, False, f"t-argmin characterization fails at n={n}")
        if previous_regular is not None and not reg < previous_regular:
            return CheckResult(name, False, f"monotone decrease fails at n={n}")
        previous_regular = reg
        if not indistance <= std / 4 <= circumdistance:
            return CheckResult(name, False, f"radius sandwich fails at n={n}")
    return CheckResult(name, True, f"n=1..{max_n}: all identities hold exactly")


def check_radii_distances(max_n: int = RADII_MAX_N) -> CheckResult:
    """Center-to-vertex and center-to-facet-centroid distances against
    the closed forms, within 1e-14 on the squared values."""
    name = "radii-distances"
    max_n = _bound(max_n, RADII_MAX_N)
    for n in range(1, max_n + 1):
        c = center(n)
        vertices = standard_simplex_vertices(n)
        r_out = float(circumdistance_squared(n))
        r_in = float(indistance_squared(n))
        for j, vertex in enumerate(vertices):
            if abs(distance(c, vertex) ** 2 - r_out) > 1e-14:
                return CheckResult(name, False, f"vertex distance off at n={n}, j={j}")
            others = [p for k, p in enumerate(vertices) if k != j]
            centroid = Vector(
                [math.fsum(p.coords[i] for p in others) / n for i in range(n + 1)]
            )
            if abs(distance(c, centroid) ** 2 - r_in) > 1e-14:
                return CheckResult(name, False, f"facet distance off at n={n}, j={j}")
    return CheckResult(name, True, f"n=1..{max_n}: radii match within 1e-14")


def check_enumeration_oracle(max_n: int = EXACT_MAX_N) -> CheckResult:
    """Exact two-value enumeration reproduces the closed-form width."""
    name = "enumeration-oracle"
    max_n = _bound(max_n, EXACT_MAX_N)
    for n in range(1, max_n + 1):
        if two_value_enumeration_width(n) != width_squared(n, SimplexKind.STANDARD):
            return CheckResult(name, False, f"enumeration disagrees at n={n}")
    return CheckResult(name, True, f"n=1..{max_n}: enumeration exact")


def check_direction_families(max_n: int = ODD_FAMILY_MAX_N) -> CheckResult:
    """Every family member achieves the closed-form width on the standard
    simplex within 1e-12, with the right family size.

    The members are walked, not held: each is built from its low set just
    before it is projected, so the family is never a list.
    """
    name = "direction-families"
    max_n = _bound(max_n, ODD_FAMILY_MAX_N)
    for n in range(1, max_n + 1):
        size = sum(1 for _ in optimal_low_sets(n))
        expected_count = math.comb(n + 1, (n + 1) // 2)
        if size != expected_count:
            return CheckResult(
                name,
                False,
                f"family size {size} != C({n + 1},{(n + 1) // 2}) at n={n}",
            )
        vertices = standard_simplex_vertices(n)
        target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
        for low in optimal_low_sets(n):
            direction = make_two_value_direction(n, low)
            if abs(projection_width(direction, vertices) - target) > 1e-12:
                return CheckResult(name, False, f"achievement fails at n={n}")
    # the largest odd and even orders run; n = 1 runs no even order
    ran = f"odd n<={max_n - 1 + max_n % 2}"
    if max_n > 1:
        ran += f", even n<={max_n - max_n % 2}"
    return CheckResult(name, True, f"{ran}: families achieve the width")


def energy_fuzz(trials: int, seed: int) -> tuple[int, int]:
    """Random moved-coordinate instances satisfying the strict-growth
    hypothesis; returns (trials run, violations observed).

    Coordinates are i.i.d. uniform on [-10, 10] with dimension uniform
    on [2, 50]. The move size is kept at least 1e-3 so that a true
    strict increase can never be swallowed by the float verdict gap.
    """
    check_int(trials, "trials")
    check_int(seed, "seed", 0, MAX_SEED)
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    for _ in range(trials):
        dim = int(rng.integers(2, 51))
        coords = rng.uniform(-10.0, 10.0, dim)
        v = Vector(coords.tolist())
        i = int(rng.integers(dim))
        mean = math.fsum(v.coords) / dim
        delta = float(rng.uniform(1e-3, 10.0))
        if v.coords[i] >= mean:
            new_value = v.coords[i] + delta
        else:
            new_value = v.coords[i] - delta
        _, _, increased = energy_push(v, i, new_value)
        if not increased:
            violations += 1
    return trials, violations


def check_energy_fuzz(seed: int) -> CheckResult:
    name = "energy-fuzz"
    ran, violations = energy_fuzz(FUZZ_TRIALS, seed)
    if violations:
        return CheckResult(name, False, f"{violations} of {ran} instances failed")
    return CheckResult(name, True, f"{ran} instances, zero violations")


def check_optimizer_agreement(
    max_n: int = OPTIMIZER_MAX_N, seed: int = 0
) -> CheckResult:
    """Subgradient descent rediscovers the closed-form width of the
    standard simplex within 1e-6 relative, never undershooting it by
    more than 1e-9, and lands in the optimal family."""
    name = "optimizer-agreement"
    max_n = _bound(max_n, OPTIMIZER_MAX_N)
    for n in range(1, max_n + 1):
        cfg = OptimizerConfig(seed=derive_seed(seed, n), constrain_sum_zero=True)
        result = minimize_width(standard_simplex_vertices(n), cfg)
        target = math.sqrt(width_squared(n, SimplexKind.STANDARD))
        if abs(result.width - target) > 1e-6 * target:
            return CheckResult(
                name, False, f"width {result.width!r} vs {target!r} at n={n}"
            )
        if result.width < target - 1e-9:
            return CheckResult(name, False, f"upper bound violated at n={n}")
        if not is_optimal_direction(n, result.direction):
            return CheckResult(name, False, f"direction outside family at n={n}")
    return CheckResult(name, True, f"n=1..{max_n}: closed form rediscovered")


def run_all_checks(max_n: int, seed: int) -> list[CheckResult]:
    """The full verification battery; each check caps ``max_n`` itself.

    Bad arguments raise before any check runs. An exception inside a check
    becomes that check's failed result, and the other checks still run.
    """
    check_order(max_n)
    check_int(seed, "seed", 0, MAX_SEED)
    # The checks are read from the module here, at call time, so that a
    # wrapper put there after import (as a tracer does) is the one called.
    battery = (
        ("exact-rational-identities", check_exact_identities, (max_n,)),
        ("radii-distances", check_radii_distances, (max_n,)),
        ("enumeration-oracle", check_enumeration_oracle, (max_n,)),
        ("direction-families", check_direction_families, (max_n,)),
        ("energy-fuzz", check_energy_fuzz, (seed,)),
        ("optimizer-agreement", check_optimizer_agreement, (max_n, seed)),
    )
    results = []
    for name, check, args in battery:
        try:
            results.append(check(*args))
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
