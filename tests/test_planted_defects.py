"""Planted defects: each row breaks one piece of the library in-process and
asserts that `verify` exits 1 with exactly the FAIL lines that catch it.

A later change that removes or weakens a check shows up here as a defect
that goes undetected. Every row that breaks a closed form is caught by
`exact-rational-identities`, which holds its own copy of each formula.
"""

from fractions import Fraction

import pytest

from simplexwidth import cli, closed_form, directions, energy, optimizer, verification

MAX_N = 4

_alpha_beta = closed_form.alpha_beta
_squared_pairs = closed_form._squared_pairs
_alpha_beta_squared = verification.alpha_beta_squared
_width_for_t = verification.width_for_t
_width_squared = verification.width_squared


def _wrong_standard_width(n):
    (num, den), indistance, circumdistance = _squared_pairs(n)
    return (num, den + 1), indistance, circumdistance


def _wrong_circumdistance(n):
    width, indistance, _ = _squared_pairs(n)
    return width, indistance, (n, n + 2)


def _alpha_squared_doubled(n, t):
    a_sq, b_sq = _alpha_beta_squared(n, t)
    return 2 * a_sq, b_sq


def _width_for_t_1_raised(n, t):
    return _width_for_t(n, t) + (t == 1 and n >= 2)


def _width_squared_raised(n, kind):
    return _width_squared(n, kind) * Fraction(10**7 + 1, 10**7) ** 2


def _snap_keeps_nothing(best_u, best_w, pts, scale, sum_zero):
    return best_u, best_w


def _raises(*args):
    raise RuntimeError("planted")


# (id, (module, attribute, replacement), the FAIL lines of `verify --max-n 4`)
DEFECTS = [
    (
        "alpha-beta-swapped",
        (directions, "alpha_beta", lambda n, t: _alpha_beta(n, t)[::-1]),
        {
            "FAIL direction-families: PreconditionError: direction must be a "
            "unit vector, got squared norm 1.5",
            "FAIL optimizer-agreement: direction outside family at n=2",
        },
    ),
    (
        "standard-width-pair",
        (closed_form, "_squared_pairs", _wrong_standard_width),
        {
            "FAIL exact-rational-identities: parity formula mismatch at n=1",
            "FAIL enumeration-oracle: enumeration disagrees at n=1",
            "FAIL direction-families: achievement fails at n=1",
            "FAIL optimizer-agreement: width 1.414213562373095 vs 1.0 at n=1",
        },
    ),
    (
        "regular-not-halved",
        (closed_form, "_halved", lambda num, den: (num, den)),
        {"FAIL exact-rational-identities: regular parity formula mismatch at n=1"},
    ),
    (
        "standard-circumdistance",
        (closed_form, "_squared_pairs", _wrong_circumdistance),
        {
            "FAIL exact-rational-identities: circumdistance formula mismatch at n=1",
            "FAIL radii-distances: vertex distance off at n=1, j=0",
        },
    ),
    (
        "unit-edge-circumradius",
        (verification, "circumradius_squared", lambda n: Fraction(n, 2 * n + 1)),
        {"FAIL exact-rational-identities: circumradius formula mismatch at n=1"},
    ),
    (
        "two-value-alpha-doubled",
        (verification, "alpha_beta_squared", _alpha_squared_doubled),
        {
            "FAIL exact-rational-identities: two-value sanity identity fails "
            "at n=1, t=1"
        },
    ),
    (
        "width-for-t-asymmetric",
        (verification, "width_for_t", _width_for_t_1_raised),
        {"FAIL exact-rational-identities: t symmetry fails at n=2"},
    ),
    (
        "width-for-t-doubled",
        (verification, "width_for_t", lambda n, t: 2 * _width_for_t(n, t)),
        {"FAIL exact-rational-identities: t-argmin characterization fails at n=1"},
    ),
    (
        "indistance-off",
        (verification, "indistance_squared", lambda n: Fraction(1, n * (n + 1) + 1)),
        {
            "FAIL exact-rational-identities: indistance formula mismatch at n=1",
            "FAIL radii-distances: facet distance off at n=1, j=0",
        },
    ),
    (
        # 1e-7 relative: inside optimizer-agreement's 1e-6 tolerance, so of
        # its lines only the upper bound catches it
        "width-raised-1e-7",
        (verification, "width_squared", _width_squared_raised),
        {
            "FAIL exact-rational-identities: parity formula mismatch at n=1",
            "FAIL enumeration-oracle: enumeration disagrees at n=1",
            "FAIL direction-families: achievement fails at n=1",
            "FAIL optimizer-agreement: upper bound violated at n=1",
        },
    ),
    (
        "optimal-t-is-1",
        (closed_form, "_optimal_t", lambda n: 1),
        {
            "FAIL exact-rational-identities: parity formula mismatch at n=3",
            "FAIL enumeration-oracle: enumeration disagrees at n=3",
            "FAIL direction-families: family size 4 != C(4,2) at n=3",
            "FAIL optimizer-agreement: width 1.0 vs 1.1547005383792515 at n=3",
        },
    ),
    (
        # a gap must be half the energy to count as an increase
        "energy-verdict-threshold",
        (energy, "ENERGY_REL_TOL", 0.5),
        {"FAIL energy-fuzz: 91 of 100 instances failed"},
    ),
    (
        "snap-never-kept",
        (optimizer, "_snap", _snap_keeps_nothing),
        {"FAIL optimizer-agreement: direction outside family at n=2"},
    ),
    (
        "check-raises",
        (verification, "check_energy_fuzz", _raises),
        {"FAIL energy-fuzz: RuntimeError: planted"},
    ),
]


@pytest.mark.parametrize(
    "patch,fails", [row[1:] for row in DEFECTS], ids=[row[0] for row in DEFECTS]
)
def test_verify_fails_the_checks_that_catch_a_planted_defect(
    monkeypatch, capsys, patch, fails
):
    # A short fuzz keeps this module fast; the energy row counts its
    # failures out of these 100 trials.
    monkeypatch.setattr(verification, "FUZZ_TRIALS", 100)
    monkeypatch.setattr(*patch)
    code = cli.main(["verify", "--max-n", str(MAX_N)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert {line for line in lines if line.startswith("FAIL ")} == fails
    assert sum(line.startswith("PASS ") for line in lines) == 6 - len(fails)
    assert lines[-1] == f"{len(fails)} of 6 checks failed"


def test_every_check_that_raises_fails_under_its_own_name(monkeypatch, capsys):
    monkeypatch.setattr(verification, "FUZZ_TRIALS", 100)
    assert cli.main(["verify", "--max-n", str(MAX_N)]) == 0
    passed = [line.split(":")[0][5:] for line in capsys.readouterr().out.splitlines()[:-1]]
    for check in (
        "exact_identities",
        "radii_distances",
        "enumeration_oracle",
        "direction_families",
        "energy_fuzz",
        "optimizer_agreement",
    ):
        monkeypatch.setattr(verification, f"check_{check}", _raises)
    assert cli.main(["verify", "--max-n", str(MAX_N)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"FAIL {name}: RuntimeError: planted" for name in passed] + [
        "6 of 6 checks failed"
    ]
