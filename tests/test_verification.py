"""The verification battery's energy fuzz (its argument rule and its heap),
the footprint of its family sweep, and the per-order seeds of its descents."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simplexwidth import verification
from simplexwidth.verification import (
    ODD_FAMILY_MAX_N,
    check_direction_families,
    derive_seed,
    energy_fuzz,
    run_all_checks,
)


@pytest.mark.parametrize("n", [0, 1, 100])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_derive_seed_is_the_first_word_of_the_orders_child_sequence(seed, n):
    sequence = np.random.SeedSequence(seed, spawn_key=(n,))
    assert derive_seed(seed, n) == int(sequence.generate_state(1)[0])


@pytest.mark.parametrize("trials", [0, -5, True, 2.0, "3", None])
def test_energy_fuzz_rejects_bad_trial_counts(trials):
    with pytest.raises(ValueError):
        energy_fuzz(trials, 0)


def test_energy_fuzz_accepts_one_trial():
    assert energy_fuzz(1, 0) == (1, 0)


def test_run_all_checks_rejects_its_seed_before_any_check(monkeypatch):
    # only the fifth check reads the seed, so the battery checks it first
    calls = []
    monkeypatch.setattr(
        verification, "check_exact_identities", lambda *args: calls.append(args)
    )
    with pytest.raises(ValueError, match="seed"):
        run_all_checks(64, -1)
    assert calls == []


# Prints how many bytes the resident set grows over a 10,000-trial fuzz,
# after a warm-up that loads numpy and fills the allocator's steady state.
# The high-water mark (ru_maxrss) would not do: a child inherits its
# parent's, so a large test process would hide the fuzz.
_FUZZ_RSS_GROWTH = """
import os
from simplexwidth.verification import energy_fuzz

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

energy_fuzz(100, 0)
before = rss()
energy_fuzz(10_000, 42)
print(rss() - before)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)
def test_energy_fuzz_leaves_the_heap_near_its_size():
    # Tuples built from generators of 2..50 coordinates grew by
    # reallocation and left about 3 MiB of fragmented heap behind; built
    # from lists, the growth is about 0.4 MiB. Reverting Vector or
    # EnergyReport's centered vector alone to the generator form grows it
    # past 1 MiB.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FUZZ_RSS_GROWTH],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20


def test_direction_families_holds_one_member_at_a_time():
    # Built as a list, the 924 members at n = 11 peak near 524 KiB; walked
    # from their low sets, one at a time, the sweep peaks at 8 to 15 KiB.
    check_direction_families(3)  # warm-up: first-use allocations
    tracemalloc.start()
    try:
        result = check_direction_families(ODD_FAMILY_MAX_N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed, result.detail
    assert peak < 64 * 1024
