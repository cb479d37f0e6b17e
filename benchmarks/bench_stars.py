"""Per-layer timings of the star path, on pytest-benchmark.

Tier-1 does not collect this file; run it by name:

    PYTHONPATH=src python -m pytest benchmarks/bench_stars.py --benchmark-only

Each case calls one library layer and cycles through a fixed pool of
seeded inputs, one input per call, as in ``bench_triad.py``: the star
decomposition and its expansion for one state and for a batch of 1000
at n = 2, 3, 8, 20 (n = 3 is the spin-1 case whose star pairs come in
closed form), ``su2_apply`` on one state, ``MajoranaRep.stars`` on a
batch of 1000 decompositions at n = 3 and 20, and ``star_trajectory``
on dimension-3 geodesic and eps-family lifts of 257 samples.
``interleave.py`` times the same cases in one process on two source
trees.
"""

import numpy as np
import pytest

from bench_triad import POOL, cycling
from holonomy_lab import core, curves, decompose, majorana

DIMS = pytest.mark.parametrize("n", [2, 3, 8, 20], ids=lambda n: f"n{n}")
ROWS = pytest.mark.parametrize("rows", [1, 1000], ids=lambda b: f"B{b}")


def state_pool(n, rows):
    """POOL inputs, each one state (rows = 1) or a (rows, n) batch."""
    rng = np.random.default_rng(300 + n)
    pool = []
    for _ in range(POOL):
        batch = np.array([core.random_state(n, rng) for _ in range(rows)])
        pool.append((batch[0] if rows == 1 else batch,))
    return pool


@DIMS
@ROWS
def test_coefficients_to_roots(benchmark, n, rows):
    benchmark(cycling(majorana.coefficients_to_roots, state_pool(n, rows)))


def su2_pool(n):
    """POOL pairs (u, psi) of a random SU(2) matrix and one state."""
    rng = np.random.default_rng(400 + n)
    return [(majorana.random_su2(rng), psi) for psi, in state_pool(n, 1)]


def trajectory_pool():
    """POOL dimension-3 lifts of 257 samples: geodesics and eps-family curves."""
    rng = np.random.default_rng(500)
    lifts = []
    for j in range(POOL):
        v1, v2 = curves.in_phase_gauge(core.random_state(3, rng),
                                       core.random_state(3, rng))
        if j % 2 == 0:
            lifts.append((curves.geodesic_lift(v1, v2, grid=257),))
            continue
        frame = curves.frame_from_pair(v1, v2)
        profile = curves.generate_npc_profile(
            frame.theta0, 3, float(rng.uniform(0.1, 1.2)), grid=257)
        lifts.append((curves.profile_to_lift(frame, profile),))
    return lifts


def rep_pool(factor, n, rows):
    """state_pool(n, rows) decomposed by factor (a coefficients_to_roots)."""
    return [(factor(psi),) for psi, in state_pool(n, rows)]


@DIMS
@ROWS
def test_roots_to_coefficients(benchmark, n, rows):
    reps = rep_pool(majorana.coefficients_to_roots, n, rows)
    benchmark(cycling(majorana.roots_to_coefficients, reps))


@pytest.mark.parametrize("n", [3, 8], ids=lambda n: f"n{n}")
def test_su2_apply(benchmark, n):
    benchmark(cycling(majorana.su2_apply, su2_pool(n)))


@pytest.mark.parametrize("n", [3, 20], ids=lambda n: f"n{n}")
def test_rep_stars(benchmark, n):
    reps = rep_pool(majorana.coefficients_to_roots, n, 1000)
    benchmark(cycling(majorana.MajoranaRep.stars, reps))


def test_star_trajectory(benchmark):
    benchmark(cycling(decompose.star_trajectory, trajectory_pool()))
