"""Per-layer timings of the curve path, on pytest-benchmark.

Tier-1 does not collect this file; run it by name:

    PYTHONPATH=src python -m pytest benchmarks/bench_curves.py --benchmark-only

Each case calls one library layer and cycles through a fixed pool of
seeded inputs in dimensions 3 and 5, one input per call, as in
``bench_triad.py``.  Accepted curves are eps-family lifts
(``generate_npc_profile``) and rejected ones the same lifts with a phase
wobble on one frame component, which no rephasing removes; the
connection integral runs on gauge-twisted geodesics, whose integrand
does not vanish.  Loops are k = 3 triangles of geodesic sides at grid
257, with or without one side replaced by an eps-family lift between
the same two vertices.  The whole-curve case builds a lift from sample
arrays, checks it and integrates it, as a ``perfbench`` curve operation
does: accepted curves are geodesics at grid 1025, rejected ones latitude
arcs of spin-coherent states at grid 257.  ``pair_inputs``,
``profile_inputs`` and ``loop_inputs`` draw the inputs of the other
``perfbench`` curve operations (geodesics at grids 257 and 1025 in turn,
two of every five profiles at grid 257, loops of three geodesic sides at
grid 257 of which every other one has a profile side); the interleaved
A/B of ``interleave.py`` times whole operations on them.
"""

import numpy as np
import pytest

from bench_triad import POOL, cycling
from holonomy_lab import core, curves, majorana

DIMS = (3, 5)


def frame_and_profile(rng, grid):
    n = DIMS[int(rng.integers(len(DIMS)))]
    frame = curves.frame_from_pair(core.random_state(n, rng),
                                   core.random_state(n, rng), size=3)
    eps = float(rng.uniform(0.1, 1.2))
    return frame, curves.generate_npc_profile(frame.theta0, 3, eps, grid=grid)


def family_lifts(seed, grid, wobble=0.0):
    """Eps-family lifts; a nonzero wobble makes them fail the null-phase check."""
    rng = np.random.default_rng(seed)
    lifts = []
    for _ in range(POOL):
        lift = curves.profile_to_lift(*frame_and_profile(rng, grid))
        psi = lift.psi.copy()
        psi[:, 2] *= np.exp(1j * wobble * np.sin(np.pi * lift.s))
        lifts.append(curves.CurveLift(lift.s, psi))
    return lifts


def twisted_geodesics(seed, grid):
    rng = np.random.default_rng(seed)
    lifts = []
    for _ in range(POOL):
        n = DIMS[int(rng.integers(len(DIMS)))]
        v1, v2 = curves.in_phase_gauge(core.random_state(n, rng),
                                       core.random_state(n, rng))
        lift = curves.geodesic_lift(v1, v2, grid=grid)
        chi = float(rng.uniform(0.5, 1.5)) * lift.s
        lifts.append(curves.CurveLift(lift.s, lift.psi * np.exp(1j * chi)[:, None]))
    return lifts


def latitude_arcs(seed, grid):
    """Spin-coherent states along a latitude circle: not a null phase curve."""
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, grid)
    arcs = []
    for _ in range(POOL):
        n = DIMS[int(rng.integers(len(DIMS)))]
        half = 0.5 * float(rng.uniform(0.5, 1.2))
        span = float(rng.uniform(0.8, 2.0))
        psi = np.array([majorana.pure_product_state(
            [np.cos(half), np.exp(1j * span * t) * np.sin(half)], n) for t in s])
        arcs.append((s, psi))
    return arcs


def pair_inputs(seed, grids=(257, 1025)):
    """(v1, v2, grid): in-phase pairs for geodesic lifts, the grids in turn."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(POOL):
        n = DIMS[int(rng.integers(len(DIMS)))]
        v1, v2 = curves.in_phase_gauge(core.random_state(n, rng),
                                       core.random_state(n, rng))
        pairs.append((v1, v2, grids[i % len(grids)]))
    return pairs


def profile_inputs(seed):
    """(frame, profile), two of every five at grid 257 and three at 1025."""
    rng = np.random.default_rng(seed)
    return [frame_and_profile(rng, 257 if i % 5 < 2 else 1025) for i in range(POOL)]


def loop_inputs(seed):
    """(pairs, swap) of triangles: the in-phase pairs of its sides and, on
    every other loop, (side, frame, profile) for an eps-family side."""
    rng = np.random.default_rng(seed)
    loops = []
    for i in range(POOL):
        n = DIMS[int(rng.integers(len(DIMS)))]
        triad = [core.random_state(n, rng) for _ in range(3)]
        pairs = [curves.in_phase_gauge(a, b)
                 for a, b in zip(triad, triad[1:] + triad[:1])]
        swap = None
        if i % 2:
            side = int(rng.integers(3))
            frame = curves.frame_from_pair(*pairs[side], size=3)
            swap = (side, frame, curves.generate_npc_profile(
                frame.theta0, 3, float(rng.uniform(0.1, 1.2))))
        loops.append((pairs, swap))
    return loops


def curve_op(s, psi):
    """One whole curve: build the lift, check it, integrate it."""
    lift = curves.CurveLift(s, psi)
    return curves.verify_npc(lift), curves.connection_integral(lift)


def triangle_loops(seed, family):
    rng = np.random.default_rng(seed)
    loops = []
    for _ in range(POOL):
        n = DIMS[int(rng.integers(len(DIMS)))]
        triad = [core.random_state(n, rng) for _ in range(3)]
        sides = [curves.geodesic_lift(*curves.in_phase_gauge(a, b))
                 for a, b in zip(triad, triad[1:] + triad[:1])]
        if family:
            frame = curves.frame_from_pair(triad[0], triad[1], size=3)
            eps = float(rng.uniform(0.1, 1.2))
            sides[0] = curves.profile_to_lift(
                frame, curves.generate_npc_profile(frame.theta0, 3, eps))
        loops.append((sides,))
    return loops


GRIDS = pytest.mark.parametrize("grid", [257, 1025], ids=lambda g: f"g{g}")


@GRIDS
def test_geodesic_lift(benchmark, grid):
    benchmark(cycling(curves.geodesic_lift, pair_inputs(309, (grid,))))


@GRIDS
def test_curve_lift(benchmark, grid):
    pool = [(lift.s, lift.psi) for lift in twisted_geodesics(300, grid)]
    benchmark(cycling(curves.CurveLift, pool))


def test_verify_npc_accept(benchmark):
    pool = [(lift,) for lift in family_lifts(301, 257)]
    assert all(curves.verify_npc(*p).ok for p in pool)
    benchmark(cycling(curves.verify_npc, pool))


def test_verify_npc_reject(benchmark):
    pool = [(lift,) for lift in family_lifts(302, 257, wobble=0.3)]
    assert not any(curves.verify_npc(*p).ok for p in pool)
    benchmark(cycling(curves.verify_npc, pool))


@pytest.mark.parametrize("case", ["accept-g1025", "reject-g257"])
def test_curve_op(benchmark, case):
    if case == "accept-g1025":
        pool = [(lift.s, lift.psi) for lift in twisted_geodesics(307, 1025)]
    else:
        pool = latitude_arcs(308, 257)
    assert all(curve_op(*p)[0].ok == (case == "accept-g1025") for p in pool)
    benchmark(cycling(curve_op, pool))


@GRIDS
def test_connection_integral(benchmark, grid):
    pool = [(lift,) for lift in twisted_geodesics(303, grid)]
    benchmark(cycling(curves.connection_integral, pool))


@GRIDS
def test_profile_to_lift(benchmark, grid):
    rng = np.random.default_rng(304)
    pool = [frame_and_profile(rng, grid) for _ in range(POOL)]
    benchmark(cycling(curves.profile_to_lift, pool))


def test_validate_profile_g1025(benchmark):
    rng = np.random.default_rng(305)
    pool = [(profile, frame.theta0)
            for frame, profile in (frame_and_profile(rng, 1025) for _ in range(POOL))]
    assert all(curves.validate_profile(*p).ok for p in pool)
    benchmark(cycling(curves.validate_profile, pool))


@pytest.mark.parametrize("family", [False, True], ids=["geodesic", "family"])
def test_loop_geometric_phase(benchmark, family):
    pool = triangle_loops(306, family)
    benchmark(cycling(curves.loop_geometric_phase, pool))
