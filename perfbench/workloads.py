"""Seeded inputs, timed operations and correctness checks: stars, curves, triads.

A workload is a mix: a block of operations with a fixed count of each
kind, shuffled by the seed.  A pool of ``POOL_BLOCKS`` such blocks is
repeated for as long as a run lasts.  Blocks are short
(0.06 to 0.3 s), so that many run inside one of a shared machine's speed
phases.  A kind has three parts:

* a maker, which draws one input from the seeded generator with NumPy
  alone, so the inputs do not change when the library does;
* a run, the timed part, which makes every library call through
  ``tr.call`` so that a traced run records a span around it;
* a check, untimed, which compares the output with an independent route
  to the same number (the routes the library's selftest uses).

The kinds in ``OUT_OF_DOMAIN`` feed inputs the library must reject, one
such operation in every so many blocks.  Their run returns the calls that
accepted such an input instead of a result.
"""

from __future__ import annotations

import math

import numpy as np

from holonomy_lab import angles, core, curves, decompose, majorana
from tracing import NullTracer

STAR_DIMS = (2, 3, 8, 20)
CURVE_DIMS = (3, 5)
TRIAD_BAND = (0.05, 1.0 - 1e-4)  # overlap moduli, as in the selftest sampler

# kind -> count in a block; the order of kinds fixes the draw order
MIXES = {
    "stars": {"roundtrip": 8, "su2_apply": 8, "trajectory": 4},
    "curves": {"geodesic": 9, "profile": 5, "arc": 4, "loop": 2},
    "triads": {"triad": 99},
}
# workload -> (out-of-domain kind, one such operation every so many blocks):
# about 1 % of the operations
OUT_OF_DOMAIN = {"curves": ("nan_curve", 5), "triads": ("nan_triad", 1)}
# triads: n = 2, 5, 8, 3 on 30, 30, 20, 19 of the 99; see triad_input
TRIAD_SHARES = ((2, 30), (5, 30), (8, 20), (3, 19))
# curves: 2 of the 5 profile lifts are at grid 257, 3 at 1025.  Sorted by
# latency a block is 11 fast lifts (geodesics at either grid, profiles at
# 257), 4 arcs and 2 loops, then the 3 grid-1025 profiles, which take five
# times as long as anything else: p50 falls among the fast lifts and p90
# among the slow profiles, so neither jumps between clusters.
PROFILES_AT_257 = 2
# blocks in the pool a run cycles through.  A pool of at least 100
# operations leaves ten beyond its p90; a small one is passed through
# often (each 0.25 to 1.5 s), so each operation gets more runs in a run
POOL_BLOCKS = {"stars": 5, "curves": 5, "triads": 4}


def kinds(name: str) -> list[str]:
    """Every kind a workload runs, its out-of-domain kind last."""
    ood = OUT_OF_DOMAIN.get(name)
    return list(MIXES[name]) + ([ood[0]] if ood else [])


# ---------------------------------------------------------------------------
# input makers (NumPy only)


def random_state(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _pure_products(xis: np.ndarray, n: int) -> np.ndarray:
    """Rows sqrt(C(n-1, k)) a^(n-1-k) b^k for each spinor row (a, b)."""
    k = np.arange(n)
    binom = np.sqrt([math.comb(n - 1, int(i)) for i in k])
    return binom * xis[:, :1] ** (n - 1 - k) * xis[:, 1:] ** k


def random_triad(rng, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = TRIAD_BAND
    while True:
        t = [random_state(rng, n) for _ in range(3)]
        ovs = [abs(np.vdot(t[i], t[(i + 1) % 3])) for i in range(3)]
        if min(ovs) >= lo and max(ovs) <= hi:
            return tuple(t)


def _in_phase_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ov = np.vdot(a, b)
    return a, b * (abs(ov) / ov)


def random_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """In-phase pair with overlap modulus in [0.1, 0.95]."""
    while True:
        a, b = random_state(rng, n), random_state(rng, n)
        if 0.1 <= abs(np.vdot(a, b)) <= 0.95:
            return _in_phase_pair(a, b)


def grid_points(grid: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, grid)


def geodesic_rows(v1, v2, grid: int) -> np.ndarray:
    c0 = np.vdot(v1, v2).real
    e2 = (v2 - c0 * v1) / math.sqrt(1.0 - c0 * c0)
    half = np.arccos(c0) * grid_points(grid)
    return np.outer(np.cos(half), v1) + np.outer(np.sin(half), e2)


def _frame(rng, v1, v2) -> curves.CurveFrame:
    """Three orthonormal rows: v1, the in-plane partner of v2, a third."""
    c0 = np.vdot(v1, v2).real
    e2 = (v2 - c0 * v1) / math.sqrt(1.0 - c0 * c0)
    q, _ = np.linalg.qr(np.column_stack([v1, e2, random_state(rng, v1.size)]))
    e3 = q[:, 2]
    return curves.CurveFrame(np.array([v1, e2, e3]), 2.0 * float(np.arccos(c0)))


def _eps_profile(theta0: float, eps: float, grid: int) -> curves.RealProfile:
    """The eps-family x(s) = (cos a, sin a cos b, sin a sin b), b = eps sin(pi s)."""
    s = grid_points(grid)
    a = 0.5 * theta0 * s
    b = eps * np.sin(np.pi * s)
    x = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=1)
    return curves.RealProfile(s, x)


def roundtrip_input(rng, j: int):
    """(psi, xi) for the j-th of a block's 8 round trips, two at each n:
    j = 6 has forced leading zeros (n = 8), j = 7 is the pure product of
    the spinor xi (n = 20, repeated stars); xi is None otherwise."""
    n = STAR_DIMS[j % len(STAR_DIMS)]
    if j == 7:
        xi = random_state(rng, 2)
        return _pure_products(xi[None, :], n)[0], xi
    psi = random_state(rng, n)
    if j == 6:
        zeros = int(rng.integers(1, 3))
        psi[n - zeros:] = 0.0
        psi /= np.linalg.norm(psi)
    return psi, None


def su2_input(rng, j: int):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    u = u / np.sqrt(np.linalg.det(u))
    return u, random_state(rng, 2 + j % 9)


def dim3_lift(rng, j: int, grid: int) -> curves.CurveLift:
    """Geodesic (even j) or eps-family (odd j) lift in dimension 3."""
    v1, v2 = random_pair(rng, 3)
    if j % 2 == 0:
        return curves.CurveLift(grid_points(grid), geodesic_rows(v1, v2, grid))
    frame = _frame(rng, v1, v2)
    profile = _eps_profile(frame.theta0, float(rng.uniform(0.1, 1.2)), grid)
    return curves.CurveLift(profile.s, profile.x.astype(complex) @ frame.vectors)


def trajectory_input(rng, j: int):
    return dim3_lift(rng, j, 257)


def geodesic_input(rng, j: int):
    n = CURVE_DIMS[j % 2]
    grid = (257, 1025)[(j // 2) % 2]
    v1, v2 = random_pair(rng, n)
    return v1, v2, grid


def profile_input(rng, j: int):
    n = CURVE_DIMS[j % 2]
    grid = 257 if j < PROFILES_AT_257 else 1025
    v1, v2 = random_pair(rng, n)
    frame = _frame(rng, v1, v2)
    return frame, _eps_profile(frame.theta0, float(rng.uniform(0.1, 1.2)), grid)


def arc_input(rng, j: int):
    """Spin-coherent states along a latitude circle, which is not a null
    phase curve; returns (s, psi, exact connection integral)."""
    n = CURVE_DIMS[j % 2]
    grid = (257, 1025)[(j // 2) % 2]
    theta = float(rng.choice([rng.uniform(0.5, 1.2), rng.uniform(1.95, 2.6)]))
    phi0 = float(rng.uniform(0.0, 2.0 * np.pi))
    span = float(rng.uniform(0.8, 2.0))
    s = grid_points(grid)
    xis = np.stack([np.full(grid, np.cos(theta / 2), dtype=complex),
                    np.exp(1j * (phi0 + span * s)) * np.sin(theta / 2)], axis=1)
    exact = (n - 1) * np.sin(theta / 2) ** 2 * span
    return s, _pure_products(xis, n), exact


def loop_input(rng, j: int):
    """Dimension-3 triad; odd j replace a seeded side by an eps-family lift."""
    triad = random_triad(rng, 3)
    pairs = [_in_phase_pair(triad[a], triad[(a + 1) % 3]) for a in range(3)]
    if j % 2 == 0:
        return triad, pairs, None
    side = int(rng.integers(3))
    frame = _frame(rng, *pairs[side])
    return triad, pairs, (side, frame, _eps_profile(frame.theta0, 0.5, 257))


def nan_curve_input(rng, j: int):
    v1, v2 = random_pair(rng, 3)
    psi = geodesic_rows(v1, v2, 257)
    psi[int(rng.integers(0, 257)), int(rng.integers(0, 3))] = np.nan
    return grid_points(257), psi


def triad_input(rng, j: int):
    for n, count in TRIAD_SHARES:
        if j < count:
            return random_triad(rng, n)
        j -= count
    raise IndexError("triad index beyond the mix")


def nan_triad_input(rng, j: int):
    t1, t2, t3 = random_triad(rng, 3)
    t2 = t2.copy()
    t2[int(rng.integers(0, 3))] = np.nan
    return t1, t2, t3


# ---------------------------------------------------------------------------
# timed runs


def run_roundtrip(tr, p):
    psi, _ = p
    tag = f"n{psi.size}"
    rep = tr.call(f"majorana.coefficients_to_roots.{tag}",
                  majorana.coefficients_to_roots, psi)
    return rep, tr.call(f"majorana.roots_to_coefficients.{tag}",
                        majorana.roots_to_coefficients, rep)


def run_su2(tr, p):
    u, psi = p
    return tr.call("majorana.su2_apply", majorana.su2_apply, u, psi)


def run_trajectory(tr, lift):
    return tr.call("decompose.star_trajectory.g257", decompose.star_trajectory, lift)


def _scan_and_integrate(tr, lift, verdict: str):
    grid = lift.s.size
    report = tr.call(f"curves.verify_npc.{verdict}", curves.verify_npc, lift)
    integral = tr.call(f"curves.connection_integral.g{grid}",
                       curves.connection_integral, lift)
    return report, integral


def run_geodesic(tr, p):
    v1, v2, grid = p
    lift = tr.call(f"curves.geodesic_lift.g{grid}", curves.geodesic_lift,
                   v1, v2, grid=grid)
    return _scan_and_integrate(tr, lift, "accept")


def run_profile(tr, p):
    frame, profile = p
    lift = tr.call(f"curves.profile_to_lift.g{profile.s.size}",
                   curves.profile_to_lift, frame, profile)
    return _scan_and_integrate(tr, lift, "accept")


def run_arc(tr, p):
    s, psi, _ = p
    lift = tr.call(f"curves.CurveLift.g{s.size}", curves.CurveLift, s, psi)
    return _scan_and_integrate(tr, lift, "reject")


def run_loop(tr, p):
    _, pairs, swap = p
    sides = [tr.call("curves.geodesic_lift.g257", curves.geodesic_lift,
                     v1, v2, grid=257) for v1, v2 in pairs]
    if swap is not None:
        side, frame, profile = swap
        sides[side] = tr.call("curves.profile_to_lift.g257",
                              curves.profile_to_lift, frame, profile)
    return tr.call("curves.loop_geometric_phase", curves.loop_geometric_phase,
                   sides)


def run_triad(tr, t):
    out = {
        "delta": tr.call("core.bargmann", core.bargmann, list(t)),
        "angles": tr.call("angles.extract_angles", angles.extract_angles, *t),
    }
    out["factors"] = tr.call(
        "decompose.bi_factorization", decompose.bi_factorization,
        tr.call("decompose.reduce_triad", decompose.reduce_triad, *t))
    if t[0].size == 3:
        out["half_sum"] = tr.call("decompose.phase_from_solid_angles_n3",
                                  decompose.phase_from_solid_angles_n3, *t)
    return out


def _accepts(tr, name: str, fn, *args) -> bool:
    """Make the call; True when it returned instead of raising ValueError."""
    try:
        tr.call(name, fn, *args)
    except ValueError:
        return False
    return True


def run_nan_curve(tr, p):
    s, psi = p
    try:
        lift = tr.call("curves.CurveLift.nan", curves.CurveLift, s, psi)
    except ValueError:
        return []
    accepted = ["curves.CurveLift accepted a NaN sample"]
    try:
        if tr.call("curves.verify_npc.nan", curves.verify_npc, lift).ok:
            accepted.append("curves.verify_npc passed a NaN curve")
    except ValueError:
        pass
    if _accepts(tr, "curves.connection_integral.nan", curves.connection_integral,
                lift):
        accepted.append("curves.connection_integral integrated a NaN curve")
    return accepted


def run_nan_triad(tr, t):
    calls = (("core.bargmann", core.bargmann, [list(t)]),
             ("angles.extract_angles", angles.extract_angles, t),
             ("decompose.reduce_triad", decompose.reduce_triad, t),
             ("decompose.phase_from_solid_angles_n3",
              decompose.phase_from_solid_angles_n3, t))
    return [f"{name} accepted a NaN amplitude" for name, fn, args in calls
            if _accepts(tr, name, fn, *args)]


# ---------------------------------------------------------------------------
# checks: each returns failure labels "<layer>.<call>: what went wrong"


def wrap_error(a: float, b: float) -> float:
    return abs(core.principal_angle(float(a) - float(b)))


def _note(acc: dict, key: str, value: float) -> None:
    acc.setdefault(key, []).append(float(value))


def relative_error(psi: np.ndarray, rebuilt: np.ndarray) -> float:
    """Distance of psi from the ray of rebuilt, relative to |psi|."""
    lam = np.vdot(rebuilt, psi) / np.vdot(rebuilt, rebuilt)
    return float(np.linalg.norm(lam * rebuilt - psi) / np.linalg.norm(psi))


def rebuild_from_stars(stars: np.ndarray) -> np.ndarray:
    """A vector on the ray whose stars are these unit vectors."""
    spinors = np.array([majorana.star_to_spinor(n) for n in stars])
    spinors /= np.linalg.norm(spinors, axis=1)[:, None]
    return majorana.roots_to_coefficients(majorana.MajoranaRep(spinors, 1.0))


def check_roundtrip(p, out, acc):
    psi, xi = p
    rep, rebuilt = out
    err = relative_error(psi, rebuilt)
    _note(acc, "majorana.roundtrip_err.max", err)
    if xi is not None:
        want = np.tile(majorana.spinor_to_star(xi), (psi.size - 1, 1))
        _note(acc, "majorana.pure_product.star_err.max",
              majorana.star_matching_distance(rep.stars(), want))
    if not err < 1e-8:
        return [f"majorana.roots_to_coefficients: round-trip error {err:.2e}"
                f" at n={psi.size}"]
    return []


def check_su2(p, out, acc):
    u, psi = p
    moved = majorana.coefficients_to_roots(out).stars()
    oracle = majorana.coefficients_to_roots(psi).stars() @ majorana.su2_rotation(u).T
    dist = majorana.star_matching_distance(moved, oracle)
    if not dist < 1e-10:
        return [f"majorana.su2_apply: stars off the rotation by {dist:.2e}"
                f" at n={psi.size}"]
    return []


def check_trajectory(lift, traj, acc):
    worst = max(relative_error(lift.psi[i], rebuild_from_stars(traj[i]))
                for i in range(0, lift.s.size, 32))
    if not worst < 1e-8:
        return [f"decompose.star_trajectory: stars rebuild a sample to {worst:.2e}"]
    return []


def _check_curve(verdict: bool, exact: float, bound: float, out, acc) -> list[str]:
    report, integral = out
    err = abs(integral - exact)
    _note(acc, "curves.verify_npc.triples", getattr(report, "checked", 0))
    _note(acc, "curves.connection_integral.err.max", err)
    failures = []
    if report.ok != verdict:
        failures.append(f"curves.verify_npc: verdict {report.ok}, truth {verdict}")
    if not err < bound:
        failures.append(f"curves.connection_integral: off by {err:.2e}")
    return failures


def check_real_lift(p, out, acc):
    """Real pairwise overlaps: the integrand vanishes sample by sample."""
    return _check_curve(True, 0.0, 1e-8, out, acc)


def check_arc(p, out, acc):
    """Latitude arc: the exact value, within the quadrature's own default
    error bound (``connection_integral`` raises beyond it)."""
    return _check_curve(False, p[2], 1e-6, out, acc)


def check_loop(p, phase, acc):
    triad, _, swap = p
    err = wrap_error(phase, core.bi_phase(*triad))
    bound = 1e-8 if swap is None else 1e-6  # the selftest's bounds
    if not err < bound:
        return [f"curves.loop_geometric_phase: off the triad phase by {err:.2e}"]
    return []


def check_triad(t, out, acc):
    failures = []
    direct = core.principal_angle(-float(np.angle(out["delta"])))
    if not wrap_error(out["angles"].phi_g, direct) < 1e-10:
        failures.append("angles.extract_angles: phi_g differs from the invariant")
    total = float(np.sum(np.angle(out["factors"])))
    if not wrap_error(total, float(np.angle(out["delta"]))) < 1e-8:
        failures.append("decompose.bi_factorization: factor phases miss arg delta")
    if "half_sum" in out and not wrap_error(out["half_sum"], direct) < 1e-8:
        failures.append("decompose.phase_from_solid_angles_n3: half-sum off")
    return failures


def scan_coverage(rng) -> float:
    """Share of a 1025-sample curve's samples that ``verify_npc`` reads.

    Measured from outside: every sample of a geodesic is twisted off it by
    its own amount, so every sample triple the scan examines is a
    violation, and the samples it read are those its violations name.
    """
    v1, v2 = random_pair(rng, 3)
    rows = geodesic_rows(v1, v2, 1025)
    c0 = np.vdot(v1, v2).real
    e2 = (v2 - c0 * v1) / math.sqrt(1.0 - c0 * c0)
    rows += 0.3j * rng.uniform(0.5, 1.5, size=(1025, 1)) * e2
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    report = curves.verify_npc(curves.CurveLift(grid_points(1025), rows))
    seen = {int(i) for v in report.violations for i in v.get("indices", ())}
    return len(seen) / 1025


def warm_up_inputs(name: str) -> list[tuple[str, object]]:
    """One fixed input of each kind in the mix."""
    rng = np.random.default_rng(0)
    return [(kind, MAKERS[kind](rng, 0)) for kind in kinds(name)]


def warm_up(inputs: list[tuple[str, object]]) -> None:
    """One untimed call of each kind, on inputs from ``warm_up_inputs``."""
    for kind, payload in inputs:
        RUNS[kind](NullTracer(), payload)


# j values whose inputs cover every variant a kind has (n, grid, shape)
VARIANTS = {
    "roundtrip": range(8), "su2_apply": range(1), "trajectory": range(2),
    "geodesic": range(4), "arc": range(4), "loop": range(2),
    "profile": (0, 1, PROFILES_AT_257, PROFILES_AT_257 + 1),
    "triad": tuple(np.cumsum([0] + [c for _, c in TRIAD_SHARES[:-1]]).tolist()),
    "nan_curve": range(1), "nan_triad": range(1),
}


MAKERS = {
    "roundtrip": roundtrip_input, "su2_apply": su2_input,
    "trajectory": trajectory_input, "geodesic": geodesic_input,
    "profile": profile_input, "arc": arc_input, "loop": loop_input,
    "nan_curve": nan_curve_input, "triad": triad_input,
    "nan_triad": nan_triad_input,
}
RUNS = {
    "roundtrip": run_roundtrip, "su2_apply": run_su2,
    "trajectory": run_trajectory, "geodesic": run_geodesic,
    "profile": run_profile, "arc": run_arc, "loop": run_loop,
    "nan_curve": run_nan_curve, "triad": run_triad, "nan_triad": run_nan_triad,
}
CHECKS = {  # out-of-domain kinds have none: their run reports acceptances
    "roundtrip": check_roundtrip, "su2_apply": check_su2,
    "trajectory": check_trajectory, "geodesic": check_real_lift,
    "profile": check_real_lift, "arc": check_arc, "loop": check_loop,
    "triad": check_triad,
}
