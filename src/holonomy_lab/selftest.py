"""Built-in acceptance checks.

Each checker exercises one advertised identity of the library against an
independent route to the same number and returns its measures: the worst
error it saw next to the bound that error must stay under.  ``run`` gives
criterion k the random stream seeded with ``seed + 1000 k`` and derives
pass/fail and the report line from the measures, so each bound is written
once and a NaN error fails.  Every checker calls the library at its
shipped defaults (grids, subgrids and tolerances), so the seed alone
fixes a run and replays it.  The test suite and the ``selftest`` CLI
command both run these.

Samplers reject parameter draws that sit on a degeneracy of the
identity under test (coincident or orthogonal rays, vanishing phase
denominators); every rejection bound is written next to its sampler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from . import angles as ang
from . import core, curves, decompose, formats, majorana


@dataclass(frozen=True)
class Measure:
    """The largest error one check saw and the bound it must stay under."""

    label: str
    worst: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.worst < self.bound  # NaN fails too

    def __str__(self) -> str:
        return f"{self.label} {self.worst:.2e} (< {self.bound:g})"


def _measure(label: str, errors, bound: float) -> Measure:
    """Measure over every collected error; np.max keeps a NaN."""
    return Measure(label, float(np.max(errors)), bound)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    measures: tuple[Measure, ...] = ()
    error: str | None = None  # set when the checker raised

    @property
    def passed(self) -> bool:
        return (self.error is None and bool(self.measures)
                and all(m.ok for m in self.measures))

    @property
    def detail(self) -> str:
        return self.error or "; ".join(map(str, self.measures))


def _wrap_err(a: float, b: float) -> float:
    """Distance between two angles modulo 2*pi."""
    return abs(core.principal_angle(float(a) - float(b)))


def _triad(rng, n: int):
    """Random triad with all pairwise overlap moduli in [0.05, 1 - 1e-4].

    The band keeps every arccos and every argument extraction away from
    its singular endpoints; the rejected region has measure well under a
    percent per draw for the dimensions used here.
    """
    while True:
        t = [core.random_state(n, rng) for _ in range(3)]
        ovs = [abs(core.inner(t[0], t[1])), abs(core.inner(t[1], t[2])),
               abs(core.inner(t[2], t[0]))]
        if min(ovs) >= 0.05 and max(ovs) <= 1.0 - 1e-4:
            return t


# ---------------------------------------------------------------------------
# criteria 1-4: closed forms for triad phases


def _canonical_triads(rng, n: int, count: int, max_overlap: float = math.inf):
    """count canonical (params, triad) pairs of dimension n = 2 or 3.

    Draw order: theta_12 and theta_31, phi, xi (n = 3 only), then phi_12
    and phi_31 once the dependent overlap |w| lies in [1e-3, max_overlap].
    """
    done = 0
    while done < count:
        t12, t31 = rng.uniform(0.2, np.pi - 0.2, size=2)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi = rng.uniform(0.05, np.pi / 2 - 0.05) if n == 3 else 0.0
        if not 1e-3 <= abs(ang._dependent_overlap(t12, t31, phi, xi)) <= max_overlap:
            continue
        phi_12, phi_31 = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 2.0 * np.pi)
        if n == 3:
            params = ang.CanonicalParamsN3(t12, t31, phi_12, phi_31, phi, xi)
            yield params, ang.build_canonical_n3(params)
        else:
            params = ang.CanonicalParamsN2(t12, t31, phi_12, phi_31, phi)
            yield params, ang.build_canonical_n2(params)
        done += 1


def _check_closed_form(rng, n: int) -> tuple[Measure, ...]:
    errs = []
    for p, triad in _canonical_triads(rng, n, 1000):
        direct = core.bi_phase(*triad)
        formula = ang.pancharatnam_phase(p.theta_12, p.theta_31, p.phi,
                                         xi=p.xi if n == 3 else 0.0)
        errs.append(_wrap_err(direct, formula))
    return (_measure("1000 triads, max phase error", errs, 1e-10),)


def _check_dependent_pair_n2(rng) -> tuple[Measure, ...]:
    errs = []
    for p, triad in _canonical_triads(rng, 2, 1000, max_overlap=1.0 - 1e-6):
        solved_theta, solved_phi_g = ang.solve_dependent_n2(p.theta_12, p.theta_31,
                                                            p.phi)
        got = ang.extract_angles(*triad)
        errs += [abs(got.theta_23 - solved_theta), _wrap_err(got.phi_g, solved_phi_g)]
    return (_measure("1000 sets, max angle error", errs, 1e-10),
            _measure("2000 edge-band theta_12, max error / eps",
                     _edge_band_theta_errors(rng, 1000), 4.0))


def _edge_band_theta_errors(rng, count: int) -> list[float]:
    """|theta_12 - extracted theta_12| / eps on canonical n = 2 triads, with
    theta_12 and then pi - theta_12 log-uniform in [1e-5, 1e-2], count each.

    A bound of 4 is a relative error of 4 eps / theta_12 near 0.  theta_31
    in [0.2, pi - 0.2] keeps the derived overlap clear of 0 and 1.
    """
    errs = []
    for near_pi in (False, True):
        for _ in range(count):
            edge = 10.0 ** rng.uniform(-5.0, -2.0)
            t12 = np.pi - edge if near_pi else edge
            t31 = rng.uniform(0.2, np.pi - 0.2)
            phi, phi_12, phi_31 = rng.uniform(0.0, 2.0 * np.pi, size=3)
            triad = ang.build_canonical_n2(
                ang.CanonicalParamsN2(t12, t31, phi_12, phi_31, phi))
            errs.append(abs(ang.extract_angles(*triad).theta_12 - t12)
                        / np.finfo(float).eps)
    return errs


def _fock_coherent(z: complex, nmax: int = 64) -> np.ndarray:
    """Number-basis expansion of a coherent state, truncated at nmax terms."""
    k = np.arange(nmax)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(nmax)])
    weights = np.exp(-0.5 * abs(z) ** 2 - 0.5 * log_fact)
    return weights * np.power(complex(z), k)


def _check_coherent_pair(rng) -> tuple[Measure, ...]:
    errs = []
    done = 0
    while done < 200:
        r = rng.uniform(0.3, 2.0)
        rp = rng.uniform(0.3, 2.0)
        phi_prime = rng.uniform(0.0, 2.0 * np.pi)
        z2 = complex(r)
        z3 = rp * np.exp(1j * phi_prime)
        if abs(z2 - z3) < 0.15:
            continue
        t12 = 2.0 * float(np.arccos(np.exp(-0.5 * r * r)))
        t31 = 2.0 * float(np.arccos(np.exp(-0.5 * rp * rp)))
        theta_23, phi_g = ang.solve_dependent_coherent(t12, t31, phi_prime)
        f1, f2, f3 = (_fock_coherent(z) for z in (0.0, z2, z3))
        ov12 = core.inner(f1, f2)
        ov23 = core.inner(f2, f3)
        ov31 = core.inner(f3, f1)
        theta_ref = 2.0 * float(np.arccos(np.minimum(1.0, abs(ov23))))
        phi_ref = core.principal_angle(-float(np.angle(ov12 * ov23 * ov31)))
        errs += [abs(theta_23 - theta_ref), _wrap_err(phi_g, phi_ref)]
        done += 1
    return (_measure("200 sets, max error vs 64-term series", errs, 1e-8),)


# ---------------------------------------------------------------------------
# criteria 5-7: star decompositions


def _round_trip_errors(psi: np.ndarray) -> np.ndarray:
    """Distance of each row of psi from the ray of its rebuild, relative to |psi|."""
    rep = majorana.coefficients_to_roots(psi)
    rebuilt = majorana.roots_to_coefficients(rep)
    lam = (np.sum(np.conjugate(rebuilt) * psi, axis=-1)
           / np.sum(np.abs(rebuilt) ** 2, axis=-1))
    return (np.linalg.norm(lam[..., None] * rebuilt - psi, axis=-1)
            / np.linalg.norm(psi, axis=-1))


def _check_root_round_trip(rng) -> tuple[Measure, ...]:
    errs = []
    for n in range(2, 21):
        parts = rng.standard_normal((1000, 2, n))
        batch = parts[:, 0] + 1j * parts[:, 1]
        # the first 100 rows lose their last one or two amplitudes
        zeros = 1 if n == 2 else rng.integers(1, 3, size=(100, 1))
        np.copyto(batch[:100], 0.0, where=np.arange(n) >= n - zeros)
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        errs.append(_round_trip_errors(batch))
    return (_measure("19000 vectors (n = 2..20, 100 per n with forced leading"
                     " zeros), max relative error", errs, 1e-8),)


def _check_factorization(rng) -> tuple[Measure, ...]:
    errs = []
    for n in range(2, 9):
        for _ in range(200):
            triad = _triad(rng, n)
            delta = core.bargmann(triad)
            red = decompose.reduce_triad(*triad)
            factors = decompose.bi_factorization(red)
            total = float(np.sum(np.angle(factors)))
            errs.append(_wrap_err(total, float(np.angle(delta))))
    return (_measure("1400 triads (n = 2..8), max phase mismatch", errs, 1e-8),)


def _check_solid_angles(rng) -> tuple[Measure, ...]:
    errs = []
    for _ in range(500):
        triad = _triad(rng, 3)
        half_sum = decompose.phase_from_solid_angles_n3(*triad)
        direct = core.bi_phase(*triad)
        errs.append(_wrap_err(half_sum, direct))
    golden = _load_golden()["octant"]
    states = [_golden_state(s) for s in golden["states"]]
    octant_phase = core.bi_phase(*states)
    embedded = [np.concatenate([s, [0.0]]) for s in states]
    octant_errs = [abs(octant_phase - golden["geometric_phase"]), _wrap_err(
        decompose.phase_from_solid_angles_n3(*embedded), octant_phase)]
    return (_measure("500 triads, max phase mismatch", errs, 1e-8),
            _measure("octant value, max error", octant_errs, 1e-8))


# ---------------------------------------------------------------------------
# criteria 8-10: curves


def _check_npc_verifier(rng) -> tuple[Measure, ...]:
    errs = []
    for n in range(2, 9):
        done = 0
        while done < 100:
            a = core.random_state(n, rng)
            b = core.random_state(n, rng)
            if abs(core.inner(a, b)) < 1e-3:
                continue
            v1, v2 = curves.in_phase_gauge(a, b)
            lift = curves.geodesic_lift(v1, v2)
            report = curves.verify_npc(lift)
            if not report.ok:
                raise ValueError(f"geodesic rejected at n={n}: {report.violations[0]}")
            errs.append(report.max_rel_imag)
            done += 1
    for eps in np.arange(0.1, 1.25, 0.1):
        for theta0 in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3,
                       5 * np.pi / 6):
            profile = curves.generate_npc_profile(theta0, float(eps))
            frame = curves.CurveFrame(np.eye(3, dtype=complex), theta0)
            lift = curves.profile_to_lift(frame, profile)
            report = curves.verify_npc(lift)
            if not report.ok:
                raise ValueError(f"family member eps={eps:.1f},"
                                 f" theta0={theta0:.3f} rejected")
            errs.append(report.max_rel_imag)
    return (_measure("700 geodesics and 60 family members pass,"
                     " max relative imaginary part", errs, 1e-10),)


def _random_real_lift(rng, dim: int, grid: int) -> tuple[curves.CurveLift, np.ndarray]:
    """Smooth random real-profile lift; returns the lift and its grid."""
    s = np.linspace(0.0, 1.0, grid)
    c = rng.uniform(-1.0, 1.0, size=(dim, 3))  # one row of weights per column
    x = 1.0 + 0.3 * (c[:, 0] * np.cos(np.pi * s)[:, None]
                     + c[:, 1] * np.cos(2 * np.pi * s)[:, None] / 2
                     + c[:, 2] * np.cos(3 * np.pi * s)[:, None] / 3)
    x /= np.linalg.norm(x, axis=1)[:, None]
    return curves.CurveLift(s, x.astype(complex)), s


def _check_horizontal_lifts(rng) -> tuple[Measure, ...]:
    grid = 1025
    flat_errs, shift_errs = [], []
    for i in range(100):
        dim = 3 + i % 3
        lift, s = _random_real_lift(rng, dim, grid)
        flat = curves.connection_integral(lift)
        flat_errs.append(abs(flat))
        c = rng.uniform(-1.0, 1.0, size=3)
        chi = c[0] + c[1] * s + c[2] * np.sin(2 * np.pi * s)
        twisted = curves.CurveLift(s, np.exp(1j * chi)[:, None] * lift.psi)
        shifted = curves.connection_integral(twisted)
        shift_errs.append(abs(shifted - flat - (chi[-1] - chi[0])))
    return (_measure("100 real lifts, max |integral|", flat_errs, 1e-8),
            _measure("100 gauge twists, max twist-shift error", shift_errs, 1e-8),
            # over 40 independent draws of these arcs the worst error read
            # 1.2e-10, so 1e-9 leaves 8x; the plain phase sum, without the
            # Richardson step, reads 5e-6 at seed 0
            _measure("40 latitude arcs, max error vs exact value",
                     _latitude_arc_errors(rng), 1e-9))


def _latitude_arc_errors(rng) -> list[float]:
    """|connection_integral - exact| on spin-coherent latitude arcs.

    Ten arcs for each n = 3, 5 and grid 257, 1025: the star of the
    pure product state runs a latitude at polar angle theta through an
    azimuth span, and the exact integral is (n - 1) sin^2(theta/2) span.
    A gauge twist moves the integral by the same amount at every grid,
    so it cannot test the quadrature; these arcs do.
    """
    errs = []
    for n in (3, 5):
        for grid in (257, 1025):
            s = np.linspace(0.0, 1.0, grid)
            for _ in range(10):
                theta = rng.uniform(0.3, np.pi - 0.3)
                phi0 = rng.uniform(0.0, 2.0 * np.pi)
                span = rng.uniform(0.5, 2.0)
                b = np.exp(1j * (phi0 + span * s)) * np.sin(theta / 2)
                psi = majorana._pure_product(np.cos(theta / 2), b[:, None], n)
                got = curves.connection_integral(curves.CurveLift(s, psi))
                errs.append(abs(got - (n - 1) * np.sin(theta / 2) ** 2 * span))
    return errs


def _check_loop_phase(rng) -> tuple[Measure, ...]:
    base_errs, swap_errs = [], []
    for _ in range(50):
        triad = _triad(rng, 3)
        sides = []
        for a in range(3):
            v1, v2 = curves.in_phase_gauge(triad[a], triad[(a + 1) % 3])
            sides.append(curves.geodesic_lift(v1, v2))
        base = curves.loop_geometric_phase(sides)
        direct = core.bi_phase(*triad)
        base_errs.append(_wrap_err(base, direct))
        for a in range(3):
            frame = curves.frame_from_pair(triad[a], triad[(a + 1) % 3])
            profile = curves.generate_npc_profile(frame.theta0, 0.5)
            replaced = list(sides)
            replaced[a] = curves.profile_to_lift(frame, profile)
            looped = curves.loop_geometric_phase(replaced)
            swap_errs.append(_wrap_err(looped, base))
    return (_measure("50 loops, max loop-vs-triad error", base_errs, 1e-8),
            _measure("150 side replacements, max phase change", swap_errs, 1e-6))


# ---------------------------------------------------------------------------
# criteria 11-12: covariance


def _spin_exponential(u: np.ndarray, n: int) -> np.ndarray:
    """exp(-i theta n_hat . J) on dimension n, for u = exp(-i theta n_hat . sigma / 2).

    u = a0 I - i a . sigma with a0 = cos(theta / 2) and a = sin(theta / 2)
    n_hat.  The exponential is taken by scaling and squaring: the
    exponent is halved s times, to a 1-norm below 1/2, where its
    Taylor series to degree 18 is exact to rounding, and the sum is
    squared s times.  No eigenbasis enters, so it shares no step with
    su2_apply, which diagonalizes J_y.
    """
    a = -0.5 * np.einsum("kab,ba->k", majorana.SIGMA, u).imag
    length = float(np.linalg.norm(a))
    theta = 2.0 * math.atan2(length, 0.5 * np.trace(u).real)
    generator = sum(ak * jk for ak, jk in zip(a, majorana.spin_matrices(n)))
    x = (-1j * theta / length) * generator
    # 2 |x|_1 < 2^halvings
    halvings = max(0, math.frexp(2.0 * float(np.abs(x).sum(axis=0).max()))[1])
    x /= 2.0 ** halvings
    term = total = np.eye(n, dtype=complex)
    for k in range(1, 19):
        term = term @ x / k
        total = total + term
    for _ in range(halvings):
        total = total @ total
    return total


def _check_rotation_covariance(rng) -> tuple[Measure, ...]:
    delta_errs, pure_errs, star_errs, route_errs, exp_errs = [], [], [], [], []
    for i in range(200):
        n = 2 + i % 9
        u = majorana.random_su2(rng)
        triad = _triad(rng, n)
        before = core.bargmann(triad)
        after = core.bargmann(list(majorana.su2_apply(u, np.array(triad))))
        delta_errs.append(abs(after - before))
        xi = majorana.as_spinor(core.random_state(2, rng))
        pure = majorana.pure_product_state(xi, n)
        moved = majorana.su2_apply(u, pure)
        target = majorana.pure_product_state(u @ xi, n)
        fidelity = abs(core.inner(core.normalize(moved), target))
        pure_errs.append(abs(1.0 - fidelity))
        psi = core.random_state(n, rng)
        applied = majorana.su2_apply(u, psi)
        rotated = majorana.coefficients_to_roots(applied).stars()
        rep = majorana.coefficients_to_roots(psi)
        oracle = rep.stars() @ majorana.su2_rotation(u).T
        star_errs.append(majorana.star_matching_distance(rotated, oracle))
        # the star route: factor psi, move every spinor by u, expand again
        route = majorana.roots_to_coefficients(
            majorana.MajoranaRep(rep.spinors @ u.T, rep.scale))
        route_errs.append(np.max(np.abs(applied - route)))
        exp_errs.append(np.max(np.abs(applied - _spin_exponential(u, n) @ psi)))
    return (_measure("200 pairs, max invariant drift", delta_errs, 1e-12),
            _measure("max pure-product infidelity", pure_errs, 1e-10),
            _measure("max star mismatch", star_errs, 1e-10),
            _measure("max distance from the star route", route_errs, 1e-12),
            _measure("max distance from exp(-i theta n.J)", exp_errs, 1e-12))


def _check_gauge_covariance(rng) -> tuple[Measure, ...]:
    errs = []
    for i in range(200):
        n = 2 + i % 5
        triad = _triad(rng, n)
        alphas = rng.uniform(0.0, 2.0 * np.pi, size=3)
        before = ang.extract_angles(*triad)
        after = ang.extract_angles(*ang.gauge_transform(triad, alphas))
        errs += [
            abs(after.theta_12 - before.theta_12),
            abs(after.theta_23 - before.theta_23),
            abs(after.theta_31 - before.theta_31),
            _wrap_err(after.phi_g, before.phi_g),
            _wrap_err(after.phi_12, before.phi_12 - alphas[0] + alphas[1]),
            _wrap_err(after.phi_23, before.phi_23 - alphas[1] + alphas[2]),
            _wrap_err(after.phi_31, before.phi_31 - alphas[2] + alphas[0]),
        ]
    return (_measure("200 triads, max deviation", errs, 1e-12),)


# ---------------------------------------------------------------------------
# golden fixtures


def _load_golden() -> dict:
    path = resources.files("holonomy_lab") / "data" / "golden.json"
    return json.loads(path.read_text())


def _golden_state(d: dict) -> np.ndarray:
    return core.normalize(formats.state_from_dict(d))


def _trajectory_mismatch(fix: dict, axis: int, expected_stars) -> float:
    """Largest star mismatch along the geodesic from e_0 toward e_axis.

    expected_stars(c, s) gives the known star pairs at each sample from
    c, s = cos, sin of half the arc length travelled.
    """
    theta0 = fix["theta0"]
    psi2 = np.zeros(3, dtype=complex)
    psi2[0], psi2[axis] = np.cos(theta0 / 2), np.sin(theta0 / 2)
    lift = curves.geodesic_lift(np.eye(3, dtype=complex)[0], psi2, grid=fix["grid"])
    traj = decompose.star_trajectory(lift)
    a = 0.5 * theta0 * lift.s
    expected = expected_stars(np.cos(a), np.sin(a))
    return float(np.max([majorana.star_matching_distance(got, want)
                         for got, want in zip(traj, expected)]))


def _meridian_stars(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    y = 2.0 * np.sqrt(c * s) / (c + s)
    z = (c - s) / (c + s)
    zero = np.zeros_like(y)
    return np.stack([np.stack([zero, -y, z], axis=1),
                     np.stack([zero, y, z], axis=1)], axis=1)


def _two_component_stars(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    denom = 1.0 + s * s
    moving = np.stack([2.0 * np.sqrt(2.0) * c * s / denom,
                       np.zeros_like(s), (c * c - 2.0 * s * s) / denom], axis=1)
    north = np.tile([0.0, 0.0, 1.0], (s.size, 1))
    return np.stack([north, moving], axis=1)


def _check_golden(rng) -> tuple[Measure, ...]:
    g = _load_golden()
    errs = []

    octant = g["octant"]
    states = [_golden_state(s) for s in octant["states"]]
    delta = core.bargmann(states)
    errs.append(abs(delta - complex(*octant["bargmann_invariant"])))
    errs.append(abs(core.bi_phase(*states) - octant["geometric_phase"]))

    fix = g["basis_state_stars"]
    stars = majorana.coefficients_to_roots(_golden_state(fix["state"])).stars()
    errs.append(np.max(np.abs(stars - np.array(fix["stars"]))))

    fix = g["antipodal_rebuild"]
    rebuilt = majorana.roots_to_coefficients(formats.rep_from_dict(fix["rep"]))
    errs.append(np.max(np.abs(rebuilt - _golden_state(fix["state"]))))

    fix = g["pure_overlap_pairs"]
    xi, xi_p = _golden_state(fix["xi"]), _golden_state(fix["xi_prime"])
    # the permanent grows like (n-1)!, so its error is measured relative
    rel_errs = []
    for n in fix["dims"]:
        rep = majorana.MajoranaRep(np.tile(xi, (n - 1, 1)), 1.0)
        rep_p = majorana.MajoranaRep(np.tile(xi_p, (n - 1, 1)), 1.0)
        got = majorana.overlap_general(rep_p, rep)
        want = float(math.factorial(n - 1)) * np.vdot(xi_p, xi) ** (n - 1)
        rel_errs.append(abs(got - want) / abs(want))
        normalized = core.inner(majorana.pure_product_state(xi_p, n),
                                majorana.pure_product_state(xi, n))
        errs.append(abs(normalized - np.vdot(xi_p, xi) ** (n - 1)))

    fix = g["general_vs_pure"]
    xi = _golden_state(fix["xi"])
    rep_p = formats.rep_from_dict(fix["rep"])
    state_p = majorana.roots_to_coefficients(rep_p)
    want = np.sqrt(2.0) * np.vdot(rep_p.spinors[0], xi) * np.vdot(
        rep_p.spinors[1], xi)
    errs.append(abs(core.inner(state_p, majorana.pure_product_state(xi, 3))
                    - want))

    errs.append(_trajectory_mismatch(g["meridian_trajectory"], 2, _meridian_stars))
    errs.append(_trajectory_mismatch(g["two_component_trajectory"], 1,
                                     _two_component_stars))

    fix = g["positive_overlap_profile"]
    profile = curves.generate_npc_profile(fix["theta0"], fix["eps"], grid=fix["grid"])
    frame = curves.CurveFrame(np.eye(3, fix["dim"]), fix["theta0"])
    lift = curves.profile_to_lift(frame, profile)
    gram = np.conjugate(lift.psi) @ lift.psi.T
    if not (np.min(gram.real) > 0.0 and np.max(gram.real) <= 1.0 + 1e-12):
        raise ValueError("profile lift produced an overlap outside (0, 1]")
    errs.append(np.max(np.abs(gram.imag)))

    return (_measure(f"{len(errs)} fixtures, max deviation", errs, 1e-8),
            _measure(f"{len(rel_errs)} permanent overlaps, max relative error",
                     rel_errs, 1e-12))


# ---------------------------------------------------------------------------
# registry


CRITERIA = (
    (0, "golden fixtures", _check_golden),
    (1, "closed-form triad phase, dimension 2", partial(_check_closed_form, n=2)),
    (2, "closed-form triad phase, dimension 3", partial(_check_closed_form, n=3)),
    (3, "dependent sixth angle, dimension 2", _check_dependent_pair_n2),
    (4, "coherent dependent pair vs number-basis series", _check_coherent_pair),
    (5, "root decomposition round trip", _check_root_round_trip),
    (6, "invariant factorization over stars", _check_factorization),
    (7, "half solid-angle sum, dimension 3", _check_solid_angles),
    (8, "null-phase verifier on geodesics and profile family", _check_npc_verifier),
    (9, "horizontal lifts and gauge twists", _check_horizontal_lifts),
    (10, "loop phase from three segments", _check_loop_phase),
    (11, "rotation covariance of stars and invariants", _check_rotation_covariance),
    (12, "per-state phase covariance", _check_gauge_covariance),
)


def run(seed: int = 0, numbers=None) -> list[CheckResult]:
    """Run the selected checks (all by default) and collect results.

    A negative seed, or a number that names no criterion, raises
    ``ValueError`` before any check runs.
    """
    if seed < 0:
        # criterion k seeds its generator with seed + 1000 k, which NumPy
        # refuses when negative
        raise ValueError("seed must be at least 0")
    chosen = set(numbers) if numbers is not None else None
    if chosen is not None:
        unknown = sorted(chosen - {number for number, _, _ in CRITERIA})
        if unknown:
            raise ValueError(f"no selftest criterion numbered "
                             f"{', '.join(map(str, unknown))}")
    results = []
    for number, name, func in CRITERIA:
        if chosen is not None and number not in chosen:
            continue
        try:
            rng = np.random.default_rng(seed + 1000 * number)
            results.append(CheckResult(number, name, tuple(func(rng))))
        except Exception as exc:  # a checker crash is a failure, not an abort
            results.append(CheckResult(number, name,
                                       error=f"raised {type(exc).__name__}: {exc}"))
    return results
