"""Lifts, profiles, the null-phase check and connection quadrature."""

import itertools
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from holonomy_lab import core, curves, selftest
from holonomy_lab.config import DEFAULT_SUBGRID, TAU_DEG, TAU_NPC, TAU_PROFILE
from holonomy_lab.curves import (
    CurveFrame,
    CurveLift,
    RealProfile,
    connection_integral,
    frame_from_pair,
    generate_npc_profile,
    geodesic_lift,
    in_phase_gauge,
    loop_geometric_phase,
    open_curve_phase,
    profile_to_lift,
    validate_profile,
    verify_npc,
    _pivot_pairs,
    _polygon_phase,
    _subgrid_indices,
)
from holonomy_lab.majorana import pure_product_state

from conftest import assert_angle_close, random_polygon, random_triad, widened
from lift_oracle import oracle_geodesic_rows, oracle_grid_ok
from npc_oracle import oracle_pivot_report, oracle_report, oracle_scan
from profile_oracle import oracle_certified, oracle_violations
from quadrature_oracle import (
    oracle_connection_integral,
    oracle_derivative,
    oracle_polygon,
    oracle_two_pass,
    simpson,
)


EPS = np.finfo(float).eps


def make_geodesic(rng, dim=3, grid=257):
    a = core.random_state(dim, rng)
    b = core.random_state(dim, rng)
    v1, v2 = in_phase_gauge(a, b)
    return geodesic_lift(v1, v2, grid=grid)


def twist(lift, chi):
    phases = np.exp(1j * chi(lift.s))
    return CurveLift(lift.s, lift.psi * phases[:, None])


class TestCurveLift:
    def test_too_few_samples(self):
        psi = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="3 samples"):
            CurveLift(np.array([0.0, 1.0]), psi)

    def test_grid_of_two_axes_is_refused(self):
        # a (3, 3) grid is not flattened into nine samples
        psi = np.tile([1.0 + 0j, 0.0], (9, 1))
        with pytest.raises(ValueError, match=r"1-D, got shape \(3, 3\)"):
            CurveLift(np.linspace(0, 1, 9).reshape(3, 3), psi)

    def test_non_uniform_grid(self):
        psi = np.tile([1.0 + 0j, 0.0], (3, 1))
        with pytest.raises(ValueError, match="uniform"):
            CurveLift(np.array([0.0, 0.3, 1.0]), psi)

    def test_non_unit_rows(self):
        psi = np.tile([2.0 + 0j, 0.0], (3, 1))
        with pytest.raises(ValueError, match="unit"):
            CurveLift(np.linspace(0, 1, 3), psi)

    def test_orthogonal_neighbours(self):
        psi = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="orthogonal"):
            CurveLift(np.linspace(0, 1, 3), psi)

    def test_dim_property(self, rng):
        assert make_geodesic(rng, dim=4).dim == 4

    def test_caller_writes_after_construction_change_nothing(self, rng):
        base = twist(make_geodesic(rng, grid=129),
                     lambda s: 0.9 * s + 0.4 * np.sin(2 * np.pi * s))
        s, psi = base.s.copy(), base.psi.copy()
        lift = CurveLift(s, psi)
        want = connection_integral(lift)
        s *= 2.0
        psi[:, 1] *= 1j
        assert np.array_equal(lift.s, base.s)
        assert np.array_equal(lift.psi, base.psi)
        assert connection_integral(lift) == want

    def test_builder_path_runs_every_check(self):
        s = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="unit"):
            CurveLift._owned(s, np.tile([2.0 + 0j, 0.0], (3, 1)))
        with pytest.raises(ValueError, match="orthogonal"):
            CurveLift._owned(s, np.array([[1, 0], [0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ValueError, match="uniform"):
            CurveLift._owned(np.array([0.0, 0.2, 1.0]), np.eye(3, dtype=complex))

    def test_samples_are_read_only(self, rng):
        lift = make_geodesic(rng, grid=9)
        with pytest.raises(ValueError, match="read-only"):
            lift.psi[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            lift.s[0] = 1.0


def grid_decision(s) -> bool:
    """Whether CurveLift accepts the grid s under unit rows; any other
    error than the grid's propagates."""
    try:
        CurveLift(s, np.tile([1.0 + 0j, 0.0], (s.size, 1)))
    except ValueError as exc:
        if "uniform" not in str(exc):
            raise
        return False
    return True


class TestGridCheck:
    """The grid test from the extremes of one difference array."""

    @pytest.mark.parametrize("s", [
        *[pytest.param(np.where(np.arange(9) == where, bad, np.linspace(0, 1, 9)),
                       id=f"{where}-{bad}")
          for where in (0, 1, 4, 8) for bad in (np.nan, np.inf, -np.inf)],
        # adjacent infinities, whose difference is inf - inf
        pytest.param(np.array([0.0, 1.0, np.inf, np.inf]), id="inf-inf-at-end"),
        pytest.param(np.array([0.0, np.inf, np.inf, 1.0]), id="inf-inf-inside"),
    ])
    def test_non_finite_grid_sample(self, s):
        psi = np.tile([1.0 + 0j, 0.0], (s.size, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raises without a RuntimeWarning
            with pytest.raises(ValueError, match="non-finite sample in curve"):
                CurveLift(s, psi)
            with pytest.raises(ValueError, match="non-finite sample in curve"):
                CurveLift._owned(s, psi)

    @pytest.mark.parametrize("s", [
        np.linspace(1.0, 0.0, 9),  # decreasing
        np.zeros(9),  # no step
        np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.7, 0.8]),
        np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
    ], ids=["decreasing", "constant", "one-long-step", "one-zero-step"])
    def test_decreasing_or_non_uniform(self, s):
        assert not oracle_grid_ok(s)
        with pytest.raises(ValueError, match="uniform"):
            CurveLift(s, np.tile([1.0 + 0j, 0.0], (s.size, 1)))

    def test_step_jitter_around_the_tolerance(self, rng):
        # step deviations of up to 2e-9 of a step, on either side of the
        # 1e-9 threshold
        seen = set()
        for _ in range(300):
            k = int(rng.integers(3, 40))
            h = float(rng.uniform(1e-3, 10.0))
            steps = h * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, k - 1))
            s = float(rng.uniform(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(steps)])
            want = oracle_grid_ok(s)
            assert grid_decision(s) == want
            seen.add(want)
        assert seen == {True, False}

    def test_step_deviation_at_the_tolerance_to_the_ulp(self, rng):
        # the second step sweeps a few ulps across h (1 + 1e-9) and across
        # h (1 - 1e-9)
        seen = set()
        for _ in range(40):
            h = float(rng.uniform(1e-3, 10.0))
            for edge in (h * (1.0 + 1e-9), h * (1.0 - 1e-9)):
                step = edge
                for _ in range(6):
                    step = np.nextafter(step, -np.inf)
                for _ in range(13):
                    s = np.array([0.0, h, h + step])
                    want = oracle_grid_ok(s)
                    assert grid_decision(s) == want
                    seen.add(want)
                    step = np.nextafter(step, np.inf)
        assert seen == {True, False}

    def test_deviation_equal_to_the_tolerance_passes(self):
        # 1e-9 h rounds to 2^-40 exactly and the grids below are exact, so
        # one step deviates by exactly the tolerance, or by one ulp more
        dev = 2.0 ** -40
        h = np.nextafter(dev / 1e-9, 1.0)
        assert 1e-9 * h == dev
        for end in (2 * h + dev, 2 * h - dev):
            s = np.array([0.0, h, end])
            assert s[2] - s[1] - h == end - 2 * h
            assert oracle_grid_ok(s) and grid_decision(s)
            s[2] = np.nextafter(end, 2 * end - 2 * h)  # one ulp further out
            assert not oracle_grid_ok(s) and not grid_decision(s)

    def test_finite_grid_whose_first_step_overflows(self):
        # the first step is inf, and inf - inf is NaN: the np.diff form
        # compared that NaN and let the grid through; it is not uniform.
        # A grid whose span overflows is refused before any step is formed,
        # so NumPy warns of no overflow, even when every step is finite.
        for s in ([-1.7e308, 1e308, 1.5e308], [-1.7e308, 1.7e308, 1.75e308],
                  [-1.7e308, 0.0, 1.7e308]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="uniform"):
                    CurveLift(np.array(s), np.tile([1.0 + 0j, 0.0], (3, 1)))


class TestCurveFrame:
    def test_rejects_skewed_vectors(self):
        v = np.array([[1, 0, 0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0]],
                     dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            CurveFrame(v, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vectors(self, value):
        with pytest.raises(ValueError, match="frame vectors must be finite"):
            CurveFrame(np.full((2, 3), value), 1.0)
        v = np.eye(2, 3, dtype=complex)
        v[1, 2] = value
        with pytest.raises(ValueError, match="frame vectors must be finite"):
            CurveFrame(v, 1.0)

    def test_rejects_bad_opening_angle(self):
        v = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="theta0"):
            CurveFrame(v, np.pi)


class TestPairGauge:
    def test_in_phase_overlap_is_real_positive(self, rng):
        v1, v2 = in_phase_gauge(core.random_state(4, rng),
                                core.random_state(4, rng))
        ov = core.inner(v1, v2)
        assert ov.imag == pytest.approx(0.0, abs=1e-15)
        assert ov.real > 0

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            in_phase_gauge(np.array([1, 0]), np.array([0, 1]))

    def test_pair_angle_value(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([np.cos(0.4), np.sin(0.4)])
        assert core.ray_angle(v1, v2)[1] == pytest.approx(0.8)

    def test_pair_angle_boundary(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="boundary"):
            core.ray_angle(v, v)


class TestGeodesic:
    def test_endpoints_are_exact(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        v1, v2 = in_phase_gauge(a, b)
        lift = geodesic_lift(v1, v2, grid=65)
        assert np.array_equal(lift.psi[0], core.normalize(v1))
        assert np.array_equal(lift.psi[-1], core.normalize(v2))

    def test_overlap_depends_only_on_parameter_gap(self, rng):
        lift = make_geodesic(rng, grid=129)
        _, theta0 = core.ray_angle(lift.psi[0], lift.psi[-1])
        i, j = 17, 90
        want = np.cos((lift.s[j] - lift.s[i]) * theta0 / 2)
        assert core.inner(lift.psi[i], lift.psi[j]) == pytest.approx(want)

    def test_requires_in_phase_input(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        v1, v2 = in_phase_gauge(a, b)
        with pytest.raises(ValueError, match="in phase"):
            geodesic_lift(v1, v2 * np.exp(0.5j))

    def test_coincident_endpoints_rejected(self, rng):
        v = core.normalize(core.random_state(3, rng))
        with pytest.raises(ValueError, match="coincident"):
            geodesic_lift(v, v)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_rows_match_the_outer_products(self, rng, dim):
        for grid in (3, 9, 257, 1025):
            v1, v2 = in_phase_gauge(core.random_state(dim, rng),
                                    core.random_state(dim, rng))
            if dim == 3:
                v1[int(rng.integers(3))] = 0.0  # exact zeros keep their sign
                v1 = core.normalize(v1)
                v1, v2 = in_phase_gauge(v1, v2)
            lift = geodesic_lift(v1, v2, grid=grid)
            u1, u2 = core.normalize(v1), core.normalize(v2)
            e2, theta0 = curves._pair_plane(u1, u2)
            want = oracle_geodesic_rows(u1, u2, e2, theta0, grid)
            assert lift.psi.tobytes() == want.tobytes()
            assert lift.s.tobytes() == np.linspace(0.0, 1.0, grid).tobytes()

    def test_lifts_share_one_read_only_grid(self, rng):
        a, b = make_geodesic(rng, grid=33), make_geodesic(rng, grid=33)
        assert a.s is b.s
        with pytest.raises(ValueError, match="read-only"):
            a.s[1] = 0.5
        with pytest.raises(ValueError):
            a.s.flags.writeable = True
        with pytest.raises(ValueError):
            b.s.flags.writeable = True
        assert make_geodesic(rng, grid=33).s.tobytes() == \
            np.linspace(0.0, 1.0, 33).tobytes()

    def test_grid_size_must_be_an_integer(self, rng):
        make_geodesic(rng, grid=33)  # cached: 33.0 must not hit it
        v1, v2 = in_phase_gauge(core.random_state(3, rng), core.random_state(3, rng))
        with pytest.raises(TypeError):
            geodesic_lift(v1, v2, grid=33.0)
        assert geodesic_lift(v1, v2, grid=np.int64(33)).s.size == 33
        with pytest.raises(ValueError, match="3 samples"):
            geodesic_lift(v1, v2, grid=2)


def pair_at_overlap(rng, n, c):
    """Unit n-vectors a and b with |(a, b)| = c, b carrying a random phase."""
    a = core.random_state(n, rng)
    w = core.random_state(n, rng)
    w -= np.vdot(a, w) * a
    w /= np.linalg.norm(w)
    phase = np.exp(2j * np.pi * rng.uniform())
    return a, phase * (c * a + np.sqrt(1.0 - c * c) * w)


class TestNearOrthogonalPairs:
    """A pair that in_phase_gauge accepts, however near orthogonal, gives
    a geodesic that the null-phase check accepts; the phase of an overlap
    of modulus c carries about eps / c of rounding, which neither the pair
    test nor the check counts against it."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_accepted_pairs_give_accepted_lifts(self, rng, n):
        # c log-uniform from the degeneracy tolerance to 1
        for c in np.exp(rng.uniform(np.log(TAU_DEG), 0.0, size=60)):
            v1, v2 = in_phase_gauge(*pair_at_overlap(rng, n, c))
            lift = geodesic_lift(v1, v2)
            report = verify_npc(lift)
            assert report.ok, (c, report.violations[:1])
            # a geodesic's integral is 0: within the estimate, up to the
            # rounding of the turns it sums
            _, estimate = _polygon_phase(lift)
            assert abs(connection_integral(lift)) <= estimate + lift.s.size * EPS

    def test_a_phase_beyond_rounding_is_refused(self, rng):
        # Im ov = c sin(1e-3) lies above 2 n eps even at c = 1e-11
        for c in (1e-4, 1e-8, 1e-11):
            v1, v2 = in_phase_gauge(*pair_at_overlap(rng, 5, c))
            with pytest.raises(ValueError, match="in phase"):
                geodesic_lift(v1, v2 * np.exp(1e-3j))

    def test_wobble_between_near_orthogonal_ends_is_rejected(self, rng):
        for c in (1e-4, 1e-8, 1e-11):
            frame = frame_from_pair(*pair_at_overlap(rng, 4, c))
            assert verify_npc(wobble(rng, 0.0, frame=frame)).ok
            assert not verify_npc(wobble(rng, 0.3, frame=frame)).ok


class TestFrameFromPair:
    def test_orthonormal_and_spanning(self, rng):
        a = core.random_state(5, rng)
        b = core.random_state(5, rng)
        frame = frame_from_pair(a, b)
        v = frame.vectors
        assert v.shape == (3, 5)
        assert np.allclose(np.conjugate(v) @ v.T, np.eye(3), atol=1e-12)
        # both states lie in the span of the first two frame vectors
        v1, v2 = in_phase_gauge(a, b)
        for w in (v1, v2):
            coeffs = np.conjugate(v[:2]) @ w
            assert np.linalg.norm(v[:2].T @ coeffs - w) < 1e-12

    def test_opening_angle_matches_pair(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        assert frame_from_pair(a, b).theta0 == pytest.approx(core.ray_angle(a, b)[1])

    def test_dimension_two_is_refused(self, rng):
        # the family's frame has three vectors
        a = core.random_state(2, rng)
        b = core.random_state(2, rng)
        with pytest.raises(ValueError, match="dimension at least 3, got 2"):
            frame_from_pair(a, b)


def nonlocal_only_profile(theta0):
    c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
    rows = np.array([
        [1.0, 0.0, 0.0],
        [0.1, 0.3, -0.95],
        [0.6, -0.45, 0.66],
        [c0, s0, 0.0],
    ])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return RealProfile(np.linspace(0, 1, 4), rows)


def signed_profile(theta0, eps, n=3, grid=257):
    """Valid profile whose third component changes sign: b = eps sin(2 pi s)."""
    s = np.linspace(0.0, 1.0, grid)
    a = 0.5 * theta0 * s
    b = eps * np.sin(2 * np.pi * s)
    x = np.zeros((grid, n))
    x[:, 0] = np.cos(a)
    x[:, 1] = np.sin(a) * np.cos(b)
    x[:, 2] = np.sin(a) * np.sin(b)
    return RealProfile(s, x)


class TestProfileFamily:
    def test_boundary_values(self):
        theta0 = 2 * np.pi / 3
        profile = generate_npc_profile(theta0, 0.8, grid=33)
        assert np.allclose(profile.x[0], [1, 0, 0], atol=1e-15)
        assert np.allclose(profile.x[-1],
                           [np.cos(theta0 / 2), np.sin(theta0 / 2), 0],
                           atol=1e-12)

    def test_eps_zero_is_planar(self):
        profile = generate_npc_profile(1.0, 0.0, grid=33)
        assert np.all(profile.x[:, 2] == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta0"):
            generate_npc_profile(np.pi, 0.5)
        with pytest.raises(ValueError, match="eps"):
            generate_npc_profile(1.0, np.pi / 2)

    @pytest.mark.parametrize("grid", [0, 1, 2])
    def test_grid_below_three_samples_is_rejected(self, grid):
        # validate_profile indexes the first and last sample, and no lift
        # can be built from fewer than three
        with pytest.raises(ValueError, match="at least 3 samples"):
            generate_npc_profile(1.0, 0.3, grid=grid)

    def test_grid_of_two_axes_is_refused(self):
        # a (3, 3) grid is not flattened into nine samples
        with pytest.raises(ValueError, match=r"1-D, got shape \(3, 3\)"):
            RealProfile(np.linspace(0.0, 1.0, 9).reshape(3, 3), np.ones((9, 2)))

    def test_single_component_is_rejected(self):
        # the end condition (C0, S0, 0, ...) needs a second component
        with pytest.raises(ValueError, match="at least 2 components"):
            RealProfile(np.linspace(0.0, 1.0, 5), np.ones((5, 1)))

    def test_family_profiles_validate(self):
        for eps in (0.0, 0.5, 1.2):
            profile = widened(generate_npc_profile(2.0, eps, grid=65), 4)
            assert validate_profile(profile, 2.0) == []


class TestValidateProfile:
    def test_boundary_violation(self):
        profile = generate_npc_profile(1.0, 0.5, grid=17)
        x = profile.x.copy()
        x[0] = [0.0, 1.0, 0.0]
        violations = validate_profile(RealProfile(profile.s, x), 1.0)
        assert violations
        assert violations[0]["kind"] == "boundary"

    def test_norm_violation(self):
        profile = generate_npc_profile(1.0, 0.5, grid=17)
        x = profile.x.copy()
        x[8] *= 1.5
        violations = validate_profile(RealProfile(profile.s, x), 1.0)
        assert any(v["kind"] == "local" for v in violations)

    def test_sign_violation(self):
        profile = generate_npc_profile(1.0, 0.5, grid=17)
        x = profile.x.copy()
        x[8, 0] *= -1.0
        violations = validate_profile(RealProfile(profile.s, x), 1.0)
        kinds = {v["kind"] for v in violations}
        assert "local" in kinds

    def test_nonlocal_violation_alone(self):
        # two interior samples pass every pointwise check yet point almost
        # opposite ways, so only their pairwise overlap trips the scan
        theta0 = 0.4
        violations = validate_profile(nonlocal_only_profile(theta0), theta0)
        kinds = [v["kind"] for v in violations]
        assert kinds and set(kinds) == {"nonlocal"}

    @pytest.mark.parametrize("where", ["x", "s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_is_rejected(self, where, value):
        # NaN compares False both ways, so no check downstream would flag it
        profile = generate_npc_profile(1.0, 0.5, grid=17)
        s, x = profile.s.copy(), profile.x.copy()
        if where == "x":
            x[8, 1] = value
        else:
            s[8] = value
        with pytest.raises(ValueError, match="non-finite sample in profile"):
            RealProfile(s, x)

    @pytest.mark.parametrize("theta0", [np.nan, 0.0, np.pi, -1.0, np.inf])
    def test_theta0_outside_the_open_interval_is_rejected(self, theta0):
        # a NaN end point fails every comparison, so no violation is named
        profile = generate_npc_profile(1.0, 0.3)
        with pytest.raises(ValueError,
                           match=r"theta0 must lie strictly inside \(0, pi\)"):
            validate_profile(profile, theta0)
        with pytest.raises(ValueError, match="theta0"):
            CurveFrame(np.eye(2, dtype=complex), theta0)


class TestProfileToLift:
    def test_width_mismatch(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        profile = widened(generate_npc_profile(frame.theta0, 0.5, grid=17), 4)
        with pytest.raises(ValueError, match="width"):
            profile_to_lift(frame, profile)

    def test_invalid_profile_raises(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        profile = generate_npc_profile(frame.theta0, 0.5, grid=17)
        x = profile.x.copy()
        x[5] *= 1.01
        bad = RealProfile(profile.s, x)
        with pytest.raises(ValueError, match="invalid profile"):
            profile_to_lift(frame, bad)

    def test_lift_keeps_its_own_grid(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        s = np.linspace(0.0, 1.0, 33)
        want = generate_npc_profile(frame.theta0, 0.7, grid=33)
        lift = profile_to_lift(frame, RealProfile(s, want.x))
        s *= 2.0  # the profile holds the caller's grid, the lift a copy
        assert np.array_equal(lift.s, want.s)
        assert not lift.s.flags.writeable and not lift.psi.flags.writeable

    def test_lift_matches_frame_combination(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        profile = generate_npc_profile(frame.theta0, 0.7, grid=33)
        lift = profile_to_lift(frame, profile)
        want = profile.x.astype(complex) @ frame.vectors
        assert np.allclose(lift.psi, want)


class TestProfileCheckMatchesFullScan:
    """``validate_profile`` against the all-pairs check in ``profile_oracle``."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = curves._nonlocal_violations

        def counted(x):
            calls.append(x.shape)
            return scan(x)

        monkeypatch.setattr(curves, "_nonlocal_violations", counted)
        return calls

    def assert_parity(self, profile, theta0, tol=TAU_PROFILE):
        got = validate_profile(profile, theta0)
        assert got == oracle_violations(profile, theta0, tol=tol)
        return got

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("grid", [5, 17, 257, 1025])
    def test_eps_family(self, n, grid):
        for eps in (0.0, 0.8, 1.2):
            for theta0 in (np.pi / 6, 5 * np.pi / 6):
                profile = widened(generate_npc_profile(theta0, eps, grid=grid), n)
                assert self.assert_parity(profile, theta0) == []

    def test_eps_family_never_reaches_the_scan(self, monkeypatch):
        def refuse(x):
            raise AssertionError("the Gram scan ran on a certified profile")

        monkeypatch.setattr(curves, "_nonlocal_violations", refuse)
        for n in (3, 4, 5, 8):
            for grid in (5, 17, 257, 1025):
                for eps in (0.0, 0.3, 0.8, 1.2, 1.5):
                    for theta0 in (0.05, np.pi / 2, 3.0):
                        profile = widened(
                            generate_npc_profile(theta0, eps, grid=grid), n)
                        assert validate_profile(profile, theta0) == []

    @pytest.mark.parametrize("theta0, eps", [(2.5, 0.9), (2.8, 0.3), (3.0, 1.2)])
    @pytest.mark.parametrize("n", [3, 5])
    def test_signed_valid_profiles_run_the_scan(self, scans, theta0, eps, n):
        profile = signed_profile(theta0, eps, n=n)
        assert self.assert_parity(profile, theta0) == []
        assert scans == [profile.x.shape]

    def test_signed_profile_with_room_is_certified(self, scans):
        # the sign change of x_3 costs less than x_1 alone guarantees
        profile = signed_profile(2.0, 0.6)
        assert self.assert_parity(profile, 2.0) == []
        assert scans == []

    def test_nonlocal_violation_alone(self, scans):
        got = self.assert_parity(nonlocal_only_profile(0.4), 0.4)
        assert {v["kind"] for v in got} == {"nonlocal"}
        assert len(scans) == 1

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("gap", [-0.5, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 0.5])
    def test_norms_at_the_tolerance(self, monkeypatch, scans, tol, gap):
        # a repeated sample makes an off-diagonal Gram entry equal its
        # squared norm, 1 + tol + gap (gap = +-0.5 stands for +-tol/2)
        monkeypatch.setattr(curves, "TAU_PROFILE", tol)
        theta0 = 1.0
        profile = generate_npc_profile(theta0, 0.5, grid=17)
        x = profile.x.copy()
        x[9] = x[8]
        shift = gap * tol if abs(gap) == 0.5 else gap
        x[8:10] *= np.sqrt(1 + tol + shift)
        got = self.assert_parity(RealProfile(profile.s, x), theta0, tol=tol)
        nonlocal_pairs = [v["pair"] for v in got if v["kind"] == "nonlocal"]
        if gap >= 1e-13:
            assert nonlocal_pairs == [[8, 9]]
        if gap <= -1e-13:
            assert nonlocal_pairs == []
            assert scans == []  # clear of the rounding slack: certified
        if abs(gap) <= 1e-15:
            assert scans  # within the rounding slack: the scan decides

    def test_exactly_orthogonal_pair(self, scans):
        theta0 = 1.0
        c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
        rows = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.5, 0.5, 0.5, 0.5],
                         [0.5, -0.5, 0.5, -0.5],
                         [c0, s0, 0.0, 0.0]])
        got = self.assert_parity(RealProfile(np.linspace(0, 1, 4), rows), theta0)
        assert got == [{"kind": "nonlocal", "pair": [1, 2],
                        "detail": "overlap 0.000000e+00 outside (0, 1]"}]
        assert len(scans) == 1

    def test_random_profiles(self, rng, scans):
        # unit rows with positive or signed components, some repeated and
        # rescaled around the tolerance, through both paths
        certified = 0
        for trial in range(400):
            m = int(rng.integers(2, 6))
            x = rng.uniform(-0.2 if trial % 2 else 0.05, 1.0, size=(6, m))
            x[:, 0] = np.abs(x[:, 0]) + 0.1
            x /= np.linalg.norm(x, axis=1)[:, None]
            x[3] = x[2]
            x[2:4] *= np.sqrt(1 + 1e-9 * rng.uniform(-2.0, 2.0))
            before = len(scans)
            self.assert_parity(RealProfile(np.linspace(0, 1, 6), x), 1.0)
            certified += len(scans) == before
        assert 0 < certified < 400

    @staticmethod
    def laid_out(x, layout):
        if layout == "C":
            return np.ascontiguousarray(x)
        if layout == "F":
            return np.asfortranarray(x)
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, 1::2] = x
        return wide[:, 1::2]

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_layouts_match_the_old_route(self, rng, scans, layout, m):
        # certified families, rows that fail the local checks, and signed
        # components that leave the decision to the scan
        theta0 = 2.2
        family = widened(generate_npc_profile(theta0, 0.8, grid=257), m)
        cases = [family.x, signed_profile(2.8, 0.3, n=m).x]
        bent = family.x.copy()
        bent[5] *= 1.01
        bent[9, 0] *= -1.0
        bent[40] *= 1.0 + 2e-9
        bent[41] *= 1.0 - 2e-9
        cases.append(bent)
        long = family.x.copy()
        long[100] *= 1.0 + 2e-9  # signs certify; only max |x|^2 refuses
        cases.append(long)
        for _ in range(4):
            x = rng.uniform(-0.3, 1.0, size=(33, m))
            x[:, 0] = np.abs(x[:, 0]) + 0.05
            x /= np.linalg.norm(x, axis=1)[:, None]
            cases.append(x)
        decisions = set()
        for x in cases:
            profile = RealProfile(np.linspace(0, 1, x.shape[0]),
                                  self.laid_out(x, layout))
            if layout == "sliced":
                assert not (profile.x.flags.c_contiguous
                            or profile.x.flags.f_contiguous)
            before = len(scans)
            got = validate_profile(profile, theta0)
            assert repr(got) == repr(oracle_violations(profile, theta0))
            certified = len(scans) == before
            assert certified == oracle_certified(profile.x)
            decisions.add(certified)
        assert decisions == {True, False}

    def test_criterion_8_validates_each_profile_once(self, monkeypatch):
        calls = []
        check = curves.validate_profile

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(curves, "validate_profile", counted)
        (result,) = selftest.run(numbers=[8])
        assert result.passed, result.detail
        assert len(calls) == 60


class TestSubgridIndices:
    def test_cached_indices_match_the_formula(self):
        for n_samples in range(3, 300, 7):
            for subgrid in (3, 4, 5, 9, 21, 64, 257, 1025):
                got = _subgrid_indices(n_samples, subgrid)
                if subgrid >= n_samples:
                    want = np.arange(n_samples)
                else:
                    want = np.unique(np.linspace(0, n_samples - 1, subgrid)
                                     .round().astype(int))
                assert np.array_equal(got, want)
                assert not got.flags.writeable
                assert _subgrid_indices(n_samples, subgrid) is got

    def test_first_differences_are_the_unique_indices(self):
        # every sample count below 2100 against every subgrid from 3 to 69,
        # through the uncached function, so the cache keeps its entries.
        # One np.unique per subgrid lists the indices of every count, the
        # rows told apart by 4096 times the count; as each row starts at
        # its only 0, the concatenated rows equal exactly when each does
        uncached = _subgrid_indices.__wrapped__
        for subgrid in range(3, 70):
            counts = np.arange(subgrid + 1, 2100)
            grids = np.linspace(0, counts - 1, subgrid, axis=1).round().astype(int)
            want = np.unique(grids + 4096 * counts[:, None]) % 4096
            got = np.concatenate([uncached(n, subgrid) for n in counts.tolist()])
            assert np.array_equal(got, want)

    def test_first_check_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call, which took longer
        # than the whole check of a fresh interpreter's first curve
        code = ("import sys, numpy as np; from holonomy_lab import curves; "
                "v = np.eye(3, dtype=complex); "
                "report = curves.verify_npc(curves.geodesic_lift(v[0], v[0] + v[1])); "
                "sys.exit(not report.ok or 'numpy.ma' in sys.modules)")
        src = pathlib.Path(curves.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestPivotPairs:
    def test_cached_mask_matches_the_cleared_copy(self):
        for size in range(3, 26):
            for pivot in range(size):
                mask, j, k = _pivot_pairs(size, pivot)
                want = np.triu(np.ones((size, size), dtype=bool), k=1)
                want[pivot] = False
                want[:, pivot] = False
                assert np.array_equal(mask, want)
                want_j, want_k = np.nonzero(want)
                assert np.array_equal(j, want_j) and np.array_equal(k, want_k)
                assert not any(a.flags.writeable for a in (mask, j, k))
                assert _pivot_pairs(size, pivot)[0] is mask

    def test_reports_do_not_share_the_cache(self):
        lift = latitude_arc(0.7, 1.5, 3)
        report = verify_npc(lift)
        assert report.triples.size and report.triples.flags.writeable
        want = report.triples.copy()
        report.triples[:] = -1
        assert np.array_equal(verify_npc(lift).triples, want)


class TestVerifyNpc:
    def test_geodesic_passes(self, rng):
        report = verify_npc(make_geodesic(rng, grid=129))
        assert report.ok
        assert report.checked == 1330  # C(21, 3) triples
        assert report.min_real > 0

    def test_component_wobble_is_caught(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        profile = generate_npc_profile(frame.theta0, 0.6, grid=129)
        lift = profile_to_lift(frame, profile)
        psi = lift.psi.copy()
        psi[:, 2] *= np.exp(0.3j * np.sin(np.pi * lift.s))
        report = verify_npc(CurveLift(lift.s, psi))
        assert not report.ok
        assert report.violations

    def test_subgrid_larger_than_curve_uses_all_samples(self, rng):
        lift = make_geodesic(rng, grid=9)
        report = verify_npc(lift, subgrid=50)
        assert report.checked == 84  # C(9, 3)

    @pytest.mark.parametrize("subgrid", [2, 1, 0, -1])
    def test_subgrid_below_three_rejected(self, rng, subgrid):
        with pytest.raises(ValueError, match="subgrid must be at least 3"):
            verify_npc(make_geodesic(rng, grid=9), subgrid=subgrid)

    def test_accepted_report_holds_empty_arrays(self, rng):
        report = verify_npc(make_geodesic(rng, grid=129))
        assert report.ok
        assert report.triples.shape == (0, 3)
        assert report.deltas.shape == (0,)
        assert report.violations == []

    def test_rejected_report_holds_arrays(self):
        report = verify_npc(latitude_arc(0.7, 1.5, 3))
        assert not report.ok
        assert report.triples.shape == (190, 3)
        assert report.triples.dtype.kind == "i"
        assert report.deltas.dtype == complex
        assert report.deltas.shape == (190,)
        first = report.violations[0]
        assert first["indices"] == report.triples[0].tolist()
        assert first["delta"] == [report.deltas[0].real, report.deltas[0].imag]


def wobble(rng, amplitude, grid=129, frame=None):
    """Eps-family lift whose third frame component picks up a phase."""
    if frame is None:
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
    lift = profile_to_lift(frame, generate_npc_profile(frame.theta0, 0.6,
                                                       grid=grid))
    psi = lift.psi.copy()
    psi[:, 2] *= np.exp(1j * amplitude * np.sin(np.pi * lift.s))
    return CurveLift(lift.s, psi)


def latitude_arc(theta, span, n, grid=257):
    """Spin-coherent states along a latitude circle: not a null phase curve."""
    s = np.linspace(0.0, 1.0, grid)
    psi = [pure_product_state([np.cos(theta / 2),
                               np.exp(1j * span * t) * np.sin(theta / 2)], n)
           for t in s]
    return CurveLift(s, np.array(psi))


def quarter_circle(grid=257):
    """Geodesic from e1 to e2 exactly: its end samples are orthogonal."""
    a = 0.5 * np.pi * np.linspace(0.0, 1.0, grid)
    psi = np.stack([np.cos(a), np.sin(a), np.zeros(grid)], axis=1)
    psi[-1] = [0.0, 1.0, 0.0]
    return CurveLift(np.linspace(0.0, 1.0, grid), psi.astype(complex))


def octant_edges(grid=259):
    """Path e1 -> e2 -> e3 along the octant edges: every sample has an
    exactly orthogonal partner on the subgrid, so every pivot is degenerate."""
    t = np.linspace(0.0, 1.0, grid)
    a = np.pi * np.minimum(t, 0.5)
    b = np.pi * np.maximum(t - 0.5, 0.0)
    psi = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(b)], axis=1)
    psi[np.abs(psi) < 1e-15] = 0.0
    return CurveLift(t, psi.astype(complex))


class TestPivotCheckMatchesTripleScan:
    """The pivot check against the all-triples scan in ``npc_oracle``."""

    def assert_parity(self, lift, **kwargs):
        got = verify_npc(lift, **kwargs)
        want = oracle_scan(lift, **kwargs)
        assert got.ok == want.ok
        assert got.checked == want.checked
        if got.ok:
            # every subgrid triple, not just those through the pivot
            assert want.max_rel_imag <= TAU_NPC
            assert want.min_real > 0
        # the pivot triples are among the scanned ones, up to the rounding
        # of a product taken in another order
        assert got.max_rel_imag <= want.max_rel_imag + 1e-14
        assert got.min_real >= want.min_real - 1e-14
        return got, want

    @pytest.mark.parametrize("n", range(2, 9))
    def test_geodesics(self, rng, n):
        for _ in range(5):
            got, _ = self.assert_parity(make_geodesic(rng, dim=n))
            assert got.ok

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.8, 1.2])
    def test_eps_family(self, rng, eps):
        for theta0 in (np.pi / 6, np.pi / 2, 5 * np.pi / 6):
            frame = CurveFrame(np.eye(3, dtype=complex), theta0)
            lift = profile_to_lift(frame, generate_npc_profile(theta0, eps))
            got, _ = self.assert_parity(lift)
            assert got.ok
            frame = frame_from_pair(core.random_state(5, rng),
                                    core.random_state(5, rng))
            lift = profile_to_lift(frame, generate_npc_profile(frame.theta0, eps))
            got, _ = self.assert_parity(lift)
            assert got.ok

    def test_component_wobble(self, rng):
        got, want = self.assert_parity(wobble(rng, 0.3))
        assert not got.ok
        assert got.violations and want.violations

    def test_small_wobbles_accept_only_what_the_scan_accepts(self, rng):
        verdicts = []
        for amplitude in np.logspace(-13, -8, 11):
            lift = wobble(rng, amplitude)
            got = verify_npc(lift)
            want = oracle_scan(lift)
            verdicts.append(got.ok)
            if got.ok:
                assert want.ok and want.max_rel_imag <= TAU_NPC
        assert verdicts[0] and not verdicts[-1]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_latitude_arcs(self, n):
        for theta in (0.7, 2.2):
            got, _ = self.assert_parity(latitude_arc(theta, 1.5, n))
            assert not got.ok

    def test_orthogonal_end_samples(self):
        lift = quarter_circle()
        assert abs(core.inner(lift.psi[0], lift.psi[-1])) == 0.0
        got, want = self.assert_parity(lift)
        assert not got.ok
        # the pivot avoids both orthogonal samples, which meet in one pair
        assert len(got.violations) == 1
        assert got.violations[0]["indices"][1:] == [0, 256]

    def test_every_pivot_degenerate(self):
        got, _ = self.assert_parity(octant_edges())
        assert not got.ok

    def test_small_subgrids(self, rng):
        for subgrid in (3, 4, 9):
            self.assert_parity(make_geodesic(rng), subgrid=subgrid)
            self.assert_parity(wobble(rng, 0.3), subgrid=subgrid)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_allowance_holds_each_triple_to_its_pivot_triples(self, rng, n):
        # a pivot triple that passes through the rounding allowance holds
        # the scanned triple [i, j, k] to TAU_NPC plus the relative
        # allowances a(p, i, j) + a(p, j, k) + a(p, k, i), not to TAU_NPC
        plain = []
        for c in (1e-5, 1e-8, 1e-11, 2.0 * TAU_DEG):
            lift = geodesic_lift(*in_phase_gauge(*pair_at_overlap(rng, n, c)))
            assert verify_npc(lift).ok
            p = lift.psi[curves._subgrid_indices(lift.s.size, DEFAULT_SUBGRID)]
            gram = np.conjugate(p) @ p.T
            inv = 1.0 / np.abs(gram)
            pivot = int(np.argmax(np.abs(gram).min(axis=1)))
            # the bound on arg Delta(p, x, y) for each pair (x, y); a pair
            # through the pivot adds no phase
            pair = TAU_NPC / 3.0 + 2.0 * n * EPS * (inv[pivot][:, None] + inv
                                                      + inv[:, pivot])
            pair[pivot] = 0.0
            pair[:, pivot] = 0.0
            i, j, k = np.array(list(itertools.combinations(range(p.shape[0]), 3))).T
            phase = np.abs(np.angle(gram[i, j] * gram[j, k] * gram[k, i]))
            assert np.all(phase <= pair[i, j] + pair[j, k] + pair[k, i])
            plain.append(oracle_scan(lift).ok)
        # the plain bound does not hold on all of them
        assert not all(plain)

    def test_report_matches_pivot_loop(self, rng):
        # a real curve whose samples lie within TAU_DEG of orthogonal to
        # every possible pivot: every invariant is real and positive, yet
        # the check must fail.  The tilt of the last sample makes it the
        # pivot at subgrid 3, with its near-orthogonal partner before it.
        near = octant_edges()
        psi = near.psi + 1e-14
        psi[-1] += 4e-13
        near = CurveLift(near.s, psi / np.linalg.norm(psi, axis=1)[:, None])
        assert oracle_scan(near).ok
        # a geodesic between rays 1e-9 from orthogonal, whose invariants
        # through its ends pass only with the rounding allowance, and a
        # wobble between such rays, which fails
        ends = in_phase_gauge(*pair_at_overlap(rng, 4, 1e-9))
        frame = frame_from_pair(*ends)
        lifts = [make_geodesic(rng), wobble(rng, 0.3), wobble(rng, 1e-9),
                 latitude_arc(0.7, 1.5, 3), quarter_circle(), octant_edges(),
                 near, geodesic_lift(*ends), wobble(rng, 0.3, frame=frame)]
        for lift in lifts:
            for subgrid in (3, 9, 21):
                got = verify_npc(lift, subgrid=subgrid)
                want = oracle_pivot_report(lift, subgrid=subgrid)
                assert [v["indices"] for v in got.violations] == \
                    [v["indices"] for v in want.violations]
                # Python and NumPy round a complex product alike only
                # up to an ulp of its parts
                assert np.allclose([v["delta"] for v in got.violations],
                                   [v["delta"] for v in want.violations],
                                   rtol=0.0, atol=1e-15)
                assert got.min_real == pytest.approx(want.min_real, abs=1e-15)
                assert got.max_rel_imag == pytest.approx(want.max_rel_imag,
                                                         abs=1e-15)
        assert not verify_npc(near).ok

    def test_violations_name_pivot_triples(self, rng):
        report = verify_npc(wobble(rng, 0.3))
        pivots = {v["indices"][0] for v in report.violations}
        assert len(pivots) == 1
        for v in report.violations:
            assert all(type(i) is int for i in v["indices"])
            assert all(type(x) is float for x in v["delta"])

    def test_violations_match_the_list_route(self, rng):
        # the list built on read against the list the report once held
        lifts = [make_geodesic(rng), wobble(rng, 0.3), wobble(rng, 1e-9),
                 latitude_arc(0.7, 1.5, 3), latitude_arc(2.2, 1.5, 5),
                 quarter_circle(), octant_edges()]
        rejected = 0
        for lift in lifts:
            for subgrid in (3, 9, 21, 41):
                got = verify_npc(lift, subgrid=subgrid)
                want = oracle_report(lift, subgrid=subgrid)
                assert repr(got.violations) == repr(want.violations)
                assert (got.ok, got.checked) == (want.ok, want.checked)
                assert repr((got.min_real, got.max_rel_imag)) == \
                    repr((want.min_real, want.max_rel_imag))
                rejected += not got.ok
        assert rejected >= 12


def arc_integral(theta, span, n):
    """Exact connection integral of ``latitude_arc``."""
    return (n - 1) * np.sin(theta / 2) ** 2 * span


class TestQuadrature:
    def test_derivative_accuracy(self):
        s = np.linspace(0.0, 1.0, 201)
        d = oracle_derivative(np.sin(3 * s), s[1] - s[0])
        assert np.max(np.abs(d - 3 * np.cos(3 * s))) < 1e-7

    def test_derivative_needs_five_samples(self):
        with pytest.raises(ValueError, match="5 samples"):
            oracle_derivative(np.zeros(4), 0.1)

    def test_simpson_exact_on_cubics(self):
        s = np.linspace(0.0, 2.0, 21)
        vals = s**3 - 2 * s
        assert simpson(vals, s[1] - s[0]) == pytest.approx(4.0 - 4.0)

    def test_simpson_rejects_even_grids(self):
        with pytest.raises(ValueError, match="odd"):
            simpson(np.zeros(10), 0.1)

    def test_even_grid_rejected(self, rng):
        lift = make_geodesic(rng, grid=64)
        with pytest.raises(ValueError, match="odd grid"):
            connection_integral(lift)

    def test_twist_integral_both_error_branches(self, rng):
        # grid 257 takes its error estimate on all samples, 259 on the
        # first 257; a geodesic's own overlaps are real, so the twist is
        # all there is to integrate
        for grid in (257, 259):
            lift = make_geodesic(rng, grid=grid)
            twisted = twist(lift, lambda s: 0.5 * s + 0.3 * np.sin(2 * np.pi * s))
            assert connection_integral(twisted) == pytest.approx(0.5, abs=1e-13)

    def test_real_lift_has_exactly_zero_integral(self, rng):
        # real positive overlaps have argument exactly 0, so the result is
        # exact zero; a complex frame leaves only arithmetic roundoff
        c = np.linspace(0, 1, 257)
        x = np.stack([np.cos(0.7 * c), np.sin(0.7 * c)], axis=1)
        lift = CurveLift(c, x.astype(complex))
        assert connection_integral(lift) == 0.0
        assert abs(connection_integral(make_geodesic(rng))) < 1e-14

    def test_undersampled_arc_raises(self):
        # 12 rad of azimuth over 64 steps: the estimate reads about 1e-4
        with pytest.raises(ValueError, match="too coarse"):
            connection_integral(latitude_arc(1.1, 12.0, 3, grid=65))

    @pytest.mark.parametrize("grid", [5, 7, 9])
    def test_short_grids_integrate(self, rng, grid):
        # grids 5 and 9 take the error estimate on all samples, grid 7 on
        # the first 5
        twisted = twist(make_geodesic(rng, grid=grid), lambda s: 0.5 * s)
        assert connection_integral(twisted) == pytest.approx(0.5, abs=1e-14)

    def test_nan_error_estimate_fails(self, rng, monkeypatch):
        lift = make_geodesic(rng)
        monkeypatch.setattr(curves, "_polygon_phase", lambda lift: (0.0, np.nan))
        with pytest.raises(ValueError, match="too coarse"):
            connection_integral(lift)

    def test_fourth_order_rate(self):
        # the h^4 term sets both errors here, far above the rounding; a
        # plain phase sum would give 16
        for n in (3, 5):
            exact = arc_integral(1.1, 6.0, n)
            coarse, fine = (connection_integral(latitude_arc(1.1, 6.0, n, grid=g)) - exact
                            for g in (257, 1025))
            assert 250.0 < coarse / fine < 262.0

    def test_estimate_tracks_the_error(self):
        for n in (2, 3, 5):
            for theta in (0.7, 1.6, 2.8):
                for span in (3.0, 6.0):
                    lift = latitude_arc(theta, span, n)
                    result, estimate = _polygon_phase(lift)
                    error = abs(result - arc_integral(theta, span, n))
                    assert 0.5 * error < estimate < 2.0 * error

    def test_prefix_estimate(self):
        # a grid of 259 estimates its error on the first 257 samples and
        # integrates all 259
        lift = latitude_arc(1.1, 1.5, 3, grid=259)
        head = CurveLift(lift.s[:257], lift.psi[:257])
        result, estimate = _polygon_phase(lift)
        assert estimate == pytest.approx(_polygon_phase(head)[1], rel=1e-12)
        assert result == pytest.approx(arc_integral(1.1, 1.5, 3), abs=1e-10)

    def test_gauge_covariance(self, rng):
        # a twist moves every phase sum by chi(1) - chi(0) on the samples
        # it spans, so the result moves by that and the estimate not at all
        frame = frame_from_pair(core.random_state(4, rng), core.random_state(4, rng))
        for grid in (9, 257, 259):
            lifts = [latitude_arc(1.1, 1.5, 3, grid=grid),
                     profile_to_lift(frame, generate_npc_profile(frame.theta0, 0.8,
                                                                 grid=grid))]
            for lift in lifts:
                result, estimate = _polygon_phase(lift)
                for c in rng.uniform(-1.0, 1.0, size=(3, 3)):
                    chi = lambda s: c[0] + c[1] * s + c[2] * np.sin(2 * np.pi * s)
                    moved, moved_estimate = _polygon_phase(twist(lift, chi))
                    assert abs(moved - result - (chi(1.0) - chi(0.0))) < 1e-13
                    assert abs(moved_estimate - estimate) < 1e-15


def real_lift(rng, dim, grid):
    """Real unit samples along a normalized line: real pairwise overlaps."""
    s = np.linspace(0.0, 1.0, grid)
    u, w = rng.normal(size=(2, dim))
    x = u + s[:, None] * w
    return CurveLift(s, (x / np.linalg.norm(x, axis=1)[:, None]).astype(complex))


def assert_matches_polygon_oracle(lift):
    """Result and error estimate against ``oracle_polygon``; returns both."""
    result, estimate = _polygon_phase(lift)
    want, want_estimate = oracle_polygon(lift)
    assert abs(result - want) < 1e-13
    assert abs(estimate - want_estimate) < 1e-13
    return result, estimate


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("grid", [5, 7, 9, 257, 259, 1025])
class TestIntegralMatchesStencilOracle:
    """The result against the stencil route of ``quadrature_oracle``, within
    that route's own error, and result and estimate against its polygon
    route at every grid.

    The stencil route estimates its error on its halved grid at 257 and
    1025, where the comparison is made.  Grids 5, 9, 257 and 1025 take the
    error estimate on all samples, 7 and 259 on the first 5 and 257.
    """

    @pytest.fixture(autouse=True)
    def loose_bound(self, monkeypatch):
        # the bound is loose so that coarse grids still return a value
        monkeypatch.setattr(curves, "MAX_QUAD_ERROR", 1.0)

    @staticmethod
    def check(lift):
        got = connection_integral(lift)
        assert got == assert_matches_polygon_oracle(lift)[0]
        n = lift.s.size
        if (n - 1) % 4 == 0 and n >= 129:
            stencil, stencil_error = oracle_two_pass(lift)
            # the stencil route's error was measured at up to 2.6 times
            # its own estimate on these lifts
            assert abs(got - stencil) <= 4.0 * stencil_error + 1e-14
        return got

    def test_real_lifts(self, rng, grid, dim):
        for _ in range(3):
            lift = real_lift(rng, dim, grid)
            assert self.check(lift) == 0.0
            assert _polygon_phase(lift)[1] == 0.0

    def test_twisted_geodesics(self, rng, grid, dim):
        for _ in range(3):
            lift = make_geodesic(rng, dim=dim, grid=grid)
            got = self.check(twist(lift, lambda s: 0.9 * s + 0.4 * np.sin(2 * np.pi * s)))
            assert got == pytest.approx(0.9, abs=1e-13)

    def test_latitude_arcs(self, grid, dim):
        for theta in (0.7, 2.2):
            got = self.check(latitude_arc(theta, 1.5, dim, grid=grid))
            if grid >= 257:
                assert abs(got - arc_integral(theta, 1.5, dim)) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("grid", [7, 9, 11, 17, 257, 1025])
class TestEstimateMatchesTwoPass:
    """Result and error estimate against the polygon route of
    ``quadrature_oracle``, which forms every overlap afresh in a second
    pass over the samples, on lifts in C and F order, latitude arcs and
    eps-family lifts; then the bound as the raise reads it.
    """

    @staticmethod
    def lifts(rng, dim, grid):
        for order in ("C", "F"):
            lift = twist(make_geodesic(rng, dim=dim, grid=grid),
                         lambda s: 0.9 * s + 0.4 * np.sin(2 * np.pi * s))
            yield CurveLift(lift.s, np.asarray(lift.psi, order=order))
        yield latitude_arc(1.1, 1.5, dim, grid=grid)
        if dim >= 3:
            frame = frame_from_pair(core.random_state(dim, rng),
                                    core.random_state(dim, rng))
            yield profile_to_lift(
                frame, generate_npc_profile(frame.theta0, 0.8, grid=grid))

    def test_result_and_estimate(self, rng, monkeypatch, grid, dim):
        for lift in self.lifts(rng, dim, grid):
            assert_matches_polygon_oracle(lift)
        # a bound equal to the estimate passes, one ulp below fails
        arc = latitude_arc(1.1, 1.5, dim, grid=grid)
        result, estimate = _polygon_phase(arc)
        assert estimate > 0.0
        monkeypatch.setattr(curves, "MAX_QUAD_ERROR", estimate)
        assert connection_integral(arc) == result
        monkeypatch.setattr(curves, "MAX_QUAD_ERROR", np.nextafter(estimate, 0.0))
        with pytest.raises(ValueError, match="too coarse"):
            connection_integral(arc)


class TestOpenCurvePhase:
    def test_gauge_invariance(self, rng):
        lift = make_geodesic(rng)
        *_, base = open_curve_phase(lift)
        twisted = twist(lift, lambda s: 1.3 * s - 0.4 * np.sin(2 * np.pi * s))
        integral, endpoint, phase = open_curve_phase(twisted)
        assert abs(integral) > 0.1  # the twist moves both parts, not the phase
        assert_angle_close(phase, base, tol=1e-8)

    def test_geodesic_phase_vanishes(self, rng):
        assert open_curve_phase(make_geodesic(rng)) == pytest.approx((0.0, 0.0, 0.0))


class TestLoopPhase:
    def sides(self, vertices, grid=257):
        out = []
        for a, start in enumerate(vertices):
            v1, v2 = in_phase_gauge(start, vertices[(a + 1) % len(vertices)])
            out.append(geodesic_lift(v1, v2, grid=grid))
        return out

    def test_triangle_matches_triad_phase(self, rng):
        triad = random_triad(rng, 4)
        got = loop_geometric_phase(self.sides(triad))
        assert_angle_close(got, core.bi_phase(*triad), tol=1e-8)

    def test_gauge_twist_of_one_side_changes_nothing(self, rng):
        triad = random_triad(rng, 3)
        sides = self.sides(triad)
        base = loop_geometric_phase(sides)
        sides[1] = twist(sides[1], lambda s: 0.7 * s + 0.2 * np.sin(2 * np.pi * s))
        assert_angle_close(loop_geometric_phase(sides), base, tol=1e-8)

    @pytest.mark.parametrize("k", [4, 5])
    def test_polygon_matches_invariant_and_fan(self, rng, k):
        # -arg of the k-point invariant, and the sum of the triad phases
        # of the fan (psi_0, psi_i, psi_{i+1})
        for _ in range(5):
            states = random_polygon(rng, k, 4)
            got = loop_geometric_phase(self.sides(states))
            assert_angle_close(got, -np.angle(core.bargmann(states)), tol=1e-12)
            fan = sum(core.bi_phase(states[0], states[i], states[i + 1])
                      for i in range(1, k - 1))
            assert_angle_close(got, fan, tol=1e-12)

    def test_requires_three_segments(self, rng):
        sides = self.sides(random_triad(rng, 3))
        with pytest.raises(ValueError, match="three segments"):
            loop_geometric_phase(sides[:2])

    def test_tiny_first_amplitude_at_a_vertex_is_accepted(self, rng):
        # the junction is tested against the overlap that gives its phase;
        # rephasing each end to make a 1e-8 first amplitude real would
        # divide the rounding of the eps-family side's end by 1e-8
        for _ in range(20):
            triad = random_triad(rng, 3)
            vertex = triad[1].copy()
            vertex[0] = 1e-8 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            triad[1] = core.normalize(vertex)
            for a in (0, 1):
                sides = self.sides(triad)
                frame = frame_from_pair(triad[a], triad[a + 1])
                sides[a] = profile_to_lift(
                    frame, generate_npc_profile(frame.theta0, 0.5))
                got = loop_geometric_phase(sides)
                assert_angle_close(got, -np.angle(core.bargmann(triad)), tol=1e-8)

    def test_junction_mismatch_rejected(self, rng):
        sides = self.sides(random_triad(rng, 3))
        sides[1] = make_geodesic(rng)
        with pytest.raises(ValueError, match="does not end"):
            loop_geometric_phase(sides)

    def test_non_npc_segment_rejected(self, rng):
        frame = frame_from_pair(core.random_state(4, rng),
                                core.random_state(4, rng))
        profile = generate_npc_profile(frame.theta0, 0.6, grid=257)
        lift = profile_to_lift(frame, profile)
        psi = lift.psi.copy()
        psi[:, 2] *= np.exp(0.4j * np.sin(np.pi * lift.s))
        wobbled = CurveLift(lift.s, psi)
        v1, v2 = wobbled.psi[0], wobbled.psi[-1]
        others = self.sides([v1, v2, core.random_state(4, rng)])
        segments = [wobbled, *others[1:]]
        with pytest.raises(ValueError, match="not a null phase curve"):
            loop_geometric_phase(segments)


def mixed_dimension_loop():
    """Three geodesic segments, the second of dimension 4, the others 3."""
    a, b, c = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=complex)
    return [geodesic_lift(a, b), geodesic_lift(np.append(b, 0), np.append(c, 0)),
            geodesic_lift(c, a)]


# Input refusals no other test reaches, each with its exception and message.
REFUSALS = [
    pytest.param(lambda: CurveLift(np.linspace(0.0, 1.0, 3), np.ones((4, 2))),
                 ValueError, "psi must have one row per sample", id="lift-rows"),
    pytest.param(lambda: curves.CurveFrame(np.eye(1, 3), 1.0), ValueError,
                 "frame needs at least two vectors", id="frame-vectors"),
    pytest.param(lambda: RealProfile(np.linspace(0.0, 1.0, 3), np.ones((4, 3))),
                 ValueError, "x must have one row per sample", id="profile-rows"),
    pytest.param(lambda: loop_geometric_phase(mixed_dimension_loop()), ValueError,
                 "dimension mismatch: 4 vs 3", id="loop-dimensions"),
]


@pytest.mark.parametrize("call, exc, message", REFUSALS)
def test_input_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
