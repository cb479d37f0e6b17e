"""The batched star kernel against the one-row-at-a-time reference route."""

import json
from importlib import resources

import numpy as np
import pytest

from holonomy_lab import core, curves, majorana as mj
from holonomy_lab.decompose import star_trajectory

from star_oracle import oracle_decomposition, oracle_stars, oracle_trajectory

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


def assert_matches_oracle(batch, tol=1e-12):
    rep = mj.coefficients_to_roots(batch)
    stars = rep.stars()
    for i, psi in enumerate(batch):
        spinors, scale = oracle_decomposition(psi)
        assert mj.star_matching_distance(stars[i], oracle_stars(psi)) <= tol
        assert np.max(np.abs(rep.spinors[i] - spinors), initial=0.0) <= tol
        assert abs(rep.scale[i] - scale) <= tol * abs(scale)
    return rep


def mixed_batch(rng, n, rows=60):
    """Random states, a third of them with 1..n-1 leading amplitudes dropped
    (lower effective degree) and a sixth with trailing ones dropped."""
    batch = np.array([core.random_state(n, rng) for _ in range(rows)])
    for i in range(rows // 3):
        batch[i, n - int(rng.integers(1, n)):] = 0.0
    for i in range(rows // 3, rows // 2):
        batch[i, :int(rng.integers(1, n))] = 0.0
    return batch


class TestKernelParity:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_mixed_degree_batch(self, rng, n):
        batch = mixed_batch(rng, n)
        rep = assert_matches_oracle(batch)
        assert np.allclose(mj.roots_to_coefficients(rep), batch, atol=1e-10)

    def test_batch_rows_equal_single_calls(self, rng):
        batch = mixed_batch(rng, 7)
        rep = mj.coefficients_to_roots(batch)
        for i, psi in enumerate(batch):
            single = mj.coefficients_to_roots(psi)
            assert np.array_equal(single.spinors, rep.spinors[i])
            assert single.scale == rep.scale[i]
            assert np.array_equal(mj.roots_to_coefficients(single),
                                  mj.roots_to_coefficients(rep)[i])

    def test_degree_zero_rows_are_north(self, rng):
        batch = np.zeros((4, 6), dtype=complex)
        batch[:, 0] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        batch[1, 3] = 1e-12  # below tau_lead times the largest coefficient
        rep = assert_matches_oracle(batch)
        assert np.array_equal(rep.stars(), np.tile(NORTH, (4, 5, 1)))

    def test_trailing_zeros_give_exact_south_stars(self, rng):
        for n in (3, 6, 11):
            batch = np.array([core.random_state(n, rng) for _ in range(n - 1)])
            for k in range(1, n):
                batch[k - 1, :k] = 0.0
            stars = assert_matches_oracle(batch).stars()
            for k in range(1, n):
                assert np.array_equal(stars[k - 1, -k:], np.tile(SOUTH, (k, 1)))

    def test_pure_products(self, rng):
        for n in (2, 3, 5, 9, 20):
            xis = [mj.as_spinor(core.random_state(2, rng)) for _ in range(5)]
            batch = np.array([mj.pure_product_state(xi, n) for xi in xis])
            assert_matches_oracle(batch)

    def test_su2_apply_on_a_batch(self, rng):
        u = mj.random_su2(rng)
        batch = mixed_batch(rng, 5, rows=12)
        moved = mj.su2_apply(u, batch)
        for i, psi in enumerate(batch):
            assert np.allclose(moved[i], mj.su2_apply(u, psi), atol=1e-13)


def golden_lift(key, second):
    fix = json.loads((resources.files("holonomy_lab") / "data"
                      / "golden.json").read_text())[key]
    theta0 = fix["theta0"]
    psi2 = np.zeros(3, dtype=complex)
    psi2[0], psi2[second] = np.cos(theta0 / 2), np.sin(theta0 / 2)
    return curves.geodesic_lift(np.array([1.0, 0.0, 0.0], dtype=complex),
                                psi2, grid=fix["grid"])


def through_exact_sample(rng, e):
    """Lift through the basis vector e at its middle sample."""
    s = np.linspace(-1.0, 1.0, 65)
    w = core.random_state(3, rng)
    rows = e[None, :] + 0.4 * s[:, None] * w[None, :]
    return curves.CurveLift(s, rows / np.linalg.norm(rows, axis=1)[:, None])


def assert_same_trajectory(lift):
    got = star_trajectory(lift)
    want, ties = oracle_trajectory(lift.psi)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    return ties


class TestTrajectoryParity:
    def test_geodesic_lifts(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a, b = core.random_state(3, rng), core.random_state(3, rng)
            assert_same_trajectory(
                curves.geodesic_lift(*curves.in_phase_gauge(a, b), grid=257))

    def test_eps_family_lifts(self):
        for seed, eps in enumerate((0.1, 0.6, 1.2)):
            rng = np.random.default_rng(100 + seed)
            a, b = core.random_state(3, rng), core.random_state(3, rng)
            frame = curves.frame_from_pair(*curves.in_phase_gauge(a, b))
            profile = curves.generate_npc_profile(frame.theta0, 3, eps,
                                                  grid=257)
            assert_same_trajectory(curves.profile_to_lift(frame, profile))

    @pytest.mark.parametrize("key, second", [("meridian_trajectory", 2),
                                             ("two_component_trajectory", 1)])
    def test_golden_fixtures_with_ties(self, key, second):
        assert assert_same_trajectory(golden_lift(key, second))

    def test_ties_in_the_middle(self, rng):
        for k in (0, 2):  # both stars north (degree 0) or both south
            e = np.zeros(3, dtype=complex)
            e[k] = 1.0
            ties = assert_same_trajectory(through_exact_sample(rng, e))
            assert 32 in ties or 33 in ties


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_decomposition_rejects(self, rng, bad):
        psi = core.random_state(4, rng)
        psi[2] = bad
        with pytest.raises(ValueError, match="non-finite amplitude"):
            mj.coefficients_to_roots(psi)
        batch = np.array([core.random_state(4, rng), psi])
        with pytest.raises(ValueError, match="non-finite amplitude"):
            mj.coefficients_to_roots(batch)
        with pytest.raises(ValueError, match="non-finite amplitude"):
            mj.su2_apply(mj.random_su2(rng), psi)

    def test_rep_rejects_non_finite_parts(self):
        with pytest.raises(ValueError, match="unit"):
            mj.MajoranaRep(np.array([[np.nan, 1.0]]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            mj.MajoranaRep(np.array([[1.0, 0.0]]), np.nan)

    def test_curve_lift_rejects(self, rng):
        a, b = core.random_state(3, rng), core.random_state(3, rng)
        lift = curves.geodesic_lift(*curves.in_phase_gauge(a, b), grid=9)
        psi = lift.psi.copy()
        psi[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            curves.CurveLift(lift.s, psi)
        s = lift.s.copy()
        s[-1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            curves.CurveLift(s, lift.psi)
