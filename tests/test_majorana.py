"""Star decompositions, permanents and rotation covariance."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import core, majorana as mj

from star_oracle import _canonical_spinor, oracle_expand, oracle_su2_rotation

EPS = np.finfo(float).eps


def brute_permanent(a):
    total = 0.0 + 0.0j
    m = a.shape[0]
    for perm in itertools.permutations(range(m)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


class TestSpinorsAndStars:
    def test_pole_round_trips(self):
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        assert np.allclose(mj.spinor_to_star(mj.star_to_spinor(north)), north)
        assert np.allclose(mj.spinor_to_star(mj.star_to_spinor(south)), south)

    def test_generic_round_trip(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            xi = mj.star_to_spinor(v)
            assert np.linalg.norm(xi) == pytest.approx(1.0)
            assert np.allclose(mj.spinor_to_star(xi), v, atol=1e-12)

    def test_star_ignores_spinor_phase(self, rng):
        xi = mj.as_spinor(core.random_state(2, rng))
        assert np.allclose(mj.spinor_to_star(xi),
                           mj.spinor_to_star(np.exp(2.2j) * xi))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            mj.star_to_spinor(np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spinor_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mj.spinor_to_star([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            mj.pure_product_state([1.0, complex(0.0, bad)], 3)
        with pytest.raises(ValueError, match="finite"):
            mj.as_spinor([[1.0, 0.0], [bad, 1.0]])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_pairwise_norms_equal_the_reduce(self, rng):
        rows = [rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))]
        for big in (1e300, 1e-300, 1.7e308, 5e-324):
            rows.append(big * rng.uniform(0.1, 1.0, size=(8, 2))
                        * np.exp(2j * np.pi * rng.uniform(size=(8, 2))))
        rows.append(np.array([[np.inf, 0], [0, -np.inf], [np.nan, 1], [1, np.nan],
                              [complex(np.nan, np.inf), 0], [complex(1, np.inf), 1],
                              [0, 0], [1e308, 1e308]]))
        xi = np.concatenate(rows).reshape(-1, 4, 2)
        assert np.array_equal(mj._spinor_norms(xi),
                              np.hypot.reduce(np.abs(xi), axis=-1), equal_nan=True)
        for row in xi.reshape(-1, 2):
            norm = np.hypot.reduce(np.abs(row))
            if 0.0 < norm < np.inf:
                unit = mj.as_spinor(row)
                if norm >= np.finfo(float).tiny:  # complex division by a subnormal is NaN
                    assert np.array_equal(unit, row / norm)
            else:
                with pytest.raises(ValueError, match="finite and nonzero"):
                    mj.as_spinor(row)
                with pytest.raises(ValueError, match="finite and nonzero"):
                    mj.as_spinor(np.stack([[1.0, 0.0], row]))
            if abs(norm - 1.0) <= 1e-12:
                mj.MajoranaRep(row, 1.0)
            else:
                with pytest.raises(ValueError, match="unit normalized"):
                    mj.MajoranaRep(np.stack([[1.0, 0.0], row]), 1.0)


class TestDecompositionSpinors:
    """Each spinor (-w, 1) of a root w, normalized with real alpha >= 0."""

    @staticmethod
    def assert_canonical(rep, roots=None):
        spinors = rep.spinors.reshape(-1, 2)
        assert np.all(np.abs(np.linalg.norm(spinors, axis=1) - 1.0) <= 4 * EPS)
        assert np.all(spinors[:, 0].imag == 0.0) and np.all(spinors[:, 0].real >= 0.0)
        if roots is not None:
            # the oracle squares entries, so it gets the ray scaled to modulus <= 1
            want = np.array([_canonical_spinor(np.array([-w, 1.0]) / max(1.0, abs(w)))
                             for w in roots])
            assert np.all(np.abs(spinors - want) <= 1e-12 * np.abs(want))

    def test_random_states(self, rng):
        for n in (2, 3, 5, 8, 20):
            batch = np.array([core.random_state(n, rng) for _ in range(30)])
            self.assert_canonical(mj.coefficients_to_roots(batch))

    def test_root_at_zero_gives_south_spinor(self, rng):
        psi = core.random_state(5, rng)
        psi[:2] = 0.0  # a double root at w = 0
        rep = mj.coefficients_to_roots(psi)
        self.assert_canonical(rep)
        assert np.all(rep.spinors[-2:] == [0.0, 1.0])

    @pytest.mark.parametrize("mod", [1e190, 1e-300, 1.0])
    def test_extreme_root_moduli(self, rng, mod):
        phase = np.exp(2j * np.pi * rng.uniform())
        w = mod * phase
        # p(z) = A0 + A1 z has its root at w = -A0 / A1
        psi = np.array([-w, 1.0]) if mod < 1 else np.array([-phase, 1.0 / mod])
        rep = mj.coefficients_to_roots(psi, tau_lead=1e-250)
        self.assert_canonical(rep, [w])


class TestRootsAndCoefficients:
    def test_basis_state_has_antipodal_stars(self):
        rep = mj.coefficients_to_roots(np.array([0, 1, 0], dtype=complex))
        assert np.allclose(rep.stars(), [[0, 0, 1], [0, 0, -1]])

    def test_rebuild_is_not_just_proportional(self, rng):
        # the scale carries the overall amplitude, so the round trip is exact
        for n in (2, 3, 7, 12):
            psi = core.random_state(n, rng)
            back = mj.roots_to_coefficients(mj.coefficients_to_roots(psi))
            assert np.allclose(back, psi, atol=1e-10)

    def test_forced_leading_zeros_give_north_stars(self, rng):
        psi = core.random_state(6, rng)
        psi[4:] = 0.0
        rep = mj.coefficients_to_roots(psi)
        assert np.allclose(rep.spinors[:2], [[1, 0], [1, 0]])
        assert np.allclose(mj.roots_to_coefficients(rep), psi, atol=1e-10)

    def test_dimension_one_has_no_stars(self):
        rep = mj.coefficients_to_roots(np.array([2.0j]))
        assert rep.stars().shape == (0, 3)
        assert rep.scale == pytest.approx(2.0j)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mj.coefficients_to_roots(np.zeros(4))

    def test_spinor_order_does_not_matter(self, rng):
        rep = mj.coefficients_to_roots(core.random_state(5, rng))
        shuffled = mj.MajoranaRep(rep.spinors[::-1].copy(), rep.scale)
        a = mj.roots_to_coefficients(rep)
        b = mj.roots_to_coefficients(shuffled)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_rep_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            mj.MajoranaRep(np.array([[2.0, 0.0]], dtype=complex), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_stars_of_any_valid_rep_are_unit(self, rng, n):
        # spinors off unit by 9e-13, inside the rep's 1e-12 tolerance
        xi = rng.normal(size=(30, n - 1, 2)) + 1j * rng.normal(size=(30, n - 1, 2))
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        xi *= np.where(np.arange(n - 1) % 2, 1.0 - 9e-13, 1.0 + 9e-13)[:, None]
        scales = rng.normal(size=30) + 1j * rng.normal(size=30)
        batch = mj.MajoranaRep(xi, scales)
        for rep, rows in [(batch, xi)] + [(mj.MajoranaRep(x, s), x[None])
                                          for x, s in zip(xi[:5], scales)]:
            stars = rep.stars().reshape(-1, n - 1, 3)
            assert np.all(np.abs(np.linalg.norm(stars, axis=-1) - 1.0) <= 4 * EPS)
            for star_set in stars:
                assert mj.star_matching_distance(star_set, star_set) == 0.0
            # the expansion of the spinors as given, without renormalizing
            want = (np.asarray(rep.scale).reshape(-1, 1) * mj._weights(n)[1]
                    * np.array([oracle_expand(r) for r in rows]))
            got = mj.roots_to_coefficients(rep).reshape(want.shape)
            assert np.all(np.linalg.norm(got - want, axis=1)
                          <= 1e-12 * np.linalg.norm(want, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 14))
    def test_round_trip_property(self, seed, n):
        psi = core.random_state(n, np.random.default_rng(seed))
        back = mj.roots_to_coefficients(mj.coefficients_to_roots(psi))
        assert np.linalg.norm(back - psi) < 1e-8


class TestPureProducts:
    def test_all_stars_coincide(self, rng):
        # a four-fold root is conditioned like eps**(1/4), so the cluster
        # spreads by about 1e-4 even though the state itself is exact
        xi = mj.as_spinor(core.random_state(2, rng))
        rep = mj.coefficients_to_roots(mj.pure_product_state(xi, 5))
        target = mj.spinor_to_star(xi)
        assert mj.star_matching_distance(rep.stars(),
                                         np.tile(target, (4, 1))) < 1e-3

    def test_north_product_is_first_basis_vector(self):
        xi = np.array([1.0, 0.0], dtype=complex)
        assert np.allclose(mj.pure_product_state(xi, 4),
                           [1.0, 0.0, 0.0, 0.0])

    def test_unit_norm(self, rng):
        xi = mj.as_spinor(core.random_state(2, rng))
        assert np.linalg.norm(mj.pure_product_state(xi, 7)) == pytest.approx(1.0)

    def test_first_amplitude_is_alpha_power(self, rng):
        xi = mj.as_spinor(core.random_state(2, rng))
        e1prod = mj.pure_product_state(np.array([1.0, 0.0], dtype=complex), 6)
        got = core.inner(e1prod, mj.pure_product_state(xi, 6))
        assert got == pytest.approx(xi[0] ** 5)


class TestPermanent:
    def test_small_cases_by_hand(self):
        assert mj.permanent(np.array([[3.0]])) == pytest.approx(3.0)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mj.permanent(a) == pytest.approx(1 * 4 + 2 * 3)

    def test_against_permutation_sum(self, rng):
        for m in range(2, 6):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            assert mj.permanent(a) == pytest.approx(brute_permanent(a))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mj.permanent(np.ones((13, 13)))

    def test_empty_matrix_is_one(self):
        assert mj.permanent(np.zeros((0, 0))) == pytest.approx(1.0)


class TestOverlapGeneral:
    def test_matches_expanded_inner_product(self, rng):
        for n in (2, 4, 6, 9):
            reps = []
            for _ in range(2):
                spinors = np.array([mj.as_spinor(core.random_state(2, rng))
                                    for _ in range(n - 1)])
                reps.append(mj.MajoranaRep(spinors,
                                           complex(*rng.normal(size=2))))
            want = core.inner(mj.roots_to_coefficients(reps[0]),
                              mj.roots_to_coefficients(reps[1]))
            assert mj.overlap_general(reps[0], reps[1]) == pytest.approx(
                want, abs=1e-10)

    def test_pure_pure_power_law(self, rng):
        xi = mj.as_spinor(core.random_state(2, rng))
        xi_p = mj.as_spinor(core.random_state(2, rng))
        n = 6
        rep = mj.MajoranaRep(np.tile(xi, (n - 1, 1)), 1.0)
        rep_p = mj.MajoranaRep(np.tile(xi_p, (n - 1, 1)), 1.0)
        assert mj.overlap_general(rep_p, rep) == pytest.approx(
            math.factorial(n - 1) * np.vdot(xi_p, xi) ** (n - 1))

    def test_size_mismatch_rejected(self, rng):
        xi = np.array([[1.0, 0.0]], dtype=complex)
        a = mj.MajoranaRep(xi, 1.0)
        b = mj.MajoranaRep(np.tile(xi, (2, 1)), 1.0)
        with pytest.raises(ValueError):
            mj.overlap_general(a, b)


class TestRotations:
    def test_rotation_matrix_is_special_orthogonal(self, rng):
        u = mj.random_su2(rng)
        r = mj.su2_rotation(u)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_rotation_matches_trace_loop(self, rng):
        for _ in range(200):
            u = mj.random_su2(rng)
            assert np.max(np.abs(mj.su2_rotation(u) - oracle_su2_rotation(u))) <= 1e-14

    @pytest.mark.parametrize("u", [np.full((2, 2), np.nan), np.full((2, 2), np.inf),
                                   np.diag([1.0, 2.0]), np.diag([1.0, np.exp(0.3j)]),
                                   np.eye(3)])
    def test_rotation_rejects_non_su2(self, u):
        with pytest.raises(ValueError):
            mj.su2_rotation(u)

    def test_rotation_moves_single_star(self, rng):
        u = mj.random_su2(rng)
        xi = mj.as_spinor(core.random_state(2, rng))
        assert np.allclose(mj.spinor_to_star(u @ xi),
                           mj.su2_rotation(u) @ mj.spinor_to_star(xi))

    def test_identity_fixes_states(self, rng):
        psi = core.random_state(5, rng)
        assert np.allclose(mj.su2_apply(np.eye(2, dtype=complex), psi), psi,
                           atol=1e-10)

    def test_pure_product_orbit(self, rng):
        u = mj.random_su2(rng)
        xi = mj.as_spinor(core.random_state(2, rng))
        moved = mj.su2_apply(u, mj.pure_product_state(xi, 5))
        want = mj.pure_product_state(u @ xi, 5)
        assert abs(core.inner(core.normalize(moved), want)) == pytest.approx(
            1.0, abs=1e-10)

    def test_star_covariance(self, rng):
        u = mj.random_su2(rng)
        psi = core.random_state(6, rng)
        rotated = mj.coefficients_to_roots(mj.su2_apply(u, psi)).stars()
        oracle = mj.coefficients_to_roots(psi).stars() @ mj.su2_rotation(u).T
        assert mj.star_matching_distance(rotated, oracle) < 1e-10

    def test_general_unitary_rejected(self):
        not_special = np.diag([1.0, np.exp(0.3j)])
        with pytest.raises(ValueError):
            mj.su2_apply(not_special, np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            mj.su2_apply(np.diag([1.0, 2.0]), np.ones(3, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            mj.su2_apply(u, np.ones(3, dtype=complex))

    def test_random_su2_has_unit_determinant(self, rng):
        u = mj.random_su2(rng)
        core.assert_unitary(u, tol=1e-10)
        assert np.linalg.det(u) == pytest.approx(1.0)


class TestSpinMatrices:
    def test_commutators(self):
        for n in (2, 3, 5):
            j1, j2, j3 = mj.spin_matrices(n)
            assert np.allclose(j1 @ j2 - j2 @ j1, 1j * j3, atol=1e-12)
            assert np.allclose(j2 @ j3 - j3 @ j2, 1j * j1, atol=1e-12)
            assert np.allclose(j3 @ j1 - j1 @ j3, 1j * j2, atol=1e-12)

    def test_casimir(self):
        n = 4
        j = mj.dim_to_spin(n)
        j1, j2, j3 = mj.spin_matrices(n)
        total = j1 @ j1 + j2 @ j2 + j3 @ j3
        assert np.allclose(total, j * (j + 1) * np.eye(n), atol=1e-12)

    def test_weight_ordering(self):
        _, _, j3 = mj.spin_matrices(3)
        assert np.allclose(np.diag(j3), [1.0, 0.0, -1.0])

    def test_dim_to_spin(self):
        assert mj.dim_to_spin(2) == pytest.approx(0.5)
        assert mj.dim_to_spin(5) == pytest.approx(2.0)


class TestHighestWeight:
    def test_north_product_is_highest_weight(self):
        north = np.array([1.0, 0.0])
        assert mj.weight_residual(mj.pure_product_state(north, 4),
                                  mj.spinor_to_star(north)) < 1e-12

    def test_random_pure_product_passes(self, rng):
        for n in (2, 5, 9):
            xi = mj.as_spinor(core.random_state(2, rng))
            residual = mj.weight_residual(mj.pure_product_state(xi, n),
                                          mj.spinor_to_star(xi))
            assert residual < 1e-10, f"residual {residual} at n={n}"

    def test_non_product_vector_fails_loudly(self):
        e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        xi = np.array([1.0, 0.0], dtype=complex)
        residual = mj.weight_residual(e2, mj.spinor_to_star(xi))
        assert residual > 0.5

    @pytest.mark.parametrize("nhat", [[np.nan, 0.0, 1.0], [0.0, 0.0, np.inf],
                                      [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    def test_direction_must_be_finite_unit(self, nhat):
        with pytest.raises(ValueError, match="finite unit"):
            mj.weight_residual(np.array([1.0, 0.0, 0.0]), nhat)


class TestStarMatching:
    def test_permutation_gives_zero_distance(self, rng):
        stars = np.array([mj.spinor_to_star(mj.as_spinor(core.random_state(2, rng)))
                          for _ in range(4)])
        assert mj.star_matching_distance(stars, stars[::-1]) == pytest.approx(0.0)

    def test_reports_worst_pair(self):
        a = np.array([[0, 0, 1.0], [1.0, 0, 0]])
        b = np.array([[0, 0, 1.0], [0, 1.0, 0]])
        assert mj.star_matching_distance(a, b) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("bad", [[1.0, 0, np.nan], [1.0, 0, np.inf],
                                     [0, 0, 2.0], [0, 0, 0], [1e200, 0, 1e200]],
                             ids=["nan", "inf", "long", "zero", "huge"])
    def test_non_finite_stars_rejected(self, bad):
        """Non-finite or non-unit stars raise, without a NumPy warning."""
        a = np.array([[0, 0, 1.0], [1.0, 0, 0]])
        b = a.copy()
        b[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((a, b), (b, a), (b, b)):
                with pytest.raises(ValueError, match="finite unit"):
                    mj.star_matching_distance(*pair)

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 19])
    def test_min_sum_pairing_matches_scipy(self, m):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(m)
        for _ in range(500):
            a, b = rng.normal(size=(2, m, 3))
            a /= np.linalg.norm(a, axis=1)[:, None]
            b /= np.linalg.norm(b, axis=1)[:, None]
            cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
            rows, cols = scipy_optimize.linear_sum_assignment(cost)
            ours = cost[np.arange(m), mj._min_sum_assignment(cost)]
            assert abs(ours.sum() - cost[rows, cols].sum()) <= 1e-12
            assert mj.star_matching_distance(a, b) == cost[rows, cols].max()
