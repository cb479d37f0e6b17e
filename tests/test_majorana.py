"""Star decompositions, permanents and rotation covariance."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import core, curves, majorana as mj
from holonomy_lab.decompose import star_trajectory

from conftest import assert_unitary
from star_oracle import (
    _canonical_spinor,
    oracle_check_su2,
    oracle_expand,
    oracle_schwinger_sum,
    oracle_schwinger_transpose,
    oracle_su2_apply,
    oracle_su2_rotation,
)

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


def check_decision(check, u):
    """(True, None) when check accepts u, else (False, its ValueError text)."""
    try:
        check(u)
    except ValueError as exc:
        return False, str(exc)
    return True, None


def ulp_steps(x, count):
    """x and the count doubles on each side of it, in increasing order."""
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


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
            if np.finfo(float).tiny <= norm < np.inf:
                assert np.array_equal(mj.as_spinor(row), row / norm)
            else:  # zero, subnormal (dividing by it gives NaN) or non-finite
                with pytest.raises(ValueError, match="finite and nonzero"):
                    mj.as_spinor(row)
                with pytest.raises(ValueError, match="finite and nonzero"):
                    mj.as_spinor(np.stack([[1.0, 0.0], row]))
            if abs(norm - 1.0) <= 1e-12:
                mj.MajoranaRep(row[None], 1.0)
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

    @pytest.mark.parametrize("mod", [1e190, 1e9, 1e-300, 1.0, 1e-310, 5e-324])
    def test_extreme_root_moduli(self, rng, mod):
        phase = np.exp(2j * np.pi * rng.uniform())
        w = mod * phase
        # p(z) = A0 + A1 z has its root at w = -A0 / A1
        psi = np.array([-w, 1.0]) if mod < 1 else np.array([-phase, 1.0 / mod])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mj.coefficients_to_roots(psi)
            if mod < 1e100:
                # the oracle as well, whose pivot is subnormal for the last two
                self.assert_canonical(rep, [w])
        if mod > 1e100:
            # the lead 1/mod is below TAU_LEAD, so the degree drops and the
            # north pole stands in for the root's star, 2/mod away
            assert np.array_equal(rep.spinors, [[1.0, 0.0]])
            true_star = mj.spinor_to_star(psi)
            assert np.linalg.norm(rep.stars()[0] - true_star) <= 2.0 / mod * (1 + EPS)
        if mod < 1e-100:
            assert abs(rep.stars()[0, 2] + 1.0) <= 4 * EPS  # the south pole
        assert np.abs(mj.roots_to_coefficients(rep) - psi).max() <= 4 * EPS


class TestKernelRep:
    """The MajoranaRep that the star kernel builds without dividing again."""

    def test_spinors_match_the_public_constructor(self, rng):
        for n in (2, 3, 5, 8, 20):
            batch = np.array([core.random_state(n, rng) for _ in range(30)])
            batch[::3, n // 2:] = 0.0  # trailing zeros: exact south spinors
            kernel = mj.coefficients_to_roots(batch)
            public = mj.MajoranaRep(kernel.spinors, kernel.scale)
            assert np.all(np.abs(kernel.spinors - public.spinors) <= 4 * EPS)
            assert np.array_equal(kernel.scale, public.scale)
            norms = np.linalg.norm(kernel.spinors, axis=-1)
            assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_single_state_scale_is_complex(self, rng):
        rep = mj.coefficients_to_roots(core.random_state(4, rng))
        assert type(rep.scale) is complex
        assert rep.spinors.shape == (3, 2)

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, complex(1.0, np.inf),
                                       complex(1.0, np.nan), 0.0])
    def test_bad_scale_raises(self, scale):
        with pytest.raises(ValueError, match="finite and nonzero"):
            mj._kernel_rep(np.array([[1.0, 0.0]], dtype=complex),
                           np.array(scale, dtype=complex))
        with pytest.raises(ValueError, match="finite and nonzero"):
            mj._kernel_rep(np.array([[[1.0, 0.0]], [[0.0, 1.0]]], dtype=complex),
                           np.array([1.0, scale], dtype=complex))

    def test_off_unit_spinor_raises(self, monkeypatch):
        # the spinor stage checks the norms, so a kernel fault that builds
        # an off-unit spinor is refused by the factoring and by the star
        # trajectory, which never form a MajoranaRep of their own
        monkeypatch.setattr(mj, "_NORTH", np.array([1.0 + 1e-9, 0.0])[:, None, None])
        s = np.linspace(0.0, 1.0, 5)
        lower = np.array([[math.cos(t), math.sin(t), 0.0] for t in s], dtype=complex)
        for call in (lambda: mj.coefficients_to_roots(lower),
                     lambda: star_trajectory(curves.CurveLift(s, lower))):
            with pytest.raises(ValueError, match="unit normalized"):
                call()


def oracle_check_rep(spinors, scale):
    """_check_rep as an elementwise test of every norm."""
    if not (np.isfinite(scale).all() and scale.all()):
        raise ValueError("scale must be finite and nonzero")
    norms = mj._spinor_norms(spinors)
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise ValueError("spinors must be unit normalized")
    return norms


# the norms farthest from 1 that are within 1e-12 of it, on each side;
# one ulp farther out fails.  No double norm is exactly 1e-12 from 1, so
# a bound tested with < decides every norm as one tested with <=
_EDGE_ABOVE = 1.0 + 4503 * 2.0 ** -52
_EDGE_BELOW = 1.0 - 9007 * 2.0 ** -53


class TestCheckRep:
    """_check_rep decides as the elementwise test did."""

    @staticmethod
    def decision(check, spinors, scale):
        return check_decision(lambda s: check(s, np.asarray(scale, dtype=complex)),
                              np.asarray(spinors, dtype=complex))

    @pytest.mark.parametrize("x", [_EDGE_ABOVE, _EDGE_BELOW, 1.0])
    def test_norm_within_1e12_passes(self, x):
        assert abs(x - 1.0) <= 1e-12
        spinors = [[1.0, 0.0], [x, 0.0], [0.6, 0.8]]
        assert self.decision(mj._check_rep, spinors, 1.0) == (True, None)
        assert self.decision(oracle_check_rep, spinors, 1.0) == (True, None)

    @pytest.mark.parametrize("x", [np.nextafter(_EDGE_ABOVE, 2.0),
                                   np.nextafter(_EDGE_BELOW, 0.0), np.nan],
                             ids=["above", "below", "nan"])
    def test_norm_beyond_1e12_fails(self, x):
        assert not abs(x - 1.0) <= 1e-12
        want = (False, "spinors must be unit normalized")
        for spinors in ([[x, 0.0]], [[1.0, 0.0], [x, 0.0]], [[[x, 0.0]], [[1.0, 0.0]]]):
            scale = np.ones(np.shape(spinors)[:-2])
            assert self.decision(mj._check_rep, spinors, scale) == want
            assert self.decision(oracle_check_rep, spinors, scale) == want

    def test_no_spinors_pass(self):
        assert self.decision(mj._check_rep, np.zeros((0, 2)), 2.0) == (True, None)
        assert self.decision(mj._check_rep, np.zeros((3, 0, 2)), np.ones(3)) == (True, None)


def north_spinors(shape):
    xi = np.zeros(shape, dtype=complex)
    xi[..., 0] = 1.0
    return xi


class TestRepShapes:
    """The spinors have shape scale.shape + (n-1, 2); none are regrouped."""

    def test_batch_against_one_scale_is_refused(self):
        # regrouped, five decompositions of two spinors read as one of ten
        with pytest.raises(ValueError, match=r"shape \(5, 2, 2\) .* shape \(\)"):
            mj.MajoranaRep(north_spinors((5, 2, 2)), 1.0)

    def test_spinors_are_not_split_among_scales(self):
        # regrouped, four spinors read as two decompositions of two
        with pytest.raises(ValueError, match=r"shape \(4, 2\) .* shape \(2,\)"):
            mj.MajoranaRep(north_spinors((4, 2)), np.ones(2))

    @pytest.mark.parametrize("shape, scales", [((2,), ()), ((4, 2), (4,))],
                             ids=["one", "four"])
    def test_one_spinor_per_scale_is_refused(self, shape, scales):
        # a bare spinor is not a decomposition of one spinor
        with pytest.raises(ValueError, match="do not fit"):
            mj.MajoranaRep(north_spinors(shape), np.ones(scales))

    @pytest.mark.parametrize("shape, scales, stored", [
        ((1, 2), (), (1, 2)), ((3, 2), (), (3, 2)), ((0, 2), (), (0, 2)),
        ((4, 1, 2), (4,), (4, 1, 2)), ((4, 3, 2), (4,), (4, 3, 2)),
        ((4, 0, 2), (4,), (4, 0, 2))])
    def test_fitting_shapes_are_kept(self, shape, scales, stored):
        rep = mj.MajoranaRep(north_spinors(shape), np.ones(scales))
        assert rep.spinors.shape == stored
        assert np.shape(rep.scale) == scales


class TestStarShapes:
    """Spinors are (..., 2), one star (3,) and a star set (m, 3); misshaped
    arrays are refused, not reshaped to fit."""

    def test_six_floats_are_not_two_stars(self):
        with pytest.raises(ValueError, match=r"shape \(m, 3\), got \(1, 6\)"):
            mj.star_matching_distance([[0, 0, 1, 0, 0, -1]], [[0, 0, -1], [0, 0, 1]])

    def test_one_star_is_not_a_set(self):
        with pytest.raises(ValueError, match=r"shape \(m, 3\), got \(3,\)"):
            mj.star_matching_distance([0, 0, 1.0], [0, 0, 1.0])

    @pytest.mark.parametrize("call", [mj.star_to_spinor,
                                      lambda n: mj.weight_residual([1.0, 0, 0], n)],
                             ids=["star_to_spinor", "weight_residual"])
    def test_column_star_is_refused(self, call):
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(3, 1\)"):
            call([[0.0], [0.0], [1.0]])

    @pytest.mark.parametrize("call", [mj.as_spinor, mj.spinor_to_star,
                                      lambda xi: mj.pure_product_state(xi, 3)],
                             ids=["as_spinor", "spinor_to_star", "pure_product_state"])
    def test_column_spinor_is_refused(self, call):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 2\), got \(2, 1\)"):
            call([[1.0], [0.0]])

    def test_fitting_shapes_are_kept(self):
        assert mj.star_to_spinor([0, 0, 1.0]).shape == (2,)
        assert mj.spinor_to_star([[1.0, 0], [0, 1.0]]).shape == (2, 3)
        assert mj.spinor_to_star(np.ones((4, 3, 2))).shape == (4, 3, 3)
        assert mj.star_matching_distance(np.empty((0, 3)), np.empty((0, 3))) == 0.0


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

    def test_zero_vector_rejected(self, rng):
        # a zero row fails the full-degree fast path, so it is refused off it:
        # alone, at n = 1, and in batches of 2 and 257, also next to a row
        # whose roots overflow, which would fail later
        batch = np.array([core.random_state(4, rng) for _ in range(257)])
        batch[100] = 0.0
        overflow = np.array([[1e308, 1.3e308, 1e308], [0.0, 0.0, 0.0]])
        for psi in (np.zeros(4), np.zeros(1), np.zeros((2, 3)), batch[99:101],
                    batch, overflow):
            with pytest.raises(ValueError, match="^zero vector has no star decomposition$"):
                with np.errstate(over="ignore"):
                    mj.coefficients_to_roots(psi)

    @pytest.mark.parametrize("bad, message", [
        # a coefficient past the float range leaves no finite root
        ([1e308, 1.3e308, 1e308], "root finding failed"),
        # the root -1 gives the lead 1 / sqrt(2), so the scale is
        # sqrt(2) 1.7e308, past the float range
        ([1.7e308, 1.7e308], "scale must be finite and nonzero"),
    ], ids=["root", "scale"])
    def test_overflowing_states_rejected(self, rng, bad, message):
        bad = np.array(bad, dtype=complex)
        batch = np.array([core.random_state(bad.size, rng) for _ in range(3)])
        batch[1] = bad
        for psi in (bad, batch, batch[1:]):
            with pytest.raises(ValueError, match=f"^{message}$") as info:
                with np.errstate(over="ignore", invalid="ignore"):
                    mj.coefficients_to_roots(psi)
            assert type(info.value) is ValueError

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
        assert np.array_equal(mj.su2_apply(np.eye(2, dtype=complex), psi), psi)

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
        assert_unitary(u, tol=1e-10)
        assert np.linalg.det(u) == pytest.approx(1.0)


def spin_matrix(u, n):
    """D^j(u) as su2_apply applies it: its action on the basis states."""
    return mj.su2_apply(u, np.eye(n, dtype=complex)).T


def spin_exponential(theta, nhat, n):
    """exp(-i theta nhat . J) on dimension n, from the eigenvectors of nhat . J."""
    j1, j2, j3 = mj.spin_matrices(n)
    w, v = np.linalg.eigh(nhat[0] * j1 + nhat[1] * j2 + nhat[2] * j3)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


class TestSchwingerMatrix:
    """su2_apply is the spin-j matrix D^j(u) of the two-oscillator construction."""

    def test_matches_the_star_route(self, rng):
        for n in range(1, 21):
            for _ in range(20):
                u = mj.random_su2(rng)
                psi = core.random_state(n, rng)
                assert np.max(np.abs(mj.su2_apply(u, psi)
                                     - oracle_su2_apply(u, psi))) <= 1e-13

    def test_matches_the_spin_exponential(self, rng):
        for n in range(1, 21):
            for _ in range(10):
                nhat = rng.standard_normal(3)
                nhat /= np.linalg.norm(nhat)
                theta = rng.uniform(0.0, 4.0 * np.pi)
                sigma = np.tensordot(nhat, mj.SIGMA, axes=1)
                u = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * sigma
                want = spin_exponential(theta, nhat, n)
                assert np.max(np.abs(spin_matrix(u, n) - want)) <= 1e-13

    def test_spin_half_is_u(self, rng):
        u = mj.random_su2(rng)
        assert np.array_equal(spin_matrix(u, 2), u)

    def test_homomorphism_and_unitarity(self, rng):
        for n in (2, 3, 5, 8, 13, 20):
            u1, u2 = mj.random_su2(rng), mj.random_su2(rng)
            d1, d2 = spin_matrix(u1, n), spin_matrix(u2, n)
            assert np.max(np.abs(spin_matrix(u1 @ u2, n) - d1 @ d2)) <= 1e-13
            assert np.max(np.abs(d1.conj().T @ d1 - np.eye(n))) <= 1e-13
            assert np.max(np.abs(spin_matrix(u1.conj().T, n) - d1.conj().T)) <= 1e-13

    def test_identity_is_exact(self, rng):
        eye = np.eye(2)
        tiny_tail = np.array([1.0, 1e-11], dtype=complex) / math.hypot(1.0, 1e-11)
        assert np.array_equal(mj.su2_apply(eye, tiny_tail), tiny_tail)
        for n in range(1, 21):
            batch = np.array([core.random_state(n, rng) for _ in range(5)])
            batch[0, -1] = 3e-11  # below the decomposition's degree cut
            assert np.array_equal(mj.su2_apply(eye, batch), batch)
            assert np.array_equal(mj.su2_apply(eye, batch[0]), batch[0])

    def test_linear_on_a_batch(self, rng):
        for n in (2, 3, 8, 20):
            u = mj.random_su2(rng)
            x = np.array([core.random_state(n, rng) for _ in range(12)])
            y = np.array([core.random_state(n, rng) for _ in range(12)])
            y[:, -1] = 1e-12  # trailing amplitudes the star route drops
            a, b = (rng.standard_normal((2, 12, 1))
                    + 1j * rng.standard_normal((2, 12, 1)))
            mixed = mj.su2_apply(u, a * x + b * y)
            separate = a * mj.su2_apply(u, x) + b * mj.su2_apply(u, y)
            assert np.max(np.abs(mixed - separate)) <= 1e-14 * np.max(np.abs(mixed))
            # the tails move the result by 1e-12 D^j e_last, up to rounding
            tail = mj.su2_apply(u, y) - mj.su2_apply(u, y - 1e-12 * np.eye(n)[-1])
            want = 1e-12 * spin_matrix(u, n)[:, -1]
            assert np.max(np.abs(tail - want)) <= 1e-15

    def test_rejects_bad_states(self, rng):
        u = mj.random_su2(rng)
        for bad in (np.zeros(0), np.zeros((2, 2, 2)), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="nonempty state"):
                mj.su2_apply(u, bad)

    @pytest.mark.parametrize("n", [64, 200])
    def test_group_laws_at_large_n(self, rng, n):
        bound = 100 * n * EPS
        for _ in range(2):
            u1, u2 = mj.random_su2(rng), mj.random_su2(rng)
            d1, d2 = spin_matrix(u1, n), spin_matrix(u2, n)
            assert np.max(np.abs(spin_matrix(u1 @ u2, n) - d1 @ d2)) <= bound
            assert np.max(np.abs(d1.conj().T @ d1 - np.eye(n))) <= bound
            assert np.max(np.abs(spin_matrix(u1.conj().T, n) - d1.conj().T)) <= bound

    def test_entries_when_u00_is_zero(self):
        # u e0 = c e1 and u e1 = -conj(c) e0, so D^j(u) e_k is
        # c^(n-1-k) (-conj(c))^k e_(n-1-k)
        for c in (1.0, 1j, np.exp(0.7j)):
            u = np.array([[0.0, -np.conj(c)], [c, 0.0]])
            for n in range(1, 21):
                want = np.zeros((n, n), dtype=complex)
                k = np.arange(n)
                want[n - 1 - k, k] = c ** (n - 1 - k) * (-np.conj(c)) ** k
                assert np.max(np.abs(spin_matrix(u, n) - want)) <= 2e-14

    def test_entries_when_u10_is_zero(self):
        # diag(a, conj(a)) acts as diag(a^(n-1-2k)): powers of i and of -1
        # come out exact, and others within rounding
        for a in (1j, -1.0, -1j):
            for n in range(1, 21):
                want = np.diag([a ** e for e in range(n - 1, -n, -2)])
                assert np.array_equal(spin_matrix(np.diag([a, np.conj(a)]), n), want)
        a = np.exp(0.7j)
        for n in range(1, 21):
            want = np.diag(np.exp(0.7j * np.arange(n - 1, -n, -2)))
            got = spin_matrix(np.diag([a, np.conj(a)]), n)
            assert np.max(np.abs(got - want)) <= n * 4 * EPS

    def test_matches_a_60_digit_schwinger_sum(self):
        # at n = 30 the gathered sum this replaced was 7.3e-13 off
        pytest.importorskip("mpmath")
        beta, n = 1.6, 30
        a, c = math.cos(beta / 2) * np.exp(0.3j), math.sin(beta / 2) * np.exp(0.8j)
        u = np.array([[a, -np.conj(c)], [c, np.conj(a)]])
        assert np.max(np.abs(spin_matrix(u, n) - oracle_schwinger_sum(u, n))) <= 1e-14


class TestSchwingerGather:
    """D^j(u) against the stack-and-expand oracle, its exact cases and the
    cached J_y basis it is built from."""

    def test_matches_the_stack_and_expand(self, rng):
        for n in range(1, 21):
            for _ in range(10):
                u = mj.random_su2(rng)
                batch = np.array([core.random_state(n, rng) for _ in range(8)])
                want = batch @ oracle_schwinger_transpose(u, n)
                assert np.max(np.abs(mj.su2_apply(u, batch) - want)) <= 2e-14

    def test_spin_half_matches_bitwise(self, rng):
        for _ in range(50):
            u = mj.random_su2(rng)
            got = spin_matrix(u, 2)
            assert np.array_equal(got.T, oracle_schwinger_transpose(u, 2))
            assert np.array_equal(got, u)

    def test_identity_is_exactly_the_identity(self):
        for n in range(1, 21):
            assert np.array_equal(spin_matrix(np.eye(2, dtype=complex), n), np.eye(n))

    def test_basis_is_read_only(self):
        for n in (1, 5, 64):
            basis, exponents = mj._jy_basis(n)
            assert (basis.shape, exponents.shape) == ((2, n, n), (n,))
            assert not (basis.flags.writeable or exponents.flags.writeable)
            # column k of V is the eigenvector of J_y with eigenvalue j - k
            vectors, conjugate = basis
            weights = mj.dim_to_spin(n) - np.arange(n)
            assert np.array_equal(exponents, 2.0 * weights)
            residual = mj.spin_matrices(n)[1] @ vectors - vectors * weights
            assert np.max(np.abs(residual)) <= 10 * n * EPS
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) <= 10 * n * EPS
            assert np.array_equal(conjugate, vectors.conj())


class TestCheckSu2:
    """The SU(2) test on four Python complex numbers decides as the array form."""

    @staticmethod
    def assert_same_decision(u):
        want = check_decision(oracle_check_su2, u)
        assert check_decision(mj._check_su2, u) == want
        assert check_decision(mj.su2_rotation, u) == want
        return want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf,
                                     complex(0.0, np.nan)],
                             ids=["nan", "inf", "-inf", "inf-imag", "nan-imag"])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entries(self, bad, entry):
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        assert self.assert_same_decision(u) == (False, "matrix must be finite")

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2, 1)])
    def test_shapes(self, shape):
        u = np.ones(shape, dtype=complex)
        assert self.assert_same_decision(u) == (False, "expected a 2x2 matrix")

    def test_unitarity_deviation_around_the_bound(self):
        # [[1, e], [0, 1]]: u^dagger u - 1 has entries e, e and e^2, which
        # rounds away against 1; the determinant is exactly 1
        for e in ulp_steps(1e-10, 3):
            for x in (e, -e, 1j * e):
                u = np.array([[1.0, x], [0.0, 1.0]], dtype=complex)
                want = (True, None) if e <= 1e-10 else (False, "matrix is not unitary")
                assert self.assert_same_decision(u) == want

    def test_determinant_deviation_around_the_bound(self):
        # diag(1 + i e, 1) is unitary to rounding (1 + e^2 rounds to 1);
        # its determinant is 1 + i e, exactly e away from 1
        for e in ulp_steps(1e-10, 3):
            for x in (1j * e, -1j * e):
                u = np.diag([1.0 + x, 1.0])
                want = (True, None) if e <= 1e-10 else (
                    False, "matrix must have determinant 1")
                assert self.assert_same_decision(u) == want

    def test_huge_entries_are_not_unitary(self):
        # NumPy's u^dagger u turns NaN for both, which the array form let
        # pass (su2_apply then returned NaN).  On Python complex numbers
        # the first has |a|^2 + |c|^2 = inf; the second a Gram entry b with
        # finite parts and an infinite modulus, on which abs raises
        # OverflowError
        x = 1e200
        a, c = complex(x, x), complex(-x, x)
        b = complex(1.3e308, 1.3e308)
        with pytest.raises(OverflowError):
            abs(b)
        for u in (np.array([[a, a], [c, c]]), np.array([[1.0, b], [0.0, 1.0]])):
            assert check_decision(mj._check_su2, u) == (False, "matrix is not unitary")
            with pytest.raises(ValueError, match="not unitary"):
                mj.su2_apply(u, np.ones(3))

    def test_random_su2_passes(self, rng):
        for _ in range(100):
            u = mj.random_su2(rng)
            assert self.assert_same_decision(u) == (True, None)
            assert np.array_equal(mj._check_su2(u)[0], u)


class TestSpinMatrices:
    # su2_apply builds D^j(u) from J_y, so the algebra is checked up to
    # n = 200, to a few rounding errors of |J|^2 = j (j + 1)

    def test_commutators(self):
        for n in (2, 3, 5, 64, 200):
            j = mj.dim_to_spin(n)
            j1, j2, j3 = mj.spin_matrices(n)
            tol = 8 * EPS * j * (j + 1)
            assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) <= tol
            assert np.max(np.abs(j2 @ j3 - j3 @ j2 - 1j * j1)) <= tol
            assert np.max(np.abs(j3 @ j1 - j1 @ j3 - 1j * j2)) <= tol

    def test_casimir(self):
        for n in (4, 64, 200):
            j = mj.dim_to_spin(n)
            j1, j2, j3 = mj.spin_matrices(n)
            total = j1 @ j1 + j2 @ j2 + j3 @ j3
            assert np.max(np.abs(total - j * (j + 1) * np.eye(n))) <= 8 * EPS * j * (j + 1)

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


# Input refusals no other test reaches, each with its exception and message.
REFUSALS = [
    pytest.param(lambda: mj.dim_to_spin(0), ValueError,
                 "dimension must be at least 1", id="spin-dimension"),
    pytest.param(lambda: mj.pure_product_state([1.0, 0.0], 0), ValueError,
                 "dimension must be at least 1", id="pure-product-dimension"),
    pytest.param(lambda: mj.permanent(np.ones((2, 3))), ValueError,
                 "permanent needs a square matrix", id="permanent-shape"),
    pytest.param(lambda: mj.star_matching_distance(np.eye(3)[:2], np.eye(3)),
                 ValueError, "star sets must have equal size", id="matching-sizes"),
]


@pytest.mark.parametrize("call, exc, message", REFUSALS)
def test_input_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
