"""The batched star kernel against the one-row-at-a-time reference route."""

import itertools
import json
import warnings
from importlib import resources

import numpy as np
import pytest

from holonomy_lab import core, curves, decompose, majorana as mj
from holonomy_lab.decompose import star_trajectory

from conftest import random_triad

from star_oracle import (
    hypot_quadratic_roots,
    oracle_decomposition,
    oracle_order,
    oracle_stars,
    oracle_trajectory,
    paired_spinors,
    restart_order,
    rowmajor_expand,
    rowmajor_factor,
    rowmajor_stars,
)

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


def assert_matches_oracle(batch, tol=1e-12):
    rep = mj.coefficients_to_roots(batch)
    stars = rep.stars()
    for i, psi in enumerate(batch):
        spinors, scale = oracle_decomposition(psi)
        assert mj.star_matching_distance(stars[i], oracle_stars(psi)) <= tol
        spinors = paired_spinors(rep.spinors[i], spinors)
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
        batch[1, 3] = 1e-12  # below TAU_LEAD times the largest amplitude
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
            if n == 3:  # np.roots scatters the double star by about 1e-8
                stars = mj.coefficients_to_roots(batch).stars()
                for xi, pair in zip(xis, stars):
                    assert np.max(np.abs(pair - mj.spinor_to_star(xi))) <= 1e-12
            else:
                assert_matches_oracle(batch)

    def test_su2_apply_on_a_batch(self, rng):
        u = mj.random_su2(rng)
        batch = mixed_batch(rng, 5, rows=12)
        moved = mj.su2_apply(u, batch)
        for i, psi in enumerate(batch):
            assert np.allclose(moved[i], mj.su2_apply(u, psi), atol=1e-13)


ROOT_MODULI = {"tiny": 1e-190, "subnormal": 1e-310, "huge": 1e190}


def kernel_batch(rng, n, rows, kinds):
    """rows states of dimension n, the kinds of row taking turns: "random";
    one root at |w| = 1e-190 ("tiny"), 1e-310 ("subnormal") or 1e190
    ("huge"); "degree", 1..n-1 leading amplitudes dropped; and "zeros",
    1..n-1 trailing amplitudes dropped (roots at 0)."""
    z = rng.standard_normal((2, rows, n - 1, 2))
    spinors = z[0] + 1j * z[1]
    kind = np.resize(np.array(kinds), rows)
    if n > 1:
        for name, modulus in ROOT_MODULI.items():
            # the ray (-w, 1), scaled to entries of modulus at most 1
            phase = np.exp(2j * np.pi * rng.uniform(size=rows))[kind == name]
            spinors[kind == name, 0] = np.stack(
                [-phase * min(modulus, 1.0), np.full_like(phase, min(1.0 / modulus, 1.0))],
                axis=-1)
    spinors /= np.linalg.norm(spinors, axis=-1, keepdims=True)
    batch = mj.roots_to_coefficients(mj.MajoranaRep(spinors, np.ones(rows)))
    if n > 1:
        drop = rng.integers(1, n, size=rows)
        cols = np.arange(n)
        batch[(kind == "degree")[:, None] & (cols >= n - drop[:, None])] = 0.0
        batch[(kind == "zeros")[:, None] & (cols < drop[:, None])] = 0.0
    return batch


def assert_rowmajor_bits(psi):
    rep = mj.coefficients_to_roots(psi)
    spinors, scale = rowmajor_factor(psi)
    for got, want in ((rep.spinors, spinors), (np.asarray(rep.scale), scale),
                      (rep.stars(), rowmajor_stars(spinors))):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def haar_rows(rng, n, rows):
    x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return x / np.linalg.norm(x, axis=1)[:, None]


def assert_round_trip(batch, tol=1e-12):
    """Each row rebuilds within tol of its largest amplitude, and the
    factorization raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mj.coefficients_to_roots(batch)
    err = np.abs(mj.roots_to_coefficients(rep) - batch).max(axis=1)
    assert (err <= tol * np.abs(batch).max(axis=1)).all()


class TestDegreeCut:
    """The cut compares amplitudes: the binomial weights pass 1e8 near
    n = 58, and a cut on the weighted coefficients dropped real top
    amplitudes there (and below 1e-8 of the rest already at n = 20)."""

    @pytest.mark.parametrize("n, top", [(20, 1e-8), (57, 1e-3), (64, 1e-3)])
    def test_small_top_amplitude_keeps_its_degree(self, rng, n, top):
        batch = haar_rows(rng, n, 20)
        batch[:, -1] *= top
        assert_round_trip(batch)

    @pytest.mark.parametrize("n", [57, 130])
    def test_overflowing_newton_step_stays_quiet(self, rng, n):
        # a top amplitude 1e-9 of the rest puts roots where the polish's
        # Horner pass overflows; those roots keep their eigvals value
        batch = haar_rows(rng, n, 5)
        batch[:, -1] *= 1e-9
        assert_round_trip(batch, tol=1e-8)

    @pytest.mark.parametrize("n", [69, 100])
    def test_binomials_beyond_int64(self, rng, n):
        assert_round_trip(haar_rows(rng, n, 10))

    def test_factorial_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="exceeds 171"):
            mj.coefficients_to_roots(np.ones(172))


class TestRowMajorParity:
    """The component-major kernel equals the row-major one bit for bit."""

    FULL = ("random", "tiny", "subnormal")  # every row of full degree
    MIXED = FULL + ("huge", "degree", "zeros")

    @pytest.mark.parametrize("rows", [1, 2, 257, 1000])
    def test_spinors_scale_and_stars(self, rng, monkeypatch, rows):
        # the smaller degree cut keeps the huge roots, which overflow the
        # Newton step of both kernels alike
        cuts = [(mj.TAU_LEAD, self.FULL), (1e-250, self.MIXED)]
        if rows <= 2:
            cuts.append((mj.TAU_LEAD, self.MIXED))
        for n, (cut, kinds) in itertools.product(range(1, 21), cuts):
            batch = kernel_batch(rng, n, max(rows, 7), kinds)
            monkeypatch.setattr(mj, "TAU_LEAD", cut)
            with np.errstate(over="ignore", invalid="ignore"):
                if rows > 2:
                    assert_rowmajor_bits(batch[:rows])
                    continue
                for i in range(6):  # each kind alone and next to the next kind
                    assert_rowmajor_bits(batch[i] if rows == 1 else batch[i:i + 2])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bi_factorization_reads_the_same_bits(self, rng, n):
        # the product over the kernel's transposed spinors would round some
        # factors differently from the one over row-major spinors
        for _ in range(40):
            red = decompose.reduce_triad(*random_triad(rng, n))
            spinors, _ = rowmajor_factor(red.psi3)
            want = red.xi[0] * (spinors @ red.xi.conj()) * spinors[:, 0].conj()
            assert decompose.bi_factorization(red).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_star_route_of_criterion_11_reads_the_same_bits(self, rng, n):
        # selftest criterion 11 moves the kernel's transposed spinors by u
        # with no contiguous copy; the product must round as over a copy
        for _ in range(200):
            rep = mj.coefficients_to_roots(core.random_state(n, rng))
            u = mj.random_su2(rng)
            assert n == 2 or not rep.spinors.flags.c_contiguous
            want = np.ascontiguousarray(rep.spinors) @ u.T
            assert (rep.spinors @ u.T).tobytes() == want.tobytes()


class TestPowerMajorExpansion:
    """_expand runs power-major on spinors.T and keeps the row-major values."""

    @pytest.mark.parametrize("rows", [1, 3, 257])
    def test_kernel_spinors_keep_every_bit(self, rng, rows):
        for n in range(1, 21):
            batch = mixed_batch(rng, n, max(rows, 6))[:rows] if n > 1 else np.ones((rows, 1))
            for psi in (batch, batch[0]):
                rep = mj.coefficients_to_roots(psi)
                got = mj._expand(rep.spinors).T
                assert got.tobytes() == rowmajor_expand(rep.spinors).tobytes()
                amps = mj.roots_to_coefficients(rep)
                assert amps.flags.c_contiguous
                assert amps.tobytes() == (np.asarray(rep.scale)[..., None]
                                          * rowmajor_expand(rep.spinors)
                                          * mj._weights(n)[1]).tobytes()

    def test_hand_built_spinors_keep_every_value(self, rng):
        # spinors of any phase, poles included: a power that no factor has
        # reached stays +0, where the row-major loop may leave -0, so only
        # the sign of an exactly zero coefficient can differ
        for n, lead in itertools.product(range(1, 12), ((), (2,), (2, 3))):
            z = rng.standard_normal(lead + (n - 1, 2, 2)) @ [1.0, 1j]
            if n > 2:
                z[..., 0, :] = [np.exp(2j * np.pi * rng.uniform()), 0.0]
                z[..., -1, :] = [0.0, -1.0]
            spinors = z / np.linalg.norm(z, axis=-1, keepdims=True)
            got, want = mj._expand(spinors).T, rowmajor_expand(spinors)
            assert got.shape == want.shape and np.array_equal(got, want)
            got = np.ascontiguousarray(got).view(float)
            assert (got[got != want.view(float)] == 0.0).all()


def quadratic_rows(c0, c1, c2):
    """n = 3 states whose star polynomial is c2 z^2 + c1 z + c0."""
    return np.stack(np.broadcast_arrays(c0, c1 / np.sqrt(2.0), c2),
                    axis=-1).astype(complex)


def root_stars(roots):
    """Stars of the spinors (-w, 1) of the roots w, one row per state."""
    roots = np.asarray(roots, dtype=complex)
    return mj.spinor_to_star(np.stack([-roots, np.ones_like(roots)], axis=-1))


class TestClosedFormPairs:
    """Degree-two rows take their two roots in closed form, not from eigvals."""

    def test_random_complex_quadratics(self, rng):
        size = (3, 300)
        c = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
             ) * 10.0 ** rng.uniform(-3, 3, size)
        assert_matches_oracle(quadratic_rows(*c))

    @pytest.mark.parametrize("roots", [
        [(3.0, 0.5), (-3.0, -0.5), (2.0, -0.7), (-2.0, 0.7), (1e6, 1e-6),
         (-1e6, -1e-6)],
        [(1 + 2j, 1 - 2j), (-1 + 2j, -1 - 2j), (0.3 + 1j, 0.3 - 1j)],
    ], ids=["real-pairs", "conjugate-pairs"])
    def test_real_coefficients(self, roots):
        # t0 = r1 + r2 takes both signs, so the discriminant's sign flip
        # runs on some rows and not on others; without it the small root
        # of the widely split pairs would lose digits to cancellation
        roots = np.array(roots)
        r1, r2 = roots.T
        rep = assert_matches_oracle(quadratic_rows(r1 * r2, -(r1 + r2), 1.0))
        for got, want in zip(rep.stars(), root_stars(roots)):
            assert mj.star_matching_distance(got, want) <= 1e-12

    def test_zero_linear_coefficient(self, rng):
        c0, c2 = (rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
        rep = assert_matches_oracle(quadratic_rows(c0, 0.0, c2))
        for got, w in zip(rep.stars(), np.sqrt(-c0 / c2)):
            assert mj.star_matching_distance(got, root_stars([w, -w])) <= 1e-12

    def test_close_roots_stay_apart(self, rng):
        # every split here is above the double-root cut, a gap of
        # 4 sqrt(eps) (1 + |t0| + |t1|); a companion-matrix or closed-form
        # root is good to about eps / split
        w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        split = w * np.repeat([1e-4, 1e-6], 20)
        roots = np.stack([w, w + split], axis=1)
        rep = mj.coefficients_to_roots(
            quadratic_rows(w * (w + split), -(2.0 * w + split), 1.0))
        for got, want in zip(rep.stars(), root_stars(roots)):
            assert mj.star_matching_distance(got, want) <= 1e-8

    @pytest.mark.xfail(strict=True, reason=(
        "the double-root cut snaps a root gap of 5e-8 at |w| = 0.05 to one "
        "double star, 5e-8 off both true stars, where eps / gap allows 4e-9; "
        "the two-chart root solve of ROADMAP direction 2 replaces the cut"))
    def test_close_small_roots_stay_apart(self):
        roots = np.array([0.05, 0.05 * (1.0 + 1e-6)])
        r1, r2 = roots
        rep = mj.coefficients_to_roots(quadratic_rows(r1 * r2, -(r1 + r2), 1.0))
        assert mj.star_matching_distance(rep.stars(), root_stars(roots)) <= 1e-8

    @pytest.mark.parametrize("largest, power", [(10.0, 1), (1e3, 2)])
    def test_distinct_roots_are_not_snapped(self, rng, monkeypatch, largest, power):
        # the cut is a chord of 1.2e-7 to 2.4e-7 between the two stars
        # wherever they sit, so gaps of 1e-6 (1 + |w|) clear it up to
        # |w| = 10 and gaps of 1e-6 (1 + |w|)^2 at any |w|; such rows keep
        # the closed form's roots bit for bit, as with no cut at all
        w = 10.0 ** rng.uniform(-3.0, np.log10(largest), 200) * np.exp(
            2j * np.pi * rng.uniform(size=200))
        gap = 1e-6 * (1.0 + np.abs(w)) ** power * np.exp(
            2j * np.pi * rng.uniform(size=200))
        rows = quadratic_rows(w * (w + gap), -(2.0 * w + gap), 1.0)
        rep = mj.coefficients_to_roots(rows)
        monkeypatch.setattr(mj, "_DOUBLE_ROOT", 0.0)
        uncut = mj.coefficients_to_roots(rows)
        assert np.array_equal(rep.spinors, uncut.spinors)
        assert np.array_equal(rep.scale, uncut.scale)

    @pytest.mark.parametrize("modulus", [1e-3, 1.0, 1e3])
    def test_rotated_double_star_stays_double(self, rng, modulus):
        # D^j(u) rounds the coefficients of a pure product by about
        # eps |c|; the cut must still see one double root
        w = modulus * np.exp(2j * np.pi * rng.uniform(size=100))
        etas = mj.as_spinor(np.stack([-w, np.ones_like(w)], axis=-1))
        for eta in etas:
            u = mj.random_su2(rng)
            moved = mj.su2_apply(u, mj.pure_product_state(u.conj().T @ eta, 3))
            stars = mj.coefficients_to_roots(moved).stars()
            assert np.max(np.abs(stars - mj.spinor_to_star(eta))) <= 1e-12

    def test_lead_just_above_the_cut(self, rng):
        batch = np.array([core.random_state(3, rng) for _ in range(50)])
        batch[:, 2] = 0.0
        peak = np.max(np.abs(batch * [1.0, np.sqrt(2.0), 1.0]), axis=1)
        batch[:, 2] = 1.5e-10 * peak * np.exp(2j * np.pi * rng.uniform(size=50))
        rep = assert_matches_oracle(batch)
        # no north spinor (1, 0) stands in for a missing degree: the large
        # root, near 1e10, is a spinor with beta near 1e-10
        beta = np.abs(rep.spinors[..., 1])
        assert beta.min() > 0.0 and 1e-12 < beta.min(axis=1).max() < 1e-8

    def test_roots_beyond_the_square_root_of_the_float_range(self, rng,
                                                             monkeypatch):
        # with a smaller degree cut a root can pass 1e154, where t0^2
        # overflows unless the discriminant is scaled first (np.roots
        # overflows too, in its Newton step, so the known roots are the
        # reference)
        monkeypatch.setattr(mj, "TAU_LEAD", 1e-250)
        roots = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
        roots[0] *= 1e190
        batch = quadratic_rows(roots[0] * roots[1], -roots.sum(axis=0), 1.0)
        rep = mj.coefficients_to_roots(batch)
        for got, want in zip(rep.stars(), root_stars(roots.T)):
            assert mj.star_matching_distance(got, want) <= 1e-12
        back = mj.roots_to_coefficients(rep)
        assert np.all(np.abs(back - batch) <= 1e-14 * np.abs(batch).max(axis=1)[:, None])

    def test_mixed_degrees_equal_single_rows(self, rng):
        batch = np.array([core.random_state(3, rng) for _ in range(48)])
        for i, zeros in enumerate([(1, 2), (2,), (0,), (0, 1), (1,), ()] * 8):
            batch[i, list(zeros)] = 0.0  # degree 0, 1 or 2; leading or trailing
        rep = assert_matches_oracle(batch)
        for i, psi in enumerate(batch):
            single = mj.coefficients_to_roots(psi)
            assert np.array_equal(single.spinors, rep.spinors[i])
            assert single.scale == rep.scale[i]

    def test_cut_moduli_keep_the_root_bits(self, rng):
        # |t0| r and |t1| r stand in for |u0| and |u1| / r; over the whole
        # exponent range, subnormal parts included, the roots keep every bit
        count = 200_000
        exps = rng.integers(-1080, 1024, size=(4, count))
        parts = np.ldexp(rng.uniform(0.5, 1.0, size=(4, count)), exps)
        parts *= rng.choice([-1.0, 1.0], size=(4, count))
        t0, t1 = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
        # a tenth with both parts of one size, a tenth with t1 = 0, and a
        # tenth near a double root, where the cut decides
        t0[::10] *= np.exp(2j * np.pi * rng.uniform(size=t0[::10].size))
        t1[1::10] = 0.0
        with np.errstate(all="ignore"):
            w = t0[2::10] / 2.0
            t1[2::10] = -w * w * (1.0 + 1e-7 * rng.uniform(-10.0, 10.0, size=w.size))
            got, want = mj._quadratic_roots(t0, t1), hypot_quadratic_roots(t0, t1)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_su2_apply_keeps_double_stars(self, rng):
        xis = [mj.as_spinor(core.random_state(2, rng)) for _ in range(50)]
        batch = np.array([mj.pure_product_state(xi, 3) for xi in xis])
        u = mj.random_su2(rng)
        stars = mj.coefficients_to_roots(mj.su2_apply(u, batch)).stars()
        for xi, pair in zip(xis, stars):
            assert np.max(np.abs(pair - mj.spinor_to_star(u @ xi))) <= 1e-12


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


def eps_family_lift(seed, eps, grid):
    """Lift of an eps-family profile between two random dimension-3 states."""
    rng = np.random.default_rng(seed)
    a, b = core.random_state(3, rng), core.random_state(3, rng)
    frame = curves.frame_from_pair(*curves.in_phase_gauge(a, b))
    profile = curves.generate_npc_profile(frame.theta0, eps, grid=grid)
    return curves.profile_to_lift(frame, profile)


def assert_same_trajectory(lift):
    """The trajectory matches the one-sample-at-a-time oracle, and each
    sample is the row-major kernel's star pair bit for bit, in one order or
    the other."""
    got = star_trajectory(lift)
    want, ties = oracle_trajectory(lift.psi)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    bits = np.ascontiguousarray(got).view(np.uint64)
    stars = rowmajor_stars(rowmajor_factor(lift.psi)[0]).view(np.uint64)
    assert ((bits == stars).all(axis=(1, 2))
            | (bits == stars[:, ::-1]).all(axis=(1, 2))).all()
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
            assert_same_trajectory(eps_family_lift(100 + seed, eps, 257))

    def test_eps_family_lift_at_grid_1025(self):
        assert_same_trajectory(eps_family_lift(103, 0.8, 1025))

    def test_geodesic_from_a_lower_degree_sample(self, rng):
        # the first sample's last amplitude is exactly 0: its degree is 1
        # and every later sample's 2, so the batch splits into two groups
        a, b = core.random_state(3, rng), core.random_state(3, rng)
        a[2] = 0.0
        lift = curves.geodesic_lift(*curves.in_phase_gauge(a / np.linalg.norm(a), b),
                                    grid=257)
        assert lift.psi[0, 2] == 0.0 and lift.psi[1:, 2].all()
        assert_same_trajectory(lift)

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


def trajectory_lifts(rng):
    """Geodesic and eps-family lifts, a lift from a lower-degree sample, the
    golden fixtures with ties and lifts with ties in the middle."""
    lifts = []
    for seed in range(4):
        gen = np.random.default_rng(seed)
        a, b = core.random_state(3, gen), core.random_state(3, gen)
        lifts.append(curves.geodesic_lift(*curves.in_phase_gauge(a, b), grid=257))
    lifts += [eps_family_lift(100 + seed, eps, 257) for seed, eps in enumerate((0.1, 1.2))]
    a, b = core.random_state(3, rng), core.random_state(3, rng)
    a[2] = 0.0
    lifts.append(curves.geodesic_lift(*curves.in_phase_gauge(a / np.linalg.norm(a), b),
                                      grid=257))
    lifts += [golden_lift("meridian_trajectory", 2),
              golden_lift("two_component_trajectory", 1)]
    for k in (0, 2):
        e = np.zeros(3, dtype=complex)
        e[k] = 1.0
        lifts.append(through_exact_sample(rng, e))
    return lifts


def interior_ties(stars):
    """Whether any sample after the first ties, for stars (samples, 2, 3)."""
    diff = stars[:, 0] - stars[:, 1]
    return bool((np.abs(np.sum(diff[:-1] * diff[1:], axis=1)) < 1e-12).any())


class TestSpinorStage:
    """star_trajectory reads its stars off the kernel's spinor stage and
    forms no scale; the stars and their order keep every bit."""

    def test_stars_are_the_factored_stars_reordered(self, rng):
        for lift in trajectory_lifts(rng):
            got = star_trajectory(lift)
            stars = mj.coefficients_to_roots(lift.psi).stars()
            assert got.shape == stars.shape
            bits, want = np.ascontiguousarray(got), np.ascontiguousarray(stars)
            kept = (bits == want).all(axis=(1, 2))
            swapped = (bits == want[:, ::-1]).all(axis=(1, 2))
            assert (kept | swapped).all()
            assert bits.tobytes() == np.where((~kept)[:, None, None], want[:, ::-1],
                                              want).tobytes()

    def test_tracks_with_and_without_interior_restarts(self, rng):
        # a track whose only restart is sample 0 skips the restart
        # bookkeeping; both kinds match the general matching code
        seen = set()
        for lift in trajectory_lifts(rng):
            stars = mj.coefficients_to_roots(lift.psi).stars()
            seen.add(interior_ties(stars))
            assert star_trajectory(lift).tobytes() == restart_order(stars).tobytes()
        assert seen == {False, True}

    def test_restart_order_ignores_rounding_noise_in_the_stars(self, monkeypatch):
        # both meridian stars have x = 0: a restart orders them by y, not by
        # the sign of whatever rounding leaves in x; the noise goes into the
        # stars the trajectory reads off the spinor stage
        lift = golden_lift("meridian_trajectory", 2)
        want = star_trajectory(lift)
        stars = mj.coefficients_to_roots(lift.psi).stars()
        for noise in (1e-30, -1e-30):
            noisy = stars.copy()
            noisy[:, 0, 0] += noise
            monkeypatch.setattr(decompose, "_unit_spinor_to_star", lambda xi: noisy)
            assert np.max(np.abs(star_trajectory(lift) - want)) <= 1e-12

    def test_unit_dimension_3_samples_keep_a_finite_scale(self, rng):
        # the trajectory forms no scale, so no unit sample may need the
        # scale check: the degree cut keeps |A2| above 1e-10 times the
        # peak, which bounds the roots and the lead product away from 0
        sizes = [0.0, 5e-324, 1e-300, 1e-150, 1.0000001e-10, 1e-5, 0.5, 1.0]
        rows = np.array([r for r in itertools.product(sizes, repeat=3) if max(r) == 1.0])
        rows = rows * np.exp(2j * np.pi * rng.uniform(size=rows.shape))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        scale = np.abs(mj.coefficients_to_roots(rows).scale)
        assert 1e-12 < scale.min() and scale.max() < 1e12


def endpoint(kind, rng):
    """A dimension-3 state: random, a double star, 1e-7 from a double star,
    or a basis vector."""
    if kind == "random":
        return core.random_state(3, rng)
    if kind == "basis":
        e = np.zeros(3, dtype=complex)
        e[int(rng.integers(3))] = 1.0
        return e
    double = mj.pure_product_state(core.random_state(2, rng), 3)
    if kind == "double":
        return double
    near = double + 1e-7 * core.random_state(3, rng)
    return near / np.linalg.norm(near)


ENDPOINT_PAIRS = [("random", "random"), ("double", "double"), ("random", "double"),
                  ("near", "random"), ("near", "near"), ("basis", "random"),
                  ("basis", "double"), ("double", "near"), ("basis", "near")]


def kind_lift(pair, grid, eps):
    """Geodesic (eps 0) or eps-family lift between the endpoints of one of
    ENDPOINT_PAIRS, drawn from a generator seeded by its index."""
    rng = np.random.default_rng([0, ENDPOINT_PAIRS.index(pair)])
    a, b = (endpoint(kind, rng) for kind in pair)
    if eps == 0.0:
        return curves.geodesic_lift(*curves.in_phase_gauge(a, b), grid=grid)
    frame = curves.frame_from_pair(a, b)
    profile = curves.generate_npc_profile(frame.theta0, eps, grid=grid)
    return curves.profile_to_lift(frame, profile)


# the one lift of the grid below on which the squared-chord rule and the
# great-circle oracle order a sample differently
PARTED = (("basis", "near"), 33, 0.4)


class TestSquaredChordOrder:
    # the kernel's own stars, ordered by the great-circle oracle: unlike
    # oracle_trajectory, this holds on samples with a double star, which
    # np.roots scatters by about 1e-8
    def test_orders_as_the_arc_oracle(self):
        parted = []
        for key in itertools.product(ENDPOINT_PAIRS, (33, 257, 1025), (0.0, 0.4)):
            lift = kind_lift(*key)
            want, _ = oracle_order(mj.coefficients_to_roots(lift.psi).stars())
            if star_trajectory(lift).tobytes() != want.tobytes():
                parted.append(key)
        assert parted == [PARTED]

    def test_rules_part_where_the_costs_nearly_tie(self):
        # the last sample's stars are 1e-3 apart; keeping the previous
        # order costs 1.4e-5 rad less in arcs but 1.4e-5 more in squared
        # chords, far outside either tie band, so the two rules swap it
        lift = kind_lift(*PARTED)
        stars = mj.coefficients_to_roots(lift.psi).stars()
        got = star_trajectory(lift)
        want, _ = oracle_order(stars)
        assert got[:-1].tobytes() == want[:-1].tobytes()
        assert got[-1].tobytes() == want[-1, ::-1].tobytes()
        # swapping the oracle's last pair minus keeping it, in arcs and
        # in squared chords
        prev, last = got[-2], want[-1]
        arcs = np.arccos(prev @ last.T)
        assert 1e-6 < arcs[0, 1] + arcs[1, 0] - arcs[0, 0] - arcs[1, 1] < 1e-4
        assert -1e-4 < 2.0 * (prev[0] - prev[1]) @ (last[0] - last[1]) < -1e-6


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
