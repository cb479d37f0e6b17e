"""Canonical reduction, two-level factors and solid angles."""

import math

import numpy as np
import pytest

from holonomy_lab import core
from holonomy_lab.config import TAU_DEG
from holonomy_lab.core import DegenerateTriadError
from holonomy_lab.curves import geodesic_lift, in_phase_gauge
from holonomy_lab.decompose import (
    bi_factorization,
    phase_from_solid_angles_n3,
    reduce_triad,
    solid_angle,
    solid_angle_pair,
    star_trajectory,
)
from holonomy_lab.majorana import pure_product_state, spinor_to_star

from conftest import assert_angle_close, assert_unitary, partner, random_triad

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


class TestReduceTriad:
    def test_transform_is_unitary_and_applied(self, rng):
        triad = random_triad(rng, 5)
        red = reduce_triad(*triad)
        assert_unitary(red.transform)
        for out, original in zip((red.psi1, red.psi2, red.psi3), triad):
            assert np.allclose(out, red.transform @ core.normalize(original),
                               atol=1e-12)

    def test_first_state_lands_on_basis_vector(self, rng):
        red = reduce_triad(*random_triad(rng, 4))
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        assert np.allclose(red.psi1, e1, atol=1e-12)

    def test_second_state_is_pure_product(self, rng):
        red = reduce_triad(*random_triad(rng, 6))
        target = pure_product_state(red.xi, 6)
        assert abs(core.inner(red.psi2, target)) == pytest.approx(1.0)
        assert np.allclose(red.psi2, target, atol=1e-9)

    def test_overlaps_survive_the_move(self, rng):
        triad = [core.normalize(v) for v in random_triad(rng, 5)]
        red = reduce_triad(*triad)
        outs = (red.psi1, red.psi2, red.psi3)
        for i in range(3):
            j = (i + 1) % 3
            assert core.inner(outs[i], outs[j]) == pytest.approx(
                core.inner(triad[i], triad[j]), abs=1e-12)

    def test_alpha_branch(self, rng):
        n = 5
        triad = random_triad(rng, n)
        red = reduce_triad(*triad)
        ov = core.inner(core.normalize(triad[0]), core.normalize(triad[1]))
        assert np.angle(red.alpha) == pytest.approx(np.angle(ov) / (n - 1))
        assert abs(red.alpha) == pytest.approx(abs(ov) ** (1 / (n - 1)))
        # the other spinor component is the real nonnegative remainder
        assert red.xi[1].imag == 0.0
        assert red.xi[1].real == pytest.approx(
            np.sqrt(1 - abs(red.alpha) ** 2))

    def test_dimension_two_keeps_the_full_overlap(self, rng):
        triad = random_triad(rng, 2)
        red = reduce_triad(*triad)
        ov = core.inner(core.normalize(triad[0]), core.normalize(triad[1]))
        assert complex(red.alpha) == pytest.approx(ov)

    def test_coincident_pair_rejected(self, rng):
        v = core.random_state(3, rng)
        w = core.random_state(3, rng)
        with pytest.raises(DegenerateTriadError):
            reduce_triad(v, v * np.exp(0.4j), w)

    def test_orthogonal_link_rejected(self, rng):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateTriadError):
            reduce_triad(v1, v2, core.random_state(3, rng))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            reduce_triad(core.random_state(3, rng), core.random_state(4, rng),
                         core.random_state(3, rng))


class TestBiFactorization:
    def test_full_product_identity(self, rng):
        # not just the phases: the product of two-level invariants times
        # |scale|^2 (n-1)! rebuilds the whole triad invariant
        for n in (2, 3, 4, 7):
            triad = random_triad(rng, n)
            red = reduce_triad(*triad)
            factors = bi_factorization(red)
            assert len(factors) == n - 1
            norm = abs(red.rep3.scale) ** 2 * math.factorial(n - 1)
            assert norm * np.prod(factors) == pytest.approx(
                core.bargmann(triad), abs=1e-10)

    def test_phase_sum_identity(self, rng):
        triad = random_triad(rng, 6)
        factors = bi_factorization(reduce_triad(*triad))
        total = float(np.sum(np.angle(factors)))
        assert_angle_close(core.principal_angle(-total),
                           core.bi_phase(*triad), tol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_every_accepted_triad_factors_near_the_orthogonal_edge(self, n):
        # The smallest overlap c is swept log-uniformly from TAU_DEG to 1,
        # taken by each pair in turn.  The factor phases sum to arg Delta
        # within K eps / min overlap: over 60000 draws per n (seeds 0, 100,
        # 200) the worst K read 13.1 at n = 2, 8.9 at n = 3, 5.9 at n = 5
        # and 6.1 at n = 8, so K = 32 leaves 2.4 times headroom.  Every
        # overlap stays at most 0.99: toward coincident first rays the sum
        # loses accuracy as eps / sqrt(1 - c12), a separate edge.
        rng = np.random.default_rng(3700 + n)
        eps = np.finfo(float).eps
        done = 0
        while done < 300:
            c = 10.0 ** rng.uniform(math.log10(TAU_DEG), 0.0)
            pair = done % 3
            triad = [core.random_state(n, rng) for _ in range(3)]
            triad[(pair + 1) % 3] = partner(rng, triad[pair], c)
            least, most = min(overlap_moduli(triad)), max(overlap_moduli(triad))
            if most > 0.99:
                continue
            done += 1
            try:
                red = reduce_triad(*triad)
            except DegenerateTriadError:
                assert least <= TAU_DEG
                continue
            total = float(np.sum(np.angle(bi_factorization(red))))
            gap = abs(core.principal_angle(total - np.angle(core.bargmann(triad))))
            assert gap <= 32.0 * eps / least, (c, pair, gap)

    def test_tiny_invariant_of_overlaps_above_the_edge_factors(self):
        # Delta = 9.9e-13 is below TAU_DEG though every overlap is above
        # it; the one two-level factor used to be refused as vanishing
        a = 0.1
        psi2 = np.array([math.cos(a), math.sin(a)], dtype=complex)
        perp = np.array([-math.sin(a), math.cos(a)], dtype=complex)
        triad = [np.array([1.0, 0.0], dtype=complex), psi2,
                 1e-11 * psi2 + math.sqrt(1.0 - 1e-22) * perp]
        assert min(overlap_moduli(triad)) == pytest.approx(1e-11)
        factors = bi_factorization(reduce_triad(*triad))
        delta = core.bargmann(triad)
        assert abs(delta) < TAU_DEG < min(overlap_moduli(triad))
        assert abs(factors[0]) == pytest.approx(abs(delta))
        assert_angle_close(np.angle(factors[0]), np.angle(delta), tol=1e-15)


def overlap_moduli(triad):
    return [abs(core.inner(a, b)) for a, b in zip(triad, triad[1:] + triad[:1])]


class TestSolidAngle:
    def test_octant_value(self):
        assert solid_angle(Z, X, Y) == pytest.approx(-np.pi / 2)

    def test_orientation_flip_changes_sign(self, rng):
        for _ in range(10):
            ns = rng.normal(size=(3, 3))
            ns /= np.linalg.norm(ns, axis=1)[:, None]
            a = solid_angle(*ns)
            b = solid_angle(ns[0], ns[2], ns[1])
            assert a == pytest.approx(-b, abs=1e-9)

    def test_repeated_vertex_gives_zero(self):
        assert solid_angle(Z, Z, X) == pytest.approx(0.0)

    def test_hemisphere_is_two_pi(self):
        # three vertices spread around the equator bound a hemisphere
        r = np.sqrt(3.0) / 2.0
        ring = [X, np.array([-0.5, r, 0.0]), np.array([-0.5, -r, 0.0])]
        assert abs(solid_angle(*ring)) == pytest.approx(2 * np.pi)
        assert abs(solid_angle(ring[0], ring[2], ring[1])) == pytest.approx(
            2 * np.pi)

    def test_antipodal_vertices_rejected(self):
        with pytest.raises(ValueError, match="antipodal"):
            solid_angle(Z, -Z, X)

    def test_column_vertex_is_refused(self):
        # a (3, 1) vertex is not reshaped into a star
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(3, 1\)"):
            solid_angle([[1.0], [0.0], [0.0]], [0, 1.0, 0], [0, 0, 1.0])

    @pytest.mark.parametrize("z", [1e-7, 1e-9])
    def test_near_hemisphere(self, z):
        # next to a hemisphere the half-angle excess formulas lose half
        # their digits; the triple-product form matches the spinor value
        t = 2 * np.pi * np.arange(3) / 3
        ring = np.stack([np.cos(t), np.sin(t), np.full(3, z)], axis=1)
        ring /= np.linalg.norm(ring, axis=1)[:, None]
        for vertices in (ring, ring[::-1]):
            a, b, c = vertices
            excess = -2 * math.atan2(a @ np.cross(b, c),
                                     1 + a @ b + b @ c + c @ a)
            got = solid_angle(*vertices)
            assert abs(math.remainder(got - excess, 4 * np.pi)) < 1e-14
            assert 2 * np.pi - 20 * z < abs(got) < 2 * np.pi

    def test_random_triangles_pass_the_cross_check(self, rng):
        ns = rng.normal(size=(2000, 3, 3))
        ns /= np.linalg.norm(ns, axis=2)[:, :, None]
        for vertices in ns:
            solid_angle(*vertices)  # raises when the two routes disagree


class TestSolidAnglePhase:
    def test_matches_triad_phase(self, rng):
        for _ in range(10):
            triad = random_triad(rng, 3)
            got = core.principal_angle(phase_from_solid_angles_n3(*triad))
            assert_angle_close(got, core.bi_phase(*triad), tol=1e-8)

    def test_octant_triad(self, octant):
        got = core.principal_angle(phase_from_solid_angles_n3(
            *[np.append(v, 0.0) for v in octant]))
        assert got == pytest.approx(-np.pi / 4)

    def test_dimension_guard(self, rng):
        with pytest.raises(ValueError, match="dimension 3"):
            phase_from_solid_angles_n3(*random_triad(rng, 4))

    def test_dimension_is_tested_before_anything_else(self):
        # a zero psi1 and unusable psi2, psi3: the dimension error comes first
        with pytest.raises(ValueError, match="this identity is specific to dimension 3"):
            phase_from_solid_angles_n3(np.zeros(4), [np.nan], None)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            phase_from_solid_angles_n3(np.ones((3, 1)), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="cannot normalize"):
            phase_from_solid_angles_n3(np.zeros(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="cannot normalize"):
            phase_from_solid_angles_n3([1.0, np.inf, 0.0], np.ones(3), np.ones(3))

    def test_psi1_is_read_as_given(self, rng):
        # integer, real and unnormalized psi1 give the reduction's own answer
        t = random_triad(rng, 3)
        want = 0.5 * sum(solid_angle_pair(reduce_triad(*t)))
        assert phase_from_solid_angles_n3(*t) == want
        assert phase_from_solid_angles_n3(3.0 * t[0], t[1], t[2]) == 0.5 * sum(
            solid_angle_pair(reduce_triad(3.0 * t[0], t[1], t[2])))
        e1 = [1, 0, 0]
        assert phase_from_solid_angles_n3(e1, t[1], t[2]) == 0.5 * sum(
            solid_angle_pair(reduce_triad(e1, t[1], t[2])))


class TestStarTrajectory:
    def test_shape_and_continuity(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        lift = geodesic_lift(*in_phase_gauge(a, b), grid=129)
        stars = star_trajectory(lift)
        assert stars.shape == (129, 2, 3)
        assert np.allclose(np.linalg.norm(stars, axis=2), 1.0, atol=1e-9)
        jumps = np.linalg.norm(np.diff(stars, axis=0), axis=2)
        assert np.max(jumps) < 0.2

    def test_first_sample_is_sorted(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        stars = star_trajectory(geodesic_lift(*in_phase_gauge(a, b), grid=9))
        assert tuple(stars[0, 0]) <= tuple(stars[0, 1])

    def test_dimension_guard(self, rng):
        a = core.random_state(4, rng)
        b = core.random_state(4, rng)
        lift = geodesic_lift(*in_phase_gauge(a, b), grid=9)
        with pytest.raises(ValueError, match="dimension-3"):
            star_trajectory(lift)


class TestSolidAngleInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_vertex_rejected(self, bad, slot):
        # NaN compares False with every tolerance, so only a gate stops it
        vertices = [Z.copy(), X.copy(), Y.copy()]
        vertices[slot][slot] = bad
        with pytest.raises(ValueError, match="finite unit vector"):
            solid_angle(*vertices)
