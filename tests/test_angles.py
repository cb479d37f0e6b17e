"""Intrinsic angles, canonical triads and the coherent-state family."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_angle_close, random_triad
from holonomy_lab import angles as ang
from holonomy_lab import core, curves
from holonomy_lab.core import DegenerateTriadError, principal_angle
# independent number-basis oracle for coherent-state overlaps
from holonomy_lab.selftest import _fock_coherent as fock_expansion

from coherent_oracle import oracle_coherent_overlap


def qubit_slice(params):
    """The dimension-2 canonical triad: the first two entries of each
    state of the xi = 0 triad."""
    assert params.xi == 0.0
    return [psi[:2] for psi in ang.build_canonical_n3(params)]


class TestExtraction:
    def test_canonical_n2_angles_come_back(self):
        params = ang.CanonicalParamsN3(1.1, 0.8, 0.3, 4.9, 2.0, 0.0)
        triad = qubit_slice(params)
        assert [psi.size for psi in triad] == [2, 2, 2]
        got = ang.extract_angles(*triad)
        assert got.theta_12 == pytest.approx(params.theta_12)
        assert got.theta_31 == pytest.approx(params.theta_31)
        assert_angle_close(got.phi_12, params.phi_12, 1e-12)
        assert_angle_close(got.phi_31, params.phi_31, 1e-12)
        theta_23, phi_g = ang.solve_dependent_n3(1.1, 0.8, 2.0, 0.0)
        assert got.theta_23 == pytest.approx(theta_23)
        assert_angle_close(got.phi_g, phi_g, 1e-12)

    def test_overlap_convention(self, rng):
        triad = random_triad(rng, 3)
        got = ang.extract_angles(*triad)
        ov = core.inner(triad[0], triad[1])
        assert abs(ov) == pytest.approx(np.cos(got.theta_12 / 2))
        assert_angle_close(np.angle(ov), got.phi_12, 1e-12)
        ov31 = core.inner(triad[2], triad[0])
        assert_angle_close(np.angle(ov31), got.phi_31, 1e-12)

    def test_phases_reported_in_positive_range(self, rng):
        got = ang.extract_angles(*random_triad(rng, 4))
        for phi in (got.phi_12, got.phi_23, got.phi_31):
            assert 0.0 <= phi < 2 * np.pi
        assert -np.pi < got.phi_g <= np.pi

    def test_coincident_pair_rejected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        plus = core.normalize(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(DegenerateTriadError):
            ang.extract_angles(e1, e1, plus)


class TestForwardStableTheta:
    """theta_12 of a canonical triad moved by a unitary, to 16 eps absolute.

    That is a relative error of 16 eps / theta; 2 arccos|ov| loses about
    eps / theta^2 of relative accuracy near coincident rays instead.
    """

    @pytest.mark.parametrize("theta", [1e-2, 1e-3, 1e-4, 1e-5, np.pi - 1e-3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_close_and_near_orthogonal_rays(self, rng, n, theta):
        if n == 2:
            triad = qubit_slice(ang.CanonicalParamsN3(theta, 1.1, 0.3, 2.0, 0.7, 0.0))
        else:
            triad = ang.build_canonical_n3(
                ang.CanonicalParamsN3(theta, 1.1, 0.3, 2.0, 0.7, 0.6))
        bound = 16.0 * np.finfo(float).eps
        for _ in range(20):
            u = core.random_unitary(n, rng)
            moved = [u @ psi for psi in triad]
            assert abs(ang.extract_angles(*moved).theta_12 - theta) <= bound
            # the family's frame needs n >= 3; its theta0 is the in-phase
            # pair's ray angle, which is checked directly at n = 2
            if n == 2:
                theta0 = core.ray_angle(*curves.in_phase_gauge(moved[0], moved[1]))[1]
            else:
                theta0 = curves.frame_from_pair(moved[0], moved[1]).theta0
            assert abs(theta0 - theta) <= bound


class TestDependentPair:
    def test_matches_construction(self):
        theta_23, phi_g = ang.solve_dependent_n3(0.9, 1.3, 0.7, 0.0)
        triad = qubit_slice(ang.CanonicalParamsN3(0.9, 1.3, 0.0, 0.0, 0.7, 0.0))
        got = ang.extract_angles(*triad)
        assert got.theta_23 == pytest.approx(theta_23, abs=1e-12)
        assert_angle_close(got.phi_g, phi_g, 1e-12)

    def test_xi_zero_reduces_to_n2(self):
        # at xi = 0 the dimension-3 triad and its dimension-2 slice carry
        # the same angles, which the solver's pair matches
        params = ang.CanonicalParamsN3(1.0, 0.7, 0.4, 1.9, 2.1, 0.0)
        full = ang.extract_angles(*ang.build_canonical_n3(params))
        assert ang.extract_angles(*qubit_slice(params)) == full
        theta_23, phi_g = ang.solve_dependent_n3(1.0, 0.7, 2.1, 0.0)
        assert full.theta_23 == pytest.approx(theta_23, abs=1e-12)
        assert_angle_close(full.phi_g, phi_g, 1e-12)

    def test_orthogonal_result_rejected(self):
        # equal half-angle tangents and opposite phases cancel exactly
        with pytest.raises(DegenerateTriadError):
            ang.solve_dependent_n3(np.pi / 2, np.pi / 2, np.pi, 0.0)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ang.solve_dependent_n3(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ang.solve_dependent_n3(1.0, 1.0, 1.0, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sixth_angle_consistency_property(self, seed):
        gen = np.random.default_rng(seed)
        t12, t31 = gen.uniform(0.2, np.pi - 0.2, size=2)
        phi = gen.uniform(0, 2 * np.pi)
        xi = gen.uniform(0.1, np.pi / 2 - 0.1)
        w = (np.cos(t12 / 2) * np.cos(t31 / 2)
             + np.exp(1j * phi) * np.sin(t12 / 2) * np.sin(t31 / 2) * np.cos(xi))
        if abs(w) < 1e-3 or abs(w) > 1 - 1e-6:
            return
        params = ang.CanonicalParamsN3(t12, t31, gen.uniform(0, 2 * np.pi),
                                       gen.uniform(0, 2 * np.pi), phi, xi)
        got = ang.extract_angles(*ang.build_canonical_n3(params))
        theta_23, phi_g = ang.solve_dependent_n3(t12, t31, phi, xi)
        assert got.theta_23 == pytest.approx(theta_23, abs=1e-10)
        assert_angle_close(got.phi_g, phi_g, 1e-10)


class TestCanonicalTriads:
    def test_n2_overlaps_by_construction(self):
        p = ang.CanonicalParamsN3(1.2, 0.6, 0.9, 2.8, 1.5, 0.0)
        psi1, psi2, psi3 = qubit_slice(p)
        assert core.inner(psi1, psi2) == pytest.approx(
            np.exp(1j * p.phi_12) * np.cos(p.theta_12 / 2))
        assert core.inner(psi3, psi1) == pytest.approx(
            np.exp(1j * p.phi_31) * np.cos(p.theta_31 / 2))

    def test_n3_third_direction(self):
        p = ang.CanonicalParamsN3(1.2, 0.6, 0.9, 2.8, 1.5, 0.7)
        psi1, psi2, psi3 = ang.build_canonical_n3(p)
        assert psi2[2] == 0.0
        assert abs(psi3[2]) == pytest.approx(np.sin(p.theta_31 / 2) * np.sin(0.7))
        got = ang.extract_angles(psi1, psi2, psi3)
        theta_23, _ = ang.solve_dependent_n3(1.2, 0.6, 1.5, 0.7)
        assert got.theta_23 == pytest.approx(theta_23)

    def test_xi_zero_builds_without_a_warning(self):
        # xi = 0 is the dimension-2 input, not a boundary to warn about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ang.CanonicalParamsN3(1.0, 1.0, 0.0, 0.0, 1.0, 0.0)
            triad = ang.build_canonical_n3(p)
        assert [psi[2] for psi in triad] == [0.0, 0.0, 0.0]

    def test_xi_right_angle_warns_that_phi_drops_out(self):
        # the triad keeps rank 3 there; only phi leaves the phase
        with pytest.warns(UserWarning, match="phi drops out"):
            p = ang.CanonicalParamsN3(1.0, 1.0, 0.0, 0.0, 1.0, np.pi / 2)
        assert np.linalg.matrix_rank(np.array(ang.build_canonical_n3(p))) == 3
        phases = [ang.pancharatnam_phase(1.0, 1.0, phi, np.pi / 2)
                  for phi in (0.3, 1.0, 2.0)]
        assert np.ptp(phases) <= 1e-15

    def test_degenerate_parameters_rejected_up_front(self):
        with pytest.raises(DegenerateTriadError):
            ang.build_canonical_n3(
                ang.CanonicalParamsN3(np.pi / 2, np.pi / 2, 0.0, 0.0, np.pi, 0.0))


class TestClosedFormPhase:
    def test_matches_direct_phase_n2(self):
        p = ang.CanonicalParamsN3(0.9, 1.4, 1.0, 4.0, 2.8, 0.0)
        triad = qubit_slice(p)
        assert_angle_close(ang.pancharatnam_phase(0.9, 1.4, 2.8),
                           core.bi_phase(*triad), 1e-12)

    def test_matches_direct_phase_n3(self):
        p = ang.CanonicalParamsN3(0.9, 1.4, 1.0, 4.0, 2.8, 0.5)
        triad = ang.build_canonical_n3(p)
        assert_angle_close(ang.pancharatnam_phase(0.9, 1.4, 2.8, xi=0.5),
                           core.bi_phase(*triad), 1e-12)

    def test_singularity_raises(self):
        with pytest.raises(DegenerateTriadError):
            ang.pancharatnam_phase(np.pi / 2, np.pi / 2, np.pi)

    def test_xi_none_is_refused(self):
        with pytest.raises(TypeError):
            ang.pancharatnam_phase(0.9, 1.4, 2.8, xi=None)


class TestQubitSlice:
    """The xi = 0 slice of the canonical forms is the dimension-2 one, bit
    for bit, against the qubit formulas written out."""

    @staticmethod
    def qubit_triad(t12, t31, phi_12, phi_31, phi):
        c12, s12 = np.cos(t12 / 2), np.sin(t12 / 2)
        c31, s31 = np.cos(t31 / 2), np.sin(t31 / 2)
        return (np.array([1.0, 0.0], dtype=complex),
                np.exp(1j * phi_12) * np.array([c12, s12], dtype=complex),
                np.exp(-1j * phi_31) * np.array([c31, np.exp(1j * phi) * s31],
                                                dtype=complex))

    def test_builder_solver_and_phase(self, rng):
        for _ in range(200):
            t12, t31 = rng.uniform(0.2, np.pi - 0.2, size=2)
            phi_12, phi_31, phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
            w = (np.cos(t12 / 2) * np.cos(t31 / 2)
                 + np.exp(1j * phi) * np.sin(t12 / 2) * np.sin(t31 / 2))
            if not 1e-3 <= abs(w) <= 1.0 - 1e-6:
                continue
            full = ang.build_canonical_n3(
                ang.CanonicalParamsN3(t12, t31, phi_12, phi_31, phi, 0.0))
            assert [psi[2] for psi in full] == [0.0, 0.0, 0.0]
            for a, b in zip(full, self.qubit_triad(t12, t31, phi_12, phi_31, phi)):
                assert a[:2].tobytes() == b.tobytes()
            theta_23 = 2.0 * math.acos(abs(complex(w)))
            phi_g = principal_angle(-float(np.angle(w)))
            assert ang.solve_dependent_n3(t12, t31, phi, 0.0) == (theta_23, phi_g)
            tangents = 1.0 + np.exp(1j * phi) * (np.tan(t12 / 2) * np.tan(t31 / 2))
            assert ang.pancharatnam_phase(t12, t31, phi) == principal_angle(
                -float(np.angle(tangents)))


class TestCoherent:
    def test_overlap_against_series(self, rng):
        for _ in range(10):
            z1 = complex(*rng.uniform(-1.5, 1.5, 2))
            z2 = complex(*rng.uniform(-1.5, 1.5, 2))
            got = oracle_coherent_overlap(z1, z2)
            want = core.inner(fock_expansion(z1), fock_expansion(z2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_overlap_modulus_is_gaussian_in_distance(self):
        z1, z2 = 0.3 + 0.1j, -0.5 + 0.9j
        assert abs(oracle_coherent_overlap(z1, z2)) == pytest.approx(
            np.exp(-0.5 * abs(z1 - z2) ** 2))

    def test_dependent_pair_matches_overlap_product(self, rng):
        for _ in range(10):
            r, rp = rng.uniform(0.4, 1.8, 2)
            phi_prime = rng.uniform(0.2, 2 * np.pi - 0.2)
            z2, z3 = complex(r), rp * np.exp(1j * phi_prime)
            t12 = 2 * np.arccos(np.exp(-0.5 * r * r))
            t31 = 2 * np.arccos(np.exp(-0.5 * rp * rp))
            theta_23, phi_g = ang.solve_dependent_coherent(t12, t31, phi_prime)
            ov = oracle_coherent_overlap
            delta = ov(0, z2) * ov(z2, z3) * ov(z3, 0)
            assert theta_23 == pytest.approx(2 * np.arccos(abs(ov(z2, z3))), abs=1e-12)
            assert_angle_close(phi_g, -np.angle(delta), 1e-12)

    def test_radial_labels_invert_the_first_angles(self):
        params = ang.CoherentTriadParams(1.1, 0.7, 0.5)
        assert np.exp(-0.5 * params.r ** 2) == pytest.approx(np.cos(1.1 / 2))
        assert np.exp(-0.5 * params.r_prime ** 2) == pytest.approx(np.cos(0.7 / 2))

    def test_coincident_labels_rejected(self):
        t = 2 * np.arccos(np.exp(-0.5))
        with pytest.raises(DegenerateTriadError):
            ang.solve_dependent_coherent(t, t, 0.0)


class TestGauge:
    def test_phase_shift_law(self, rng):
        triad = random_triad(rng, 3)
        alphas = rng.uniform(0, 2 * np.pi, 3)
        before = ang.extract_angles(*triad)
        after = ang.extract_angles(*ang.gauge_transform(triad, alphas))
        assert_angle_close(after.phi_12, before.phi_12 - alphas[0] + alphas[1], 1e-12)
        assert_angle_close(after.phi_23, before.phi_23 - alphas[1] + alphas[2], 1e-12)
        assert_angle_close(after.phi_31, before.phi_31 - alphas[2] + alphas[0], 1e-12)
        assert_angle_close(after.phi_g, before.phi_g, 1e-12)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            ang.gauge_transform(random_triad(rng, 2), [0.1, 0.2])


class TestNonFiniteParameters:
    # a NaN compares False both ways, so each parameter needs its own gate
    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("slot", range(3))
    def test_dependent_solvers(self, bad, slot):
        args = [1.0, 1.2, 0.7]
        args[slot] = bad
        with pytest.raises(ValueError):
            ang.solve_dependent_n3(*args, 0.0)
        with pytest.raises(ValueError):
            ang.solve_dependent_n3(*args, 0.4)
        with pytest.raises(ValueError):
            ang.solve_dependent_coherent(*args)
        with pytest.raises(ValueError):
            ang.pancharatnam_phase(*args)
        with pytest.raises(ValueError):
            ang.pancharatnam_phase(*args, xi=0.4)

    @pytest.mark.parametrize("bad", BAD)
    def test_xi(self, bad):
        with pytest.raises(ValueError, match="xi"):
            ang.solve_dependent_n3(1.0, 1.2, 0.7, bad)
        with pytest.raises(ValueError, match="xi"):
            ang.pancharatnam_phase(1.0, 1.2, 0.7, xi=bad)
        with pytest.raises(ValueError, match="xi"):
            ang.CanonicalParamsN3(1.0, 1.2, 0.3, 0.4, 0.7, bad)
        with pytest.raises(TypeError, match="xi"):  # xi has no default
            ang.CanonicalParamsN3(1.0, 1.2, 0.3, 0.4, 0.7)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("slot", range(5))
    def test_canonical_params(self, bad, slot):
        args = [1.0, 1.2, 0.3, 0.4, 0.7]
        args[slot] = bad
        with pytest.raises(ValueError):
            ang.CanonicalParamsN3(*args, 0.0)
        with pytest.raises(ValueError):
            ang.CanonicalParamsN3(*args, 0.5)

    @pytest.mark.parametrize("bad", BAD)
    def test_coherent_params(self, bad):
        with pytest.raises(ValueError, match="phi_prime"):
            ang.CoherentTriadParams(1.0, 1.2, bad)

    def test_finite_phases_outside_one_turn_still_accepted(self):
        a = ang.solve_dependent_n3(1.0, 1.2, 0.7, 0.0)
        assert ang.solve_dependent_n3(1.0, 1.2, 0.7 + 4 * np.pi, 0.0) == pytest.approx(a)


# Input refusals no other test reaches, each with its exception and message.
REFUSALS = [
    pytest.param(lambda: ang.extract_angles(np.ones(2), np.ones(2), np.ones(3)),
                 ValueError, "dimension mismatch: 2 vs 2 vs 3", id="extract-dimensions"),
]


@pytest.mark.parametrize("call, exc, message", REFUSALS)
def test_input_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
