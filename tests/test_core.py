"""Inner products, cyclic invariants and wrapping utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_angle_close, assert_unitary, random_triad
from holonomy_lab import core
from holonomy_lab.angles import extract_angles
from holonomy_lab.config import TAU_DEG
from holonomy_lab.core import DegenerateTriadError

from triad_oracle import oracle_projector


class TestAngleWrapping:
    def test_principal_range_boundaries(self):
        assert core.principal_angle(np.pi) == pytest.approx(np.pi)
        assert core.principal_angle(-np.pi) == pytest.approx(np.pi)
        assert core.principal_angle(2 * np.pi) == 0.0
        assert core.principal_angle(0.0) == 0.0

    @given(st.floats(-1e6, 1e6))
    def test_principal_is_equivalent_angle_in_range(self, x):
        y = core.principal_angle(x)
        assert -np.pi < y <= np.pi
        assert abs(np.exp(1j * y) - np.exp(1j * x)) < 1e-9

    @given(st.floats(-1e6, 1e6))
    def test_positive_wrap_range(self, x):
        y = core.wrap_angle_positive(x)
        assert 0.0 <= y < 2 * np.pi
        assert abs(np.exp(1j * y) - np.exp(1j * x)) < 1e-9


class TestInner:
    def test_conjugate_linear_in_first_argument(self, rng):
        a = core.random_state(4, rng)
        b = core.random_state(4, rng)
        z = 0.3 - 1.2j
        assert core.inner(z * a, b) == pytest.approx(np.conjugate(z) * core.inner(a, b))
        assert core.inner(a, z * b) == pytest.approx(z * core.inner(a, b))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            core.inner(np.ones(2), np.ones(3))

    def test_norm_and_normalize(self):
        v = np.array([3.0, 4.0j])
        assert core.norm(v) == pytest.approx(5.0)
        assert core.norm(core.normalize(v)) == pytest.approx(1.0)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            core.normalize(np.zeros(3))

    def test_projector_is_rank_one_hermitian(self, rng):
        p = oracle_projector(core.random_state(3, rng))
        assert np.trace(p) == pytest.approx(1.0)
        assert np.allclose(p, p.conj().T)
        assert np.allclose(p @ p, p)


class TestRayAngle:
    def test_boundary_test_rejects_both_ends(self):
        with pytest.raises(DegenerateTriadError, match="orthogonal"):
            core.check_modulus(TAU_DEG)
        with pytest.raises(DegenerateTriadError, match="coincident"):
            core.check_modulus(1.0 - TAU_DEG)
        for c in (np.nextafter(TAU_DEG, 1.0), 0.5,
                  np.nextafter(1.0 - TAU_DEG, 0.0)):
            assert core.check_modulus(c) == c
        assert issubclass(DegenerateTriadError, ValueError)

    def test_both_ends_of_a_pair_rejected(self):
        e0, e1 = np.eye(2, dtype=complex)
        with pytest.raises(DegenerateTriadError, match="orthogonal"):
            core.ray_angle(e0, e1)
        with pytest.raises(DegenerateTriadError, match="coincident"):
            core.ray_angle(e0, np.exp(0.4j) * e0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            core.ray_angle(np.array([bad, 0.0]), np.array([0.6, 0.8]))

    def test_matches_arccos_away_from_coincidence(self, rng):
        # 2 arccos|ov| keeps its digits once theta >= 0.2, so it is the oracle
        compared = 0
        for i in range(150):
            triad = random_triad(rng, 2 + i % 5)
            got = extract_angles(*triad)
            for (a, b), theta in zip([triad[:2], triad[1:], triad[::-2]],
                                     (got.theta_12, got.theta_23, got.theta_31)):
                oracle = 2.0 * np.arccos(abs(np.vdot(a, b)))
                if oracle >= 0.2:
                    assert abs(theta - oracle) < 1e-13
                    compared += 1
        assert compared > 400


class TestBargmann:
    def test_octant_value(self, octant):
        delta = core.bargmann(octant)
        assert delta == pytest.approx(0.25 + 0.25j)
        assert core.bi_phase(*octant) == pytest.approx(-np.pi / 4)

    def test_matches_projector_trace(self, rng):
        triad = random_triad(rng, 4)
        p1, p2, p3 = (oracle_projector(t) for t in triad)
        assert core.bargmann(triad) == pytest.approx(np.trace(p1 @ p2 @ p3))

    def test_cyclic_shift_changes_nothing_but_rounding(self, rng):
        t = random_triad(rng, 3)
        assert core.bargmann(t) == pytest.approx(
            core.bargmann([t[1], t[2], t[0]]), abs=1e-15)

    def test_reversal_conjugates(self, rng):
        t = random_triad(rng, 3)
        assert core.bargmann(t[::-1]) == pytest.approx(
            np.conjugate(core.bargmann(t)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_gauge_and_unitary_invariance(self, seed):
        gen = np.random.default_rng(seed)
        triad = random_triad(gen, 3)
        before = core.bargmann(triad)
        phased = [np.exp(1j * gen.uniform(0, 2 * np.pi)) * v for v in triad]
        assert core.bargmann(phased) == pytest.approx(before, abs=1e-12)
        u = core.random_unitary(3, gen)
        rotated = [u @ v for v in triad]
        assert core.bargmann(rotated) == pytest.approx(before, abs=1e-12)

    def test_higher_order_product(self, rng):
        states = [core.random_state(3, rng) for _ in range(5)]
        want = 1.0 + 0.0j
        for i in range(5):
            want *= core.inner(states[i], states[(i + 1) % 5])
        assert core.bargmann(states) == pytest.approx(want)

    def test_too_few_states_rejected(self, rng):
        with pytest.raises(ValueError):
            core.bargmann([core.random_state(2, rng)] * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude_rejected(self, octant, bad):
        for k in range(3):
            states = [v.copy() for v in octant]
            states[k][1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                core.bargmann(states)

    def test_orthogonal_link_is_degenerate(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        plus = core.normalize(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(DegenerateTriadError):
            core.bargmann([e1, e2, plus])

    def test_phase_lies_in_principal_range(self, rng):
        for _ in range(20):
            t = random_triad(rng, 3)
            p = core.bi_phase(*t)
            assert -np.pi < p <= np.pi
            assert_angle_close(p, -np.angle(core.bargmann(t)), 1e-12)


class TestRandomSampling:
    def test_random_state_is_unit_and_seeded(self):
        a = core.random_state(6, 42)
        b = core.random_state(6, 42)
        assert np.allclose(a, b)
        assert core.norm(a) == pytest.approx(1.0)

    def test_random_unitary_is_unitary_and_seeded(self):
        u = core.random_unitary(5, 7)
        v = core.random_unitary(5, 7)
        assert np.allclose(u, v)
        assert_unitary(u)

    def test_assert_unitary_rejects_stretch(self):
        with pytest.raises(ValueError):
            assert_unitary(np.diag([1.0, 2.0]))

    def test_assert_unitary_rejects_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            assert_unitary(np.full((2, 2), np.nan))
