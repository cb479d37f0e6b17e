"""The one-triad path against the route it replaced (tests/triad_oracle.py)."""

import math

import numpy as np
import pytest

from holonomy_lab import core, majorana as mj
from holonomy_lab.decompose import (
    bi_factorization,
    reduce_triad,
    solid_angle,
    solid_angle_pair,
)

from conftest import random_triad
from star_oracle import oracle_decomposition, paired_spinors
from triad_oracle import (
    oracle_factors,
    oracle_reduce_triad,
    oracle_solid_angle,
    oracle_solid_angle_pair,
)

TOL = 1e-12


def partner(rng, v, overlap):
    """A unit state whose overlap with the unit state v has modulus ``overlap``."""
    w = core.random_state(v.size, rng)
    w = core.normalize(w - np.vdot(v, w) * v)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return phase * (overlap * v + math.sqrt(1.0 - overlap ** 2) * w)


def band_edge_triads(rng, n):
    """Triads with one overlap at the edges of the sampler's band."""
    out = []
    for overlap in (0.05, 1.0 - 1e-6):
        for pair in range(3):
            t = [core.random_state(n, rng) for _ in range(3)]
            t[(pair + 1) % 3] = partner(rng, t[pair], overlap)
            out.append(t)
    return out


def octant(n):
    r = 1.0 / math.sqrt(2.0)
    states = [[1.0, 0.0], [r, r], [r, 1j * r]]
    return [np.array(s + [0.0] * (n - 2), dtype=complex) for s in states]


def parity_triads(n):
    rng = np.random.default_rng(7000 + n)
    triads = [random_triad(rng, n) for _ in range(40)]
    triads += band_edge_triads(rng, n)
    triads.append(octant(n))
    # unnormalized input with scrambled global phases
    triads.append([3.0 * np.exp(0.4j) * v for v in random_triad(rng, n)])
    return triads


def assert_same_reduction(got, want):
    for name in ("psi1", "psi2", "psi3", "transform", "xi"):
        gap = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert gap <= TOL, f"{name} differs by {gap:.3e}"
    spinors = paired_spinors(got.rep3.spinors, want.rep3.spinors)
    assert np.max(np.abs(got.rep3.spinors - spinors)) <= TOL
    assert abs(got.rep3.scale - want.rep3.scale) <= TOL * abs(want.rep3.scale)


@pytest.mark.parametrize("n", range(2, 9))
class TestReductionParity:
    def test_reduction(self, n):
        for triad in parity_triads(n):
            assert_same_reduction(reduce_triad(*triad), oracle_reduce_triad(*triad))

    def test_factors(self, n):
        for triad in parity_triads(n):
            red = reduce_triad(*triad)
            got, want = bi_factorization(red), oracle_factors(red)
            assert got.shape == want.shape == (n - 1,)
            assert np.max(np.abs(got - want)) <= TOL


class TestSolidAngleParity:
    def test_pair_in_dimension_three(self):
        for triad in parity_triads(3):
            red = reduce_triad(*triad)
            got, want = solid_angle_pair(red), oracle_solid_angle_pair(red)
            assert np.max(np.abs(np.subtract(got, want))) <= TOL

    def test_random_triangles(self, rng):
        ns = rng.normal(size=(500, 3, 3))
        ns /= np.linalg.norm(ns, axis=2)[:, :, None]
        for vertices in ns:
            assert abs(solid_angle(*vertices) - oracle_solid_angle(*vertices)) <= TOL

    @pytest.mark.parametrize("vertices", [
        ([0, 0, 1], [0, 0, -1], [1, 0, 0]),  # antipodal pair
        ([0, 0, 1], [0, 0, 2], [1, 0, 0]),  # not a unit vector
    ])
    def test_same_rejections(self, vertices):
        with pytest.raises(ValueError):
            oracle_solid_angle(*vertices)
        with pytest.raises(ValueError):
            solid_angle(*vertices)


class TestSameExceptions:
    @staticmethod
    def assert_both_raise(triad, exc):
        with pytest.raises(exc):
            oracle_reduce_triad(*triad)
        with pytest.raises(exc):
            reduce_triad(*triad)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("pair", range(3))
    def test_orthogonal_pairs(self, rng, n, pair):
        t = [core.random_state(n, rng) for _ in range(3)]
        t[(pair + 1) % 3] = partner(rng, t[pair], 0.0)
        self.assert_both_raise(t, core.DegenerateTriadError)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_coincident_first_pair(self, rng, n):
        v = core.random_state(n, rng)
        self.assert_both_raise([v, np.exp(0.3j) * v, core.random_state(n, rng)],
                               core.DegenerateTriadError)

    def test_overlap_at_the_degeneracy_floor(self, rng):
        v = core.random_state(4, rng)
        self.assert_both_raise([v, partner(rng, v, 1e-13), core.random_state(4, rng)],
                               core.DegenerateTriadError)

    def test_non_finite_and_mismatched_input(self, rng):
        t = [core.random_state(3, rng) for _ in range(3)]
        t[2][1] = np.nan
        self.assert_both_raise(t, ValueError)
        self.assert_both_raise([core.random_state(3, rng), core.random_state(4, rng),
                                core.random_state(3, rng)], ValueError)
        self.assert_both_raise([np.ones(1), np.ones(1), np.ones(1)], ValueError)


class TestOneByOneCompanion:
    def test_entry_is_what_eigvals_returns(self, rng):
        # LAPACK rescales matrices whose entries are below about 1e-146 or
        # above about 1e146, which rounds the eigenvalue; inside that range
        # a 1x1 eigenvalue comes back bit for bit
        z = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) * 10.0 ** (
            rng.uniform(-100, 100, 5000))
        got = np.linalg.eigvals(z[:, None, None])[:, 0]
        assert np.array_equal(got.view(float), z.view(float))

    def test_degree_one_rows_match_the_oracle(self, rng):
        # n = 2 states and states with one nonzero trailing pair both reach
        # the 1x1 case
        batch = [core.random_state(2, rng) for _ in range(200)]
        for n in (3, 5):
            for _ in range(50):
                psi = np.zeros(n, dtype=complex)
                psi[n - 2:] = core.random_state(2, rng)
                batch.append(psi)
        for psi in batch:
            rep = mj.coefficients_to_roots(psi)
            spinors, scale = oracle_decomposition(psi)
            assert np.max(np.abs(rep.spinors - spinors)) <= TOL
            assert abs(rep.scale - scale) <= TOL
