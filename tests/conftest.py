"""Shared fixtures and assertion helpers."""

import math

import numpy as np
import pytest

from holonomy_lab.core import normalize, principal_angle, random_state
from holonomy_lab.curves import RealProfile


def assert_angle_close(a: float, b: float, tol: float = 1e-10) -> None:
    """Assert two angles agree modulo 2*pi."""
    gap = abs(principal_angle(float(a) - float(b)))
    assert gap < tol, f"angles differ by {gap:.3e} (mod 2*pi): {a} vs {b}"


def assert_unitary(u, tol: float = 1e-12) -> np.ndarray:
    """u as a complex square matrix; ValueError unless u^dagger u is I within tol."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be a square matrix")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= tol:  # NaN fails too
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def random_polygon(rng, k, n):
    """k random states whose cyclically adjacent overlaps stay nondegenerate."""
    while True:
        states = [random_state(n, rng) for _ in range(k)]
        mods = [abs(np.vdot(a, b)) for a, b in zip(states, states[1:] + states[:1])]
        if min(mods) >= 0.05 and max(mods) <= 1.0 - 1e-6:
            return states


def partner(rng, v, overlap):
    """A unit state whose overlap with the unit state v has modulus ``overlap``."""
    w = random_state(v.size, rng)
    w = normalize(w - np.vdot(v, w) * v)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return phase * (overlap * v + math.sqrt(1.0 - overlap ** 2) * w)


def random_triad(rng, n):
    """Random triad with pairwise overlaps bounded away from degeneracy."""
    return random_polygon(rng, 3, n)


def widened(profile, m):
    """The family profile with m - 3 zero components appended, for lifting
    through m frame vectors."""
    x = np.zeros((profile.s.size, m))
    x[:, :3] = profile.x
    return RealProfile(profile.s, x)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def octant():
    """The quarter-sphere triad whose phase is -pi/4."""
    r = 1.0 / np.sqrt(2.0)
    return [np.array([1.0, 0.0], dtype=complex),
            np.array([r, r], dtype=complex),
            np.array([r, r * 1j], dtype=complex)]
