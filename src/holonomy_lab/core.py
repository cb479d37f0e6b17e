"""Complex Hilbert-space primitives.

States are plain 1-d complex numpy arrays.  The inner product is
conjugate-linear in its first argument.  Basis ordering is fixed once and
for all: index k of a dimension-n vector is the spin component M = J - k
with J = (n - 1)/2, so index 0 is the highest-weight direction.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import TAU_DEG

TWO_PI = 2.0 * math.pi


class DegenerateTriadError(ValueError):
    """Some cyclic overlap of the input states is numerically zero."""


def as_state(psi) -> np.ndarray:
    """Coerce input to a complex 1-d array without copying when possible."""
    arr = np.asarray(psi, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a state must be a nonempty 1-d complex array")
    return arr


def inner(phi, psi) -> complex:
    """Inner product (phi, psi), conjugate-linear in the first argument."""
    phi = as_state(phi)
    psi = as_state(psi)
    if phi.shape != psi.shape:
        raise ValueError(f"dimension mismatch: {phi.size} vs {psi.size}")
    return complex(np.vdot(phi, psi))


def norm(psi) -> float:
    psi = as_state(psi)
    return math.sqrt(np.vdot(psi, psi).real)


def normalize(psi) -> np.ndarray:
    return _unit(as_state(psi))


def _unit(psi: np.ndarray) -> np.ndarray:
    """normalize of a state that as_state has already checked."""
    n = math.sqrt(np.vdot(psi, psi).real)
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return psi / n


def check_modulus(c: float) -> float:
    """Return the overlap modulus c = cos(theta / 2) if theta is inside (0, pi).

    Raises :class:`DegenerateTriadError` when c is within ``TAU_DEG`` of 0
    (orthogonal rays) or of 1 (coincident rays).
    """
    if c <= TAU_DEG:
        raise DegenerateTriadError("orthogonal rays: theta at the upper boundary")
    if c >= 1.0 - TAU_DEG:
        raise DegenerateTriadError("coincident rays: theta at the lower boundary")
    return c


def ray_angle(v1, v2) -> tuple[complex, float]:
    """Overlap (v1, v2) of two unit vectors and their angle theta in (0, pi).

    The overlap is exp(i phi) cos(theta / 2), and its modulus must pass
    :func:`check_modulus`.  theta / 2 = atan2(|v2 - (v1, v2) v1|, |(v1, v2)|)
    stays within a few eps at both ends, where the inverse cosine of the
    modulus would lose digits close to coincident rays.
    """
    ov = complex(np.vdot(v1, v2))
    if not cmath.isfinite(ov):
        raise ValueError("non-finite amplitude")
    c = check_modulus(abs(ov))
    r = v2 - ov * v1
    return ov, 2.0 * math.atan2(math.sqrt(np.vdot(r, r).real), c)


def principal_angle(x: float) -> float:
    """Wrap a phase to the principal branch (-pi, pi]."""
    y = float(x) % TWO_PI  # floor modulo, as np.remainder
    if y >= TWO_PI:  # catches rounding of tiny negatives
        y = 0.0
    if y > np.pi:
        y -= TWO_PI
    return y


def wrap_angle_positive(x: float) -> float:
    """Wrap a phase into [0, 2*pi)."""
    y = float(x) % TWO_PI
    if y >= TWO_PI:
        y = 0.0
    return y


def bargmann(states) -> complex:
    """Cyclic product of inner products of k >= 3 states.

    For three states this equals the trace of the product of their ray
    projectors, so it is a function on ray space.  Raises
    :class:`DegenerateTriadError` when any cyclic overlap is degenerate
    relative to the norms involved, and ``ValueError`` on a non-finite input.
    """
    states = [as_state(s) for s in states]
    if len(states) < 3:
        raise ValueError("need at least three states")
    dims = {s.size for s in states}
    if len(dims) != 1:
        raise ValueError("all states must share one dimension")
    norms = [norm(s) for s in states]
    result = 1.0 + 0.0j
    for i, cur in enumerate(states):
        j = (i + 1) % len(states)
        ov = complex(np.vdot(cur, states[j]))
        if not cmath.isfinite(ov):  # every amplitude enters two overlaps
            raise ValueError("non-finite amplitude")
        if abs(ov) <= TAU_DEG * norms[i] * norms[j]:
            raise DegenerateTriadError(f"overlap of states {i} and {j} is degenerate")
        result *= ov
    return result


def bi_phase(psi1, psi2, psi3) -> float:
    """Geometric phase of a triad: minus the argument of the invariant.

    Reported on the principal branch (-pi, pi].
    """
    delta = bargmann([psi1, psi2, psi3])
    return principal_angle(-np.angle(delta))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_state(n: int, seed=None) -> np.ndarray:
    """Haar-uniform random unit vector: normalized complex Gaussian."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    rng = _as_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalize(z)


def random_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = _as_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
