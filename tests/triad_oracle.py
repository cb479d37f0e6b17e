"""Reference triad reduction, two-level factors and solid angles.

The library reduces a triad from its three overlaps, computed once, and
moves the stacked triad by one product; it forms all two-level factors
in one array expression and the solid-angle pair from floats.  These
helpers keep the route it replaced: a nested ``bargmann`` and two more
inner products, one matrix-vector product per state, one factor per
star, and each triangle through ``np.cross`` and three ``vdot`` calls.
The parity tests compare the library against them.  The rank-1 projector
gives the invariant a second route, as the trace of a projector product.
"""

import math

import numpy as np

from holonomy_lab.core import DegenerateTriadError
from holonomy_lab.decompose import CanonicalReduction
from holonomy_lab.majorana import MajoranaRep

from star_oracle import oracle_decomposition, oracle_expand, oracle_star


def _normalize(psi):
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return psi / n


def oracle_projector(psi):
    """Rank-1 projector onto the ray of psi."""
    psi = _normalize(psi)
    return np.outer(psi, psi.conj())


def _pure_product(xi, n):
    a, b = np.asarray(xi, dtype=complex) / np.linalg.norm(xi)
    return np.array([math.sqrt(math.comb(n - 1, k)) * a ** (n - 1 - k) * b ** k
                     for k in range(n)], dtype=complex)


def _to_e1_unitary(x):
    n = x.size
    delta = np.angle(x[0]) if abs(x[0]) > 0 else 0.0
    u = x.copy()
    u[0] += np.exp(1j * delta)
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(u, u.conj()) / np.vdot(u, u).real
    d = np.ones(n, dtype=complex)
    d[0] = -np.exp(-1j * delta)
    return d[:, None] * h


def _unitary_mapping(a, b):
    return _to_e1_unitary(b).conj().T @ _to_e1_unitary(a)


def oracle_reduce_triad(psi1, psi2, psi3, tau_deg=1e-12):
    v1, v2, v3 = _normalize(psi1), _normalize(psi2), _normalize(psi3)
    n = v1.size
    if v2.size != n or v3.size != n:
        raise ValueError("triad states must share one dimension")
    if n < 2:
        raise ValueError("reduction needs dimension at least 2")
    triad = [v1, v2, v3]
    for i in range(3):
        a, b = triad[i], triad[(i + 1) % 3]
        if abs(np.vdot(a, b)) <= tau_deg * np.linalg.norm(a) * np.linalg.norm(b):
            raise DegenerateTriadError(f"overlap of states {i} and {(i + 1) % 3}"
                                       " is degenerate")
    ov12 = np.vdot(v1, v2)
    c12 = abs(ov12)
    if c12 >= 1.0 - tau_deg:
        raise DegenerateTriadError("first two rays coincide")
    phi12 = float(np.angle(ov12))

    u1 = _to_e1_unitary(v1)
    p2 = u1 @ v2
    alpha = np.exp(1j * phi12 / (n - 1)) * c12 ** (1.0 / (n - 1))
    beta = np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
    xi = np.array([alpha, beta], dtype=complex)
    target = _pure_product(xi, n)

    u2 = np.eye(n, dtype=complex)
    v_perp = p2.copy()
    v_perp[0] = 0.0
    w_perp = target.copy()
    w_perp[0] = 0.0
    nv = np.linalg.norm(v_perp)
    nw = np.linalg.norm(w_perp)
    if nv <= tau_deg or nw <= tau_deg:
        raise DegenerateTriadError("no component orthogonal to e1 to rotate")
    u2[1:, 1:] = _unitary_mapping(v_perp[1:] / nv, w_perp[1:] / nw)

    u = u2 @ u1
    out3 = u @ v3
    rep3 = MajoranaRep(*oracle_decomposition(out3))
    rebuilt = rep3.scale * oracle_expand(rep3.spinors) * math.sqrt(
        math.factorial(n - 1))
    if abs(np.conjugate(rebuilt[0]) - np.vdot(v3, v1)) > 1e-8:
        raise ValueError("star factorization failed to reproduce the triad overlap")
    return CanonicalReduction(u @ v1, u @ v2, out3, u, xi, rep3)


def oracle_factors(red, tau_deg=1e-12):
    chi0 = np.array([1.0, 0.0], dtype=complex)
    factors = []
    for spin in red.rep3.spinors:
        f = (np.vdot(chi0, red.xi) * np.vdot(red.xi, spin) * np.vdot(spin, chi0))
        if abs(f) <= tau_deg:
            raise DegenerateTriadError("vanishing two-level factor")
        factors.append(f)
    return np.array(factors, dtype=complex)


def _star_to_spinor(nhat):
    nhat = np.asarray(nhat, dtype=float).reshape(3)
    if abs(np.linalg.norm(nhat) - 1.0) > 1e-12:
        raise ValueError("star must be a unit vector")
    a = math.sqrt(max(0.0, (1.0 + nhat[2]) / 2.0))
    if a < 1e-14:
        return np.array([0.0, 1.0], dtype=complex)
    return np.array([a, (nhat[0] + 1j * nhat[1]) / (2.0 * a)], dtype=complex)


def oracle_solid_angle(n1, n2, n3, cross_tol=1e-9):
    stars = [np.asarray(v, dtype=float).reshape(3) for v in (n1, n2, n3)]
    for i in range(3):
        if np.linalg.norm(stars[i] + stars[(i + 1) % 3]) <= 1e-8:
            raise ValueError("antipodal vertices do not span a triangle")
    s1, s2, s3 = (_star_to_spinor(v) for v in stars)
    omega = -2.0 * float(np.angle(
        np.vdot(s1, s2) * np.vdot(s2, s3) * np.vdot(s3, s1)))
    a, b, c = stars
    triple = float(np.dot(a, np.cross(b, c)))
    oriented = -2.0 * math.atan2(triple, 1.0 + a @ b + b @ c + c @ a)
    if abs(math.remainder(omega - oriented, 4.0 * math.pi)) > cross_tol:
        raise ValueError(
            f"solid angle cross-check failed: {omega} vs excess {oriented}")
    return omega


def oracle_solid_angle_pair(red):
    north = np.array([0.0, 0.0, 1.0])
    n2hat = oracle_star(red.xi)
    return tuple(oracle_solid_angle(north, n2hat, oracle_star(spin))
                 for spin in red.rep3.spinors)
