"""Canonical triad reduction, invariant factorization and star geometry.

Any nondegenerate triad can be carried by one unitary into a canonical
position: the first state becomes the highest-weight direction, the second
a pure product state, and the third lands wherever it must.  In that
position the three-point invariant splits into a product of n-1 two-level
invariants, one per star of the third state, which turns the triad phase
into a sum of halved solid angles on the sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import TAU_DEG
from .core import DegenerateTriadError, as_state, check_modulus, norm, normalize
from .majorana import (
    MajoranaRep,
    coefficients_to_roots,
    pure_product_state,
    spinor_to_star,
    star_to_spinor,
)


@dataclass(frozen=True)
class CanonicalReduction:
    """A triad in canonical position together with the unitary that put it there.

    ``psi1`` is the first basis vector, ``psi2`` the pure product of the
    spinor ``xi``, and ``psi3`` carries the star decomposition ``rep3``.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    transform: np.ndarray
    xi: np.ndarray
    rep3: MajoranaRep

    @property
    def alpha(self) -> complex:
        return complex(self.xi[0])


def _to_e1_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary sending the unit vector x exactly to the first basis vector.

    A phase-fixed Householder reflection: numerically stable for every x,
    including x already along the first direction.
    """
    x0 = complex(x[0])
    phase = x0 / abs(x0) if x0 else 1.0
    u = x.copy()
    u[0] += phase
    # |u|^2 = |x|^2 + 2|x0| + 1 for unit x
    h = np.multiply.outer(u, u.conj() * (-2.0 / (2.0 + 2.0 * abs(x0))))
    h.ravel()[::x.size + 1] += 1.0
    h[0] *= -phase.conjugate()
    return h


def _unitary_mapping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary with U a = b for unit vectors a, b of equal dimension."""
    ma = _to_e1_unitary(a)
    mb = _to_e1_unitary(b)
    return mb.conj().T @ ma


def reduce_triad(psi1, psi2, psi3, tau_deg: float = TAU_DEG) -> CanonicalReduction:
    """Carry a triad into canonical position by one unitary.

    The unitary is built in two stages.  A phase-fixed Householder sends
    psi1 to the first basis vector e1.  The image of psi2 then shares its
    e1 component with the target pure product state |xi>, where

        alpha = e^{i phi_12 / (n-1)} (cos(theta_12 / 2))^{1 / (n-1)}

    on the principal branch and beta real positive, so a second unitary
    acting only on the orthogonal complement of e1 finishes the job.  The
    image of psi3 is factored into its stars; the factorization must
    reproduce the overlap with e1 to 1e-8 or the reduction is rejected.
    """
    v = [normalize(psi) for psi in (psi1, psi2, psi3)]
    n = v[0].size
    if v[1].size != n or v[2].size != n:
        raise ValueError("triad states must share one dimension")
    if n < 2:
        raise ValueError("reduction needs dimension at least 2")
    ov12, ov23, ov31 = (complex(np.vdot(a, b)) for a, b in zip(v, v[1:] + v[:1]))
    for i, ov in enumerate((ov12, ov23, ov31)):
        if abs(ov) <= tau_deg:
            raise DegenerateTriadError(
                f"overlap of states {i} and {(i + 1) % 3} is degenerate")
    c12 = check_modulus(abs(ov12), tau_deg)

    u = _to_e1_unitary(v[0])
    v_perp = u[1:] @ v[1]
    alpha = cmath.exp(1j * cmath.phase(ov12) / (n - 1)) * c12 ** (1.0 / (n - 1))
    xi = np.array([alpha, math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))])
    w_perp = pure_product_state(xi, n)[1:]
    nv, nw = norm(v_perp), norm(w_perp)
    if nv <= tau_deg or nw <= tau_deg:
        raise DegenerateTriadError("no component orthogonal to e1 to rotate")
    # the second stage fixes e1 and rotates its orthogonal complement
    u[1:] = _unitary_mapping(v_perp / nv, w_perp / nw) @ u[1:]

    out = np.array(v) @ u.T
    rep3 = coefficients_to_roots(out[2])
    # the spinor product's constant term rebuilds the overlap of psi3 with e1
    rebuilt = rep3.scale * np.prod(rep3.spinors[:, 0]) * math.sqrt(
        math.factorial(n - 1))
    if abs(rebuilt.conjugate() - ov31) > 1e-8:
        raise ValueError("star factorization failed to reproduce the triad overlap")
    return CanonicalReduction(out[0], out[1], out[2], u, xi, rep3)


def bi_factorization(red: CanonicalReduction, tau_deg: float = TAU_DEG) -> np.ndarray:
    """Two-level invariants whose product carries the full triad invariant.

    Factor k is the three-point invariant of the spinors (1, 0), xi and
    xi'_k.  The arguments add up to the argument of the triad invariant
    modulo 2*pi; the moduli differ from it only by a positive overall
    normalization.
    """
    spinors = red.rep3.spinors
    factors = red.xi[0] * (spinors @ red.xi.conj()) * spinors[:, 0].conj()
    if (np.abs(factors) <= tau_deg).any():
        raise DegenerateTriadError("vanishing two-level factor")
    return factors


def solid_angle(n1, n2, n3) -> float:
    """Signed solid angle of the spherical triangle (n1, n2, n3).

    Defined as -2 times the argument of the cyclic spinor overlap product
    of the vertices, which makes half of it a two-level geometric phase.
    It is cross-checked, modulo 4*pi, against the oriented spherical
    excess from the triple product and the pairwise dots (Van Oosterom and
    Strackee, IEEE Trans. Biomed. Eng. 30 (1983) 125), which stays
    accurate up to the hemisphere.  Degenerate triangles give 0 and
    hemispheres 2*pi up to sign; antipodal vertex pairs and non-finite or
    non-unit vertices are rejected.
    """
    return _triangle(_vertex(n1), _vertex(n2), _vertex(n3))


def _vertex(nhat) -> tuple[list[float], list[complex]]:
    """A star as three floats, with its spinor from star_to_spinor."""
    star = np.asarray(nhat, dtype=float).reshape(3)
    return star.tolist(), star_to_spinor(star).tolist()


def _triangle(va, vb, vc) -> float:
    """solid_angle of three (star, spinor) vertices made by _vertex."""
    (a, sa), (b, sb), (c, sc) = va, vb, vc
    sides = ((a, b), (b, c), (c, a))
    if any(math.hypot(*(x + y for x, y in zip(p, q))) <= 1e-8 for p, q in sides):
        raise ValueError("antipodal vertices do not span a triangle")
    prod = _overlap(sa, sb) * _overlap(sb, sc) * _overlap(sc, sa)
    omega = -2.0 * cmath.phase(prod)

    triple = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
              + a[2] * (b[0] * c[1] - b[1] * c[0]))
    ab, bc, ca = (p[0] * q[0] + p[1] * q[1] + p[2] * q[2] for p, q in sides)
    oriented = -2.0 * math.atan2(triple, 1.0 + ab + bc + ca)
    if abs(math.remainder(omega - oriented, 4.0 * math.pi)) > 1e-9:
        raise ValueError(
            f"solid angle cross-check failed: {omega} vs excess {oriented}"
        )
    return omega


def _overlap(s: list[complex], t: list[complex]) -> complex:
    """Inner product of two spinors given as pairs of Python complex."""
    return s[0].conjugate() * t[0] + s[1].conjugate() * t[1]


def phase_from_solid_angles_n3(psi1, psi2, psi3) -> float:
    """Triad geometric phase in dimension 3 as a half-sum of two solid angles.

    After reduction the first two states sit at the north pole and at the
    star of xi; the third contributes its two stars.  The geometric phase
    is half the sum of the solid angles of the two triangles they make,
    modulo 2*pi.
    """
    if as_state(psi1).size != 3:
        raise ValueError("this identity is specific to dimension 3")
    red = reduce_triad(psi1, psi2, psi3)
    return 0.5 * sum(solid_angle_pair(red))


def solid_angle_pair(red: CanonicalReduction) -> tuple[float, float]:
    """Solid angles of (north, star of xi, each star of psi3), dimension 3."""
    north = _vertex([0.0, 0.0, 1.0])
    xi = _vertex(spinor_to_star(red.xi))
    return tuple(_triangle(north, xi, _vertex(star)) for star in red.rep3.stars())


_LEX_WEIGHTS = np.array([4.0, 2.0, 1.0])  # the first differing coordinate decides


def _geodesic_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = a * b  # summed in np.sum's order over the last axis, without its reduce
    return np.arccos(np.clip(p[..., 0] + p[..., 1] + p[..., 2], -1.0, 1.0))


def star_trajectory(lift) -> np.ndarray:
    """Star pairs along a dimension-3 curve, matched for continuity.

    All samples are factored in one call.  The first sample is ordered
    lexicographically; every later sample is ordered to minimize the
    total great-circle motion relative to the previous one, with ties
    (costs within 1e-12) broken lexicographically.  Swapping the previous
    pair swaps the two costs, so between ties the order flips where
    swapping costs less.  The lexicographic order counts coordinates
    within the same 1e-12 as equal, so rounding noise on a coordinate
    whose exact value both stars share does not decide it.  Returns an
    array of shape (samples, 2, 3).
    """
    if lift.dim != 3:
        raise ValueError("star trajectories are defined for dimension-3 curves")
    stars = coefficients_to_roots(lift.psi).stars()
    # gaps[i, j, k]: from star j of sample i to star k of sample i + 1
    gaps = _geodesic_gap(stars[:-1, :, None], stars[1:, None, :])
    keep = gaps[:, 0, 0] + gaps[:, 1, 1]
    swap = gaps[:, 0, 1] + gaps[:, 1, 0]
    restart = np.concatenate([[True], np.abs(keep - swap) < 1e-12])
    flips = np.logical_xor.accumulate(
        np.concatenate([[False], swap < keep]) & ~restart)
    # a restart sorts the pair; the first coordinate that differs by more
    # than the tie tolerance outweighs the rest
    starts = np.flatnonzero(restart)
    gap = stars[starts, 1] - stars[starts, 0]
    ahead = np.sign(gap, where=np.abs(gap) > 1e-12, out=np.zeros_like(gap))
    lex = ahead @ _LEX_WEIGHTS < 0
    last = np.cumsum(restart) - 1  # index in starts of each sample's restart
    flip = lex[last] ^ flips ^ flips[starts][last]
    return np.where(flip[:, None, None], stars[:, ::-1], stars)

