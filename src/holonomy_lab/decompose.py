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
from .core import DegenerateTriadError, _unit, as_state, check_modulus, norm, normalize
from .majorana import (
    MajoranaRep,
    _factor,
    _kernel_spinors,
    _pure_product,
    _unit_spinor_to_star,
    _weights,
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


def reduce_triad(psi1, psi2, psi3) -> CanonicalReduction:
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
    return _reduce([normalize(psi) for psi in (psi1, psi2, psi3)])


def _reduce(v: list[np.ndarray]) -> CanonicalReduction:
    """reduce_triad of three states already normalized."""
    n = v[0].size
    if v[1].size != n or v[2].size != n:
        raise ValueError("triad states must share one dimension")
    if n < 2:
        raise ValueError("reduction needs dimension at least 2")
    ov12, ov23, ov31 = (complex(np.vdot(a, b)) for a, b in zip(v, v[1:] + v[:1]))
    for i, ov in enumerate((ov12, ov23, ov31)):
        if abs(ov) <= TAU_DEG:
            raise DegenerateTriadError(
                f"overlap of states {i} and {(i + 1) % 3} is degenerate")
    c12 = check_modulus(abs(ov12))

    u = _to_e1_unitary(v[0])
    v_perp = u[1:] @ v[1]
    alpha = cmath.exp(1j * cmath.phase(ov12) / (n - 1)) * c12 ** (1.0 / (n - 1))
    beta = math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
    xi = np.array([alpha, beta])
    w_perp = _pure_product(alpha, beta, n)[1:]
    # both norms are sqrt(1 - c12^2) up to rounding: above 1.4e-6, as c12 < 1 - TAU_DEG
    nv, nw = norm(v_perp), norm(w_perp)
    # the second stage fixes e1 and rotates its orthogonal complement
    u[1:] = _unitary_mapping(v_perp / nv, w_perp / nw) @ u[1:]

    out = np.array(v) @ u.T
    rep3 = _factor(out[2])
    # the spinor product's constant term rebuilds the overlap of psi3 with e1
    rebuilt = rep3.scale * np.prod(rep3.spinors[:, 0]) * _weights(n)[1][0]
    if abs(rebuilt.conjugate() - ov31) > 1e-8:
        raise ValueError("star factorization failed to reproduce the triad overlap")
    return CanonicalReduction(out[0], out[1], out[2], u, xi, rep3)


def bi_factorization(red: CanonicalReduction) -> np.ndarray:
    """Two-level invariants whose product carries the full triad invariant.

    Factor k is the three-point invariant of the spinors (1, 0), xi and
    xi'_k.  The arguments add up to the argument of the triad invariant
    modulo 2*pi; the moduli differ from it only by a positive overall
    normalization.
    """
    # the kernel's spinors are a transposed view, on which the product
    # rounds some factors differently
    spinors = np.ascontiguousarray(red.rep3.spinors)
    # no factor vanishes: their product is Delta over a positive
    # normalization, and reduce_triad refused every overlap at or below TAU_DEG
    return red.xi[0] * (spinors @ red.xi.conj()) * spinors[:, 0].conj()


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
    """A star as three floats, with its spinor from star_to_spinor (which
    refuses any shape but (3,))."""
    star = np.asarray(nhat, dtype=float)
    return star.tolist(), star_to_spinor(star).tolist()


def _triangle(va, vb, vc) -> float:
    """solid_angle of three (star, spinor) vertices: three floats and two
    complex each, the spinor of unit norm up to rounding."""
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
    v1 = as_state(psi1)
    if v1.size != 3:
        raise ValueError("this identity is specific to dimension 3")
    red = _reduce([_unit(v1), normalize(psi2), normalize(psi3)])
    return 0.5 * sum(solid_angle_pair(red))


def solid_angle_pair(red: CanonicalReduction) -> tuple[float, float]:
    """Solid angles of (north, star of xi, each star of psi3), dimension 3.

    The reduction holds every vertex spinor: (1, 0), xi and the spinors
    of psi3.  Their stars come from one call, and each triangle reads the
    spinors as they are, without a round trip through star_to_spinor.
    """
    spinors = np.empty((red.rep3.spinors.shape[0] + 2, 2), dtype=complex)
    spinors[0] = 1.0, 0.0
    spinors[1] = red.xi
    spinors[2:] = red.rep3.spinors
    vertices = list(zip(_unit_spinor_to_star(spinors).tolist(), spinors.tolist()))
    north, xi = vertices[:2]
    return tuple(_triangle(north, xi, star) for star in vertices[2:])


_LEX_WEIGHTS = np.array([4.0, 2.0, 1.0])  # the first differing coordinate decides


def star_trajectory(lift) -> np.ndarray:
    """Star pairs along a dimension-3 curve, matched for continuity.

    All samples go through the star kernel's spinor stage in one call,
    and the stars are read off its unit spinors; no scale is formed.  A
    unit dimension-3 sample always has a finite nonzero scale: the degree
    cut keeps its top amplitude above 1e-10 times its peak, which bounds
    each root's modulus and so keeps the lead product far from underflow.
    The first sample is ordered lexicographically; every later sample is
    ordered for the least total squared-chord motion relative to the
    previous one.  For unit stars keeping the order costs
    2 (a0 - a1).(b0 - b1) less than swapping it, so the sign of that
    product of two consecutive star separations decides, and the order
    flips where it is negative.  A sample ties when the product is below
    about 1e-12 in modulus (the great-circle rule this replaces tied only
    when its two costs were within 1e-12) and is then ordered
    lexicographically.  The lexicographic order counts coordinates within
    the same 1e-12 as equal, so rounding noise on a coordinate whose
    exact value both stars share does not decide it.  When no sample
    after the first ties, the order is that of the first sample XOR the
    accumulated flips; only a track with ties runs the restart
    bookkeeping.  Returns an array of shape (samples, 2, 3), the
    transpose of the (3, 2, samples) array the matching runs on.
    """
    if lift.dim != 3:
        raise ValueError("star trajectories are defined for dimension-3 curves")
    # the lift has checked its samples: finite, unit and one row each
    spinors = _kernel_spinors(lift.psi)[0]
    stars = _unit_spinor_to_star(spinors.T).T  # (coordinate, star, sample)
    diff = stars[:, 0] - stars[:, 1]
    p = diff[:, :-1] * diff[:, 1:]
    d = p[0] + p[1] + p[2]
    tied = np.abs(d) < 1e-12
    turns = np.concatenate([[False], d < 0])
    if tied.any():
        restart = np.concatenate([[True], tied])
        flips = np.logical_xor.accumulate(turns & ~restart)
        starts = np.flatnonzero(restart)
        last = np.cumsum(restart) - 1  # index in starts of each sample's restart
        flip = _lex_ahead(diff[:, starts])[last] ^ flips ^ flips[starts][last]
    else:
        flip = _lex_ahead(diff[:, :1])[0] ^ np.logical_xor.accumulate(turns)
    return np.where(flip, stars[:, ::-1], stars).T


def _lex_ahead(gap: np.ndarray) -> np.ndarray:
    """Whether each column of star separations (3, k) puts the second
    star first: a restart sorts the pair, and the first coordinate that
    differs by more than the tie tolerance outweighs the rest."""
    ahead = np.sign(gap, where=np.abs(gap) > 1e-12, out=np.zeros_like(gap))
    return _LEX_WEIGHTS @ ahead > 0
