"""Intrinsic angles of a state triad and canonical reconstructions.

The three pairwise overlaps of a triad carry six angle parameters,

    (psi_j, psi_k) = exp(i phi_jk) cos(theta_jk / 2),

taken over the index pairs (1,2), (2,3), (3,1), with theta_jk strictly
inside (0, pi) and phi_jk in [0, 2*pi).  Only five of the six are
independent: the pair (theta_23, phi_g) is a function of the rest.  This
module extracts the angles, rebuilds canonical triads in dimensions 2 and
3 from an independent parameter set, solves for the dependent pair, and
evaluates the closed-form phase expressions that generalize Pancharatnam's
result.  A small analytic model of harmonic-oscillator coherent states is
included because its triads realize the same structure with five
invariant angles.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TAU_DEG
from .core import (
    DegenerateTriadError,
    as_state,
    check_modulus,
    normalize,
    principal_angle,
    ray_angle,
    wrap_angle_positive,
)


@dataclass(frozen=True)
class IntrinsicAngles:
    """The six unitary-invariant angles of a nondegenerate triad."""

    theta_12: float
    theta_23: float
    theta_31: float
    phi_12: float
    phi_23: float
    phi_31: float

    @property
    def phi_g(self) -> float:
        """Geometric phase implied by the phases: -(sum of phi_jk), in (-pi, pi]."""
        return principal_angle(-(self.phi_12 + self.phi_23 + self.phi_31))


@dataclass(frozen=True)
class CanonicalParamsN2:
    """Five independent angles of a dimension-2 triad."""

    theta_12: float
    theta_31: float
    phi_12: float
    phi_31: float
    phi: float

    def __post_init__(self) -> None:
        _check_triad_angles(self.theta_12, self.theta_31, self.phi)
        _check_finite("phi_12", self.phi_12)
        _check_finite("phi_31", self.phi_31)


@dataclass(frozen=True)
class CanonicalParamsN3(CanonicalParamsN2):
    """Six independent angles of a dimension-3 triad (adds xi)."""

    xi: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_xi(self.xi)
        if self.xi == 0.0:
            warnings.warn("xi = 0 is the boundary where the triad spans only "
                          "two dimensions", stacklevel=3)
        elif self.xi == np.pi / 2:
            warnings.warn("xi = pi/2 is the boundary where phi drops out of "
                          "the geometric phase", stacklevel=3)


@dataclass(frozen=True)
class CoherentTriadParams:
    """Angles of a coherent-state triad with labels (0, r, r' e^{i phi'})."""

    theta_12: float
    theta_31: float
    phi_prime: float

    def __post_init__(self) -> None:
        _check_triad_angles(self.theta_12, self.theta_31, self.phi_prime, "phi_prime")

    @property
    def r(self) -> float:
        return float(np.sqrt(-2.0 * np.log(np.cos(self.theta_12 / 2.0))))

    @property
    def r_prime(self) -> float:
        return float(np.sqrt(-2.0 * np.log(np.cos(self.theta_31 / 2.0))))


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def _check_xi(xi: float) -> None:
    if not 0.0 <= xi <= np.pi / 2:  # NaN fails too
        raise ValueError("xi must lie in [0, pi/2]")


def _check_triad_angles(theta_12: float, theta_31: float, phi: float,
                        phi_name: str = "phi") -> None:
    """theta_12 and theta_31 strictly inside (0, pi), and the phase finite."""
    for name, theta in (("theta_12", theta_12), ("theta_31", theta_31)):
        if not 0.0 < theta < np.pi:  # NaN fails too
            raise ValueError(f"{name} must lie strictly inside (0.0, {np.pi})")
    _check_finite(phi_name, phi)


def extract_angles(psi1, psi2, psi3) -> IntrinsicAngles:
    """Extract the six intrinsic angles of a triad.

    Parameters
    ----------
    psi1, psi2, psi3 : array_like
        States of equal dimension; they are normalized internally.  An
        overlap with modulus within ``TAU_DEG`` of 0 or 1 raises
        :class:`DegenerateTriadError`.

    Returns
    -------
    IntrinsicAngles
        theta_jk in (0, pi) and phi_jk in [0, 2*pi) for the pairs
        (1,2), (2,3), (3,1).
    """
    v = [normalize(psi) for psi in (psi1, psi2, psi3)]
    if not v[0].shape == v[1].shape == v[2].shape:
        raise ValueError("dimension mismatch: "
                         + " vs ".join(str(s.size) for s in v))
    pairs = [ray_angle(a, b) for a, b in zip(v, v[1:] + v[:1])]
    return IntrinsicAngles(*(theta for _, theta in pairs),
                           *(wrap_angle_positive(cmath.phase(ov)) for ov, _ in pairs))


def _dependent_overlap(theta_12: float, theta_31: float, phi: float,
                       xi: float) -> complex:
    """w = C12*C31 + exp(i phi) * S12*S31 * cos(xi) of a canonical triad.

    Its modulus is cos(theta_23 / 2) and its argument is -phi_g; xi = 0
    is the dimension-2 case (cos 0.0 is exactly 1.0).
    """
    return complex(
        np.cos(theta_12 / 2) * np.cos(theta_31 / 2)
        + np.exp(1j * phi) * np.sin(theta_12 / 2) * np.sin(theta_31 / 2) * np.cos(xi))


def _dependent_theta(c23: float) -> float:
    """theta_23 of the derived modulus; with no vectors at hand it takes arccos,
    so an error d in c23 moves it by about 2 d / sin(theta_23 / 2)."""
    return 2.0 * math.acos(check_modulus(c23))


def _solve_dependent(w: complex) -> tuple[float, float]:
    """(theta_23, phi_g) of the canonical solvers; w from _dependent_overlap."""
    c23 = abs(w)
    if c23 >= 1.0 + 64.0 * np.finfo(float).eps:
        raise ValueError(f"internal inconsistency: derived modulus {c23} exceeds 1")
    return _dependent_theta(c23), principal_angle(-float(np.angle(w)))


def solve_dependent_n3(theta_12: float, theta_31: float, phi: float,
                       xi: float) -> tuple[float, float]:
    """Dependent pair (theta_23, phi_g) of a triad with angles up to xi.

    With C = cos(theta/2) and S = sin(theta/2) per index pair, the triad
    constraint pins the remaining overlap:

        cos(theta_23 / 2) * exp(-i phi_g) = C12*C31 + exp(i phi) * S12*S31 * cos(xi).

    Raises when the derived overlap hits either boundary of (0, 1).
    """
    _check_triad_angles(theta_12, theta_31, phi)
    _check_xi(xi)
    return _solve_dependent(_dependent_overlap(theta_12, theta_31, phi, xi))


def solve_dependent_n2(theta_12: float, theta_31: float,
                       phi: float) -> tuple[float, float]:
    """Dependent pair of a dimension-2 triad: the xi = 0 case of solve_dependent_n3."""
    return solve_dependent_n3(theta_12, theta_31, phi, 0.0)


def _canonical_triad(params: CanonicalParamsN2,
                     xi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical dimension-3 triad of the five angles in params and xi.

    The residual U(3) freedom is spent exactly as in the canonical form:

        psi1 = (1, 0, 0)
        psi2 = e^{i phi_12} (C12, S12, 0)
        psi3 = e^{-i phi_31} (C31, e^{i phi} S31 cos(xi), S31 sin(xi))

    The derived pair is checked to stay interior before returning.
    """
    # raises on boundary hits of the derived pair
    solve_dependent_n3(params.theta_12, params.theta_31, params.phi, xi)
    c12, s12 = np.cos(params.theta_12 / 2), np.sin(params.theta_12 / 2)
    c31, s31 = np.cos(params.theta_31 / 2), np.sin(params.theta_31 / 2)
    psi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi2 = np.exp(1j * params.phi_12) * np.array([c12, s12, 0.0], dtype=complex)
    psi3 = np.exp(-1j * params.phi_31) * np.array(
        [c31, np.exp(1j * params.phi) * s31 * np.cos(xi), s31 * np.sin(xi)],
        dtype=complex)
    return psi1, psi2, psi3


def build_canonical_n2(params: CanonicalParamsN2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical dimension-2 triad realizing the five given angles: the first
    two entries of the xi = 0 canonical triad, whose third entries are 0."""
    return tuple(psi[:2] for psi in _canonical_triad(params, 0.0))


def build_canonical_n3(params: CanonicalParamsN3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical dimension-3 triad for six independent angles; psi3 picks
    up the third direction through xi (see _canonical_triad)."""
    return _canonical_triad(params, params.xi)


def pancharatnam_phase(theta_12: float, theta_31: float, phi: float,
                       xi: float = 0.0) -> float:
    """Closed-form geometric phase of a canonical triad,

        -arg(1 + e^{i phi} tan(theta_12/2) tan(theta_31/2) cos(xi)).

    xi = 0, the default, is Pancharatnam's dimension-2 expression.  The
    argument of the complex quantity must stay away from zero.
    """
    _check_triad_angles(theta_12, theta_31, phi)
    _check_xi(xi)
    factor = np.tan(theta_12 / 2) * np.tan(theta_31 / 2) * np.cos(xi)
    w = 1.0 + np.exp(1j * phi) * factor
    if abs(w) <= TAU_DEG:
        raise DegenerateTriadError("phase singularity: expression vanishes")
    return principal_angle(-float(np.angle(w)))


# ---------------------------------------------------------------------------
# coherent states, handled analytically


def solve_dependent_coherent(theta_12: float, theta_31: float,
                             phi_prime: float) -> tuple[float, float]:
    """Dependent pair (theta_23, phi_g) for the coherent triad (0, r, r' e^{i phi'}).

    The radial labels follow from the first two angles through
    e^{-r^2/2} = cos(theta_12/2), and the remaining overlap obeys

        cos(theta_23/2) = cos(theta_12/2) cos(theta_31/2) e^{r r' cos(phi')}
        phi_g = -r r' sin(phi')   (mod 2*pi, reported in (-pi, pi]).
    """
    params = CoherentTriadParams(theta_12, theta_31, phi_prime)
    r, rp = params.r, params.r_prime
    # exp(r r' cos phi') can carry c23 past 1: coincident rays, not an inconsistency
    c23 = np.cos(theta_12 / 2) * np.cos(theta_31 / 2) * np.exp(r * rp * np.cos(phi_prime))
    theta_23 = _dependent_theta(float(c23))
    phi_g = principal_angle(-r * rp * np.sin(phi_prime))
    return theta_23, phi_g


# ---------------------------------------------------------------------------
# gauge helpers used by tests and the CLI


def gauge_transform(triad, alphas) -> list[np.ndarray]:
    """Multiply each member of a triad by an independent phase."""
    if len(triad) != len(alphas):
        raise ValueError("need one phase per state")
    return [as_state(psi) * np.exp(1j * a) for psi, a in zip(triad, alphas)]
