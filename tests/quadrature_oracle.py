"""Reference routes for the connection integral.

The library sums the phases of neighbour overlaps, the Bargmann invariant
of the sample polygon, with a Richardson step.  Two routes it does not
take are kept here.

The polygon route of ``oracle_polygon`` takes the same sums one overlap
at a time, in Python, with exactly rounded sums; it pins the result and
the error estimate, and which samples each sum covers.

The stencil route integrates Im (psi, dpsi/ds) with fourth-order finite
differences, central in the interior and one-sided at the two samples of
each end, by composite Simpson quadrature, and estimates its error
against Simpson's rule on every other sample (grids with (n - 1)
divisible by 4, from 9 samples on) or against the trapezoid rule.  The
integrand is formed either from a full derivative array or from the lag-1
and lag-2 overlaps of the samples, which the stencil reduces to.  It is
an independent value of the same integral, with an error of its own.
"""

import cmath
import math

import numpy as np


def oracle_turns(lift, lag, stop=None):
    """arg (psi_i, psi_{i+lag}) for i = 0, lag, 2 lag, ... up to ``stop``."""
    psi = lift.psi
    stop = psi.shape[0] - 1 if stop is None else stop
    return [cmath.phase(np.vdot(psi[i], psi[i + lag]))
            for i in range(0, stop - lag + 1, lag)]


def oracle_polygon(lift):
    """(R(h), |R(h) - R(2h)| / 15) with R(h) = (4 D(h) - D(2h)) / 3.

    D(h) sums the neighbour-overlap phases on the whole grid for R(h); the
    estimate takes D(h), D(2h) and D(4h) over the samples up to the last
    one whose index is a multiple of 4.
    """
    n = lift.s.size
    if n < 5 or n % 2 == 0:
        raise ValueError("odd grid of at least 5 samples needed")
    end = 4 * ((n - 1) // 4)
    d1, d2 = math.fsum(oracle_turns(lift, 1)), math.fsum(oracle_turns(lift, 2))
    p1, p2, p4 = (math.fsum(oracle_turns(lift, lag, end)) for lag in (1, 2, 4))
    fine, coarse = (4.0 * p1 - p2) / 3.0, (4.0 * p2 - p4) / 3.0
    return (4.0 * d1 - d2) / 3.0, abs(fine - coarse) / 15.0


def simpson(values, h):
    """Composite Simpson quadrature on an odd grid of spacing h."""
    n = values.size
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of samples")
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.dot(weights, values) * h / 3.0)


def oracle_derivative(values, h):
    """Fourth-order finite differences on a uniform grid (any shape, axis 0)."""
    n = values.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples for the derivative stencil")
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    d[0] = (-25 * values[0] + 48 * values[1] - 36 * values[2]
            + 16 * values[3] - 3 * values[4]) / (12 * h)
    d[1] = (-3 * values[0] - 10 * values[1] + 18 * values[2]
            - 6 * values[3] + values[4]) / (12 * h)
    d[-2] = (3 * values[-1] + 10 * values[-2] - 18 * values[-3]
             + 6 * values[-4] - values[-5]) / (12 * h)
    d[-1] = (25 * values[-1] - 48 * values[-2] + 36 * values[-3]
             - 16 * values[-4] + 3 * values[-5]) / (12 * h)
    return d


def oracle_integrand(psi, h):
    """Im (psi, dpsi/ds) at each sample of a grid with spacing h."""
    return np.imag(np.sum(np.conjugate(psi) * oracle_derivative(psi, h), axis=1))


def oracle_connection_integral(lift):
    """Composite Simpson quadrature of the stencil integrand along the lift."""
    h = float(lift.s[1] - lift.s[0])
    return simpson(oracle_integrand(lift.psi, h), h)


# one-sided fourth-order stencils of the first two samples in units of
# 1/(12 h); the last two samples take the mirror image, negated
HEAD = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                 [-3.0, -10.0, 18.0, -6.0, 1.0]])
TAIL = -HEAD[::-1, ::-1]


def overlap_integrand(psi, h):
    """Im (psi, dpsi/ds) from the lag-1 and lag-2 overlaps of the samples."""
    conj = np.conjugate(psi)
    a1 = np.einsum("ij,ij->i", conj[:-1], psi[1:]).imag
    a2 = np.einsum("ij,ij->i", conj[:-2], psi[2:]).imag
    f = np.empty(psi.shape[0])
    f[2:-2] = 8.0 * (a1[1:-2] + a1[2:-1]) - (a2[:-2] + a2[2:])
    f[:2] = np.einsum("ij,ij->i", conj[:2], HEAD @ psi[:5]).imag
    f[-2:] = np.einsum("ij,ij->i", conj[-2:], TAIL @ psi[-5:]).imag
    return f / (12.0 * h)


def oracle_two_pass(lift):
    """(integral, error estimate) of the stencil route.

    The estimate is |S_h - S_2h| / 15 against Simpson's rule on every other
    sample when those form an odd grid of at least 5, and otherwise the gap
    to the trapezoid rule on the full grid.
    """
    n = lift.s.size
    h = float(lift.s[1] - lift.s[0])
    integrand = overlap_integrand(lift.psi, h)
    result = simpson(integrand, h)
    if (n - 1) % 4 == 0 and n >= 9:
        coarse = simpson(overlap_integrand(lift.psi[::2], 2.0 * h), 2.0 * h)
        return result, abs(result - coarse) / 15.0
    return result, abs(result - float(np.trapezoid(integrand, dx=h)))
