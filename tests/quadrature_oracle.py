"""Reference connection integrand: a full derivative array, then a row sum.

The library forms Im (psi, dpsi/ds) from the overlaps of each sample with
its neighbours.  This keeps the route it replaced: the fourth-order
finite-difference derivative of every component, central in the interior
and one-sided at the two samples of each end, paired with the conjugate
sample and summed.  The parity tests compare ``connection_integral``
against the Simpson quadrature of this integrand.

It also keeps the two-pass error estimate: the overlap integrand formed
afresh on every other sample, at twice the spacing, and integrated again.
The library takes that coarse integrand from the fine grid's overlaps, and
must reproduce both the result and the estimate of this route bit for bit.
"""

import numpy as np

from holonomy_lab.curves import _simpson


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
    return _simpson(oracle_integrand(lift.psi, h), h)


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
    """(integral, error estimate), forming the coarse integrand a second time.

    The estimate is |S_h - S_2h| / 15 against Simpson's rule on every other
    sample when those form an odd grid of at least 5, and otherwise the gap
    to the trapezoid rule on the full grid.
    """
    n = lift.s.size
    h = float(lift.s[1] - lift.s[0])
    integrand = overlap_integrand(lift.psi, h)
    result = _simpson(integrand, h)
    if (n - 1) % 4 == 0 and n >= 9:
        coarse = _simpson(overlap_integrand(lift.psi[::2], 2.0 * h), 2.0 * h)
        return result, abs(result - coarse) / 15.0
    return result, abs(result - float(np.trapezoid(integrand, dx=h)))
