"""Reference connection integrand: a full derivative array, then a row sum.

The library forms Im (psi, dpsi/ds) from the overlaps of each sample with
its neighbours.  This keeps the route it replaced: the fourth-order
finite-difference derivative of every component, central in the interior
and one-sided at the two samples of each end, paired with the conjugate
sample and summed.  The parity tests compare ``connection_integral``
against the Simpson quadrature of this integrand.
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
