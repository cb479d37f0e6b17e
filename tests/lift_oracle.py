"""The grid test and the geodesic rows in the forms the lift path replaced.

``CurveLift`` tests its grid from the extremes of one difference array,
and ``geodesic_lift`` forms its rows by broadcasting the cosine and sine
columns against the two plane vectors over a shared grid.  These helpers
keep the straightforward forms: ``np.diff`` and the largest deviation of
any step from the first, and two ``np.outer`` products over a fresh
``np.linspace``.  The parity tests compare the library against them.
"""

import numpy as np


def oracle_grid_ok(s) -> bool:
    """Whether a finite grid is increasing and uniform to 1e-9 of its first step."""
    steps = np.diff(s)
    return not (np.any(steps <= 0)
                or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]))


def oracle_geodesic_rows(v1, v2, e2, theta0: float, grid: int) -> np.ndarray:
    """Samples cos(a) v1 + sin(a) e2, a = theta0 t / 2, with exact endpoints."""
    t = np.linspace(0.0, 1.0, grid)
    half = 0.5 * theta0 * t
    psi = np.outer(np.cos(half), v1) + np.outer(np.sin(half), e2)
    psi[0] = v1
    psi[-1] = v2
    return psi
