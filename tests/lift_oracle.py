"""The grid test, the geodesic rows and the sample passes in the forms
the lift path replaced.

``CurveLift`` tests its grid from the extremes of one difference array,
and ``geodesic_lift`` forms its rows by broadcasting the cosine and sine
columns against the two plane vectors over a shared grid.  These helpers
keep the straightforward forms: ``np.diff`` and the largest deviation of
any step from the first, and two ``np.outer`` products over a fresh
``np.linspace``.

A lift stores its samples component-major, as the transpose of a
(dim, samples) buffer, and takes its norms, lag-1 overlaps and the lag-2
and lag-4 overlaps of the connection integral down the buffer's columns.
``row_major_lift`` keeps the sample-major forms those passes replaced:
C-order (samples, dim) samples and their conjugates, with norms and
lag-1 overlaps by ``einsum("ij,ij->i")`` along each sample's row, and
``oracle_polygon_phase`` takes the lag-2 and lag-4 overlaps the same
way.  The parity tests compare the library against them.
"""

from types import SimpleNamespace

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


def oracle_norms(psi) -> np.ndarray:
    """The norm of each row of the (samples, dim) array psi, summed along
    the row from the complex products."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    return np.sqrt(np.einsum("ij,ij->i", np.conjugate(psi), psi).real)


def row_major_lift(lift) -> SimpleNamespace:
    """The lift's grid and samples in C order (samples, dim), with the
    conjugate samples and the lag-1 overlaps formed along each sample's
    row; it carries what ``verify_npc`` reads."""
    psi = np.ascontiguousarray(lift.psi)
    conj = np.conjugate(psi)
    return SimpleNamespace(s=lift.s, psi=psi, _conj=conj,
                           _lag1=np.einsum("ij,ij->i", conj[:-1], psi[1:]))


def oracle_polygon_phase(rows) -> tuple[float, float]:
    """(R(h), its error estimate) as ``curves._polygon_phase`` forms them,
    with the lag-2 and lag-4 overlaps taken along the rows of C-order
    samples; ``rows`` is a ``row_major_lift``."""
    n = rows.s.size
    psi, conj = rows.psi, rows._conj
    k = (n - 1) // 4
    turn1 = np.angle(rows._lag1)
    turn2 = np.angle(np.einsum("ij,ij->i", conj[:-2:2], psi[2::2]))
    turn4 = np.angle(np.einsum("ij,ij->i", conj[:4 * k:4], psi[4:4 * k + 1:4]))
    d1, d2 = float(turn1[:4 * k].sum()), float(turn2[:2 * k].sum())
    result = (4.0 * (d1 + sum(turn1[4 * k:].tolist()))
              - (d2 + sum(turn2[2 * k:].tolist()))) / 3.0
    return result, abs(4.0 * d1 - 5.0 * d2 + float(turn4.sum())) / 45.0
