"""Reference profile check: every pairwise dot product, always.

The library settles the nonlocal condition from per-component bounds and
scans the Gram matrix only when those cannot decide.  This keeps the
check it replaced: boundary and local conditions, then the full k x k
Gram matrix of the samples, with every pair i < j held to (0, 1 + tol].
The parity tests compare ``validate_profile`` against it.

It also keeps the bounds test as it first read, from per-column extremes
and row sums of squares of the profile as given, whatever its layout.  The
library takes the same bounds from one contiguous copy of the components
and must reach the same decision.
"""

import numpy as np


def oracle_violations(profile, theta0, tol=1e-9):
    """All violations of a real profile, in the library's order."""
    violations = []
    x = profile.x
    n_samples, m = x.shape
    c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
    start = np.zeros(m)
    start[0] = 1.0
    end = np.zeros(m)
    end[0], end[1] = c0, s0
    if np.max(np.abs(x[0] - start)) > tol:
        violations.append({"kind": "boundary", "index": 0,
                           "detail": "profile must start at (1, 0, ...)"})
    if np.max(np.abs(x[-1] - end)) > tol:
        violations.append({"kind": "boundary", "index": n_samples - 1,
                           "detail": "profile must end at (C0, S0, 0, ...)"})
    norms = np.linalg.norm(x, axis=1)
    for i in np.flatnonzero(np.abs(norms - 1.0) > tol):
        violations.append({"kind": "local", "index": int(i),
                           "detail": f"norm {norms[i]:.12f} is not 1"})
    for i in np.flatnonzero(x[:, 0] <= 0.0):
        violations.append({"kind": "local", "index": int(i),
                           "detail": "first component not positive"})
    combo = c0 * x[:, 0] + s0 * x[:, 1]
    for i in np.flatnonzero(combo <= 0.0):
        violations.append({"kind": "local", "index": int(i),
                           "detail": "C0 x1 + S0 x2 not positive"})
    gram = x @ x.T
    bad = (gram <= 0.0) | (gram > 1.0 + tol)
    bad &= np.triu(np.ones_like(bad, dtype=bool), k=1)
    for i, j in zip(*np.nonzero(bad)):
        violations.append({"kind": "nonlocal", "pair": [int(i), int(j)],
                           "detail": f"overlap {gram[i, j]:.6e} outside (0, 1]"})
    return violations


def oracle_certified(x, tol=1e-9):
    """Whether per-component bounds settle the nonlocal condition."""
    m = x.shape[1]
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    floor = float(np.minimum(lo * hi, np.minimum(lo * lo, hi * hi)).sum())
    top = float(np.einsum("ij,ij->i", x, x).max())
    slack = 16.0 * m * m * np.finfo(float).eps * max(top, 1.0)
    return floor > slack and top + slack <= 1.0 + tol
