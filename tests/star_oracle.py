"""Reference star decomposition and trajectory matching, one row at a time.

The library factors whole batches of star polynomials in one array
kernel and orders a trajectory without a per-sample loop.  These helpers
keep the straightforward route it replaced: one ``np.roots`` call per
state, one guarded Newton step per root, one ``np.convolve`` per spinor,
and a loop that orders each sample against the previous one by
great-circle arcs (``oracle_order``; the library compares squared chords
instead).  The parity tests compare the kernel against them.
``oracle_su2_rotation`` keeps the nine-trace form of the rotation a
matrix in SU(2) induces on stars.
``oracle_schwinger_transpose`` keeps the D^j(u) that the library built
by expanding a stack of spinors slot by slot, before it built D^j(u)
from the eigenbasis of J_y, and ``oracle_schwinger_sum`` the closed-form
Schwinger sum in 60-digit arithmetic (mpmath, which the tests import
only when it is installed).  ``oracle_check_su2`` keeps the SU(2) test
on the NumPy array that came before the test on four Python complex
numbers.
``rowmajor_factor`` and ``rowmajor_stars`` keep the batched kernel as it
was before it went component-major: one row per state, the spinors in a
(B, n-1, 2) array and the stars in a (B, n-1, 3) array.  The kernel must
equal them bit for bit.  ``rowmajor_expand`` keeps the spinor product
as it ran along the last axis before it went power-major, and
``hypot_quadratic_roots`` the closed-form pair with the cut's moduli
taken from the scaled coefficients.  ``restart_order`` keeps the
trajectory matching that runs the restart bookkeeping on every track,
also one whose only restart is its first sample.
"""

import math

import numpy as np

from holonomy_lab import majorana as mj
from holonomy_lab.majorana import _expand, _min_sum_assignment, _weights

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)


def _canonical_spinor(xi):
    xi = np.asarray(xi, dtype=complex)
    xi = xi / np.linalg.norm(xi)
    pivot = xi[0] if xi[0] != 0 else xi[1]
    if abs(pivot) >= np.finfo(float).tiny:
        return xi * (np.conjugate(pivot) / abs(pivot))
    # conj(pivot) / |pivot| forms 1 / |pivot|, which overflows for a
    # subnormal pivot: divide after scaling by 2^600, which is exact, and
    # scale the product back, which rounds each entry once
    up = 2.0 ** 600
    return xi * up * (np.conjugate(pivot * up) / abs(pivot * up)) / up


def oracle_star(xi):
    xi = np.asarray(xi, dtype=complex)
    xi = xi / np.linalg.norm(xi)
    ab = np.conjugate(xi[0]) * xi[1]
    return np.array([2.0 * ab.real, 2.0 * ab.imag,
                     abs(xi[0]) ** 2 - abs(xi[1]) ** 2])


def _polish_roots(desc, roots):
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return roots
    p = np.polyval(desc, roots)
    dp = np.polyval(np.polyder(desc), roots)
    ok = dp != 0
    step = np.zeros_like(roots)
    step[ok] = -p[ok] / dp[ok]
    small = np.abs(step) <= 1e-6 * (1.0 + np.abs(roots))
    candidate = roots + np.where(small, step, 0.0)
    better = np.abs(np.polyval(desc, candidate)) <= np.abs(p)
    return np.where(small & better, candidate, roots)


def oracle_decomposition(psi):
    """Spinors (n-1, 2) and scale of one state by ``np.roots``, with the
    library's degree cut of 1e-10, relative to the largest amplitude,
    written out."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.size
    coeffs = psi * np.sqrt([float(math.comb(n - 1, k)) for k in range(n)])
    cutoff = 1e-10 * np.max(np.abs(psi))
    degree = int(np.max(np.flatnonzero(np.abs(psi) > cutoff)))
    spinors = [np.array([1.0, 0.0], dtype=complex)] * (n - 1 - degree)
    if degree > 0:
        desc = coeffs[degree::-1]
        for w in _polish_roots(desc, np.roots(desc)):
            spinors.append(_canonical_spinor([-w, 1.0]))
    spinors = np.array(spinors, dtype=complex).reshape(n - 1, 2)
    poly = oracle_expand(spinors)
    scale = coeffs[degree] / (math.sqrt(math.factorial(n - 1)) * poly[degree])
    return spinors, complex(scale)


def oracle_expand(spinors):
    """Coefficients of the product of (alpha + beta z), lowest power first."""
    poly = np.ones(1, dtype=complex)
    for s in spinors:
        poly = np.convolve(poly, np.asarray(s, dtype=complex))
    return poly


def oracle_su2_apply(u, psi):
    """u in SU(2) applied to one state through its stars."""
    spinors, scale = oracle_decomposition(psi)
    n = np.asarray(psi).size
    weights = [math.sqrt(math.factorial(k) * math.factorial(n - 1 - k))
               for k in range(n)]
    moved = [np.asarray(u, dtype=complex) @ s for s in spinors]
    return scale * oracle_expand(moved) * weights


def oracle_stars(psi):
    spinors, _ = oracle_decomposition(psi)
    return np.array([oracle_star(s) for s in spinors]).reshape(-1, 3)


def _gap(a, b):
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def _lex_pair(stars):
    """The two stars in lexicographic order; coordinates within 1e-12 tie."""
    for x, y in zip(*stars):
        if abs(x - y) > 1e-12:
            return stars if x < y else stars[::-1]
    return stars


def paired_spinors(got, want):
    """want reordered row by row to the closest spinor of got.

    The kernel and the oracle may list the same roots in different
    orders; phase-fixed spinors of one root are equal, so pairing by the
    least total distance lines the two multisets up before an
    elementwise comparison.
    """
    got, want = np.asarray(got), np.asarray(want)
    cost = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
    return want[_min_sum_assignment(cost)]


def oracle_order(star_rows):
    """Star pairs (samples, 2, 3) ordered one sample at a time by the least
    total great-circle motion.

    Returns the ordered pairs and the indices of the later samples whose
    two costs tied within 1e-12, which were sorted lexicographically.
    """
    out = np.empty((len(star_rows), 2, 3))
    ties = []
    for i, stars in enumerate(star_rows):
        if i == 0:
            out[0] = _lex_pair(stars)
            continue
        prev = out[i - 1]
        keep = _gap(prev[0], stars[0]) + _gap(prev[1], stars[1])
        swap = _gap(prev[0], stars[1]) + _gap(prev[1], stars[0])
        if abs(keep - swap) < 1e-12:
            ties.append(i)
            out[i] = _lex_pair(stars)
        elif keep <= swap:
            out[i] = stars
        else:
            out[i] = stars[::-1]
    return out, ties


def oracle_trajectory(psi_rows):
    """Star pairs of dimension-3 samples, each factored by ``oracle_stars``
    and matched by ``oracle_order``."""
    return oracle_order([oracle_stars(sample) for sample in psi_rows])


def oracle_su2_rotation(u):
    """Rotation on stars induced by u in SU(2), one trace per entry."""
    u = np.asarray(u, dtype=complex)
    r = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            r[i, j] = 0.5 * np.trace(SIGMA[i] @ u @ SIGMA[j] @ u.conj().T).real
    return r


def oracle_schwinger_transpose(u, n):
    """Transpose of D^j(u) on dimension n: row l expands the product of
    n-1-l copies of u's first column and l of its second, as spinors, and
    f_k / f_l (f = sqrt(k! (n-1-k)!)) turns coefficient k into amplitude k."""
    u = np.asarray(u, dtype=complex)
    pick = (np.add.outer(np.arange(n), np.arange(n - 1)) >= n - 1).astype(np.intp)
    f = _weights(n)[1]
    return _expand(u.T[pick]).T * (f / f[:, None])


def oracle_schwinger_sum(u, n):
    """D^j(u) on dimension n from the closed-form Schwinger sum in 60-digit
    arithmetic (mpmath): entry (m, l) is coefficient m of
    (u00 + u10 z)^(n-1-l) (u01 + u11 z)^l times f_m / f_l,

        sum_k C(n-1-l, k) C(l, m-k) f_m / f_l
              u00^(n-1-l-k) u10^k u01^(l-m+k) u11^(m-k),

    k from max(0, m-l) to min(n-1-l, m)."""
    import mpmath

    with mpmath.workdps(60):
        entries = [mpmath.mpc(z) for z in np.asarray(u, dtype=complex).ravel().tolist()]
        u00, u01, u10, u11 = [[x ** e for e in range(n)] for x in entries]
        f = [mpmath.sqrt(mpmath.factorial(k) * mpmath.factorial(n - 1 - k))
             for k in range(n)]
        out = np.empty((n, n), dtype=complex)
        for l in range(n):
            for m in range(n):
                total = mpmath.mpc(0)
                for k in range(max(0, m - l), min(n - 1 - l, m) + 1):
                    total += (math.comb(n - 1 - l, k) * math.comb(l, m - k)
                              * u00[n - 1 - l - k] * u10[k] * u01[l - m + k] * u11[m - k])
                out[m, l] = complex(total * f[m] / f[l])
    return out


def oracle_check_su2(u):
    """u as a complex 2x2 array, or ValueError, tested on the NumPy array."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.isfinite(u).all():
        raise ValueError("matrix must be finite")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("matrix is not unitary")
    if abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0) > 1e-10:
        raise ValueError("matrix must have determinant 1")
    return u


def _rowmajor_horner(desc, x):
    """Row r of desc (highest power first) evaluated at the points x[r]."""
    y = desc[:, :1]
    for c in desc.T[1:, :, None]:
        y = y * x + c
    return y


def _rowmajor_polish(desc, roots):
    """One guarded Newton step per root (row r of desc at the points roots[r])."""
    deriv = desc[:, :-1] * np.arange(desc.shape[1] - 1, 0, -1)
    p = _rowmajor_horner(desc, roots)
    dp = _rowmajor_horner(deriv, roots)
    step = np.divide(-p, dp, out=np.zeros_like(roots), where=dp != 0)
    small = np.abs(step) <= 1e-6 * (1.0 + np.abs(roots))
    candidate = roots + np.where(small, step, 0.0)
    better = np.abs(_rowmajor_horner(desc, candidate)) <= np.abs(p)
    return np.where(small & better, candidate, roots)


def rowmajor_factor(psi):
    """Spinors, (..., n-1, 2), and scales of a state or (B, n) batch, one row
    per state; the degree cut is read from ``majorana.TAU_LEAD`` at the call."""
    psi = np.asarray(psi, dtype=complex)
    batch = psi.reshape(-1, psi.shape[-1])
    count, n = batch.shape
    coeffs = batch * _weights(n)[0]
    mags = np.abs(batch)
    peak = mags.max(axis=1)
    degree = n - 1 - (mags[:, ::-1] > mj.TAU_LEAD * peak[:, None]).argmax(axis=1)
    zeros = (mags != 0).argmax(axis=1)
    spinors = np.empty((count, n - 1, 2), dtype=complex)
    lead = np.ones(count, dtype=complex)
    key = degree * n + zeros
    for k in np.unique(key):
        d, z = divmod(int(k), n)
        rows = np.flatnonzero(key == k)
        spinors[rows, :n - 1 - d] = 1.0, 0.0
        if z:
            spinors[rows, n - 1 - z:] = 0.0, 1.0
        desc, m = coeffs[rows, d::-1], d - z
        if m == 0:
            continue
        top = -desc[:, 1:m + 1] / desc[:, :1]
        if m == 1:
            roots = top
        elif m == 2:
            roots = np.stack(mj._quadratic_roots(top[:, 0], top[:, 1]), axis=1)
        else:
            companion = np.zeros((desc.shape[0], m, m), dtype=complex)
            companion[:, 0, :] = top
            companion.reshape(-1, m * m)[:, m::m + 1] = 1.0
            roots = _rowmajor_polish(desc, np.linalg.eigvals(companion))
        mod = np.abs(roots)
        h = np.hypot(mod, 1.0)
        spinors[rows, n - 1 - d:n - 1 - z, 0] = mod / h
        if mod.min() < mj._TINY:
            roots[mod < mj._TINY] *= mj._UP
            mod = np.abs(roots)
            beta = np.divide(np.conjugate(roots), -mod, out=np.ones_like(roots),
                             where=mod > 0)
        else:
            beta = np.conjugate(roots) / -mod
        beta /= h
        spinors[rows, n - 1 - d:n - 1 - z, 1] = beta
        lead[rows] = beta.prod(axis=-1)
    scale = coeffs[np.arange(count), degree] / (math.sqrt(math.factorial(n - 1)) * lead)
    return (spinors.reshape(psi.shape[:-1] + (n - 1, 2)),
            scale.reshape(psi.shape[:-1]))


def rowmajor_stars(spinors):
    """Stars (..., 3) of unit spinors (..., 2), one coordinate at a time."""
    a, b = spinors[..., 0], spinors[..., 1]
    ab = np.conjugate(a) * b
    star = np.empty(ab.shape + (3,))
    star[..., 0], star[..., 1] = 2.0 * ab.real, 2.0 * ab.imag
    star[..., 2] = np.abs(a) ** 2 - np.abs(b) ** 2
    return star


def rowmajor_expand(spinors):
    """Coefficients of prod_k (alpha_k + beta_k z), lowest power first,
    every power updated by every factor along the last axis."""
    count = spinors.shape[-2]
    poly = np.zeros(spinors.shape[:-2] + (count + 1,), dtype=complex)
    poly[..., :2] = spinors[..., 0, :] if count else 1.0
    for k in range(1, count):
        shifted = poly[..., :-1] * spinors[..., k, 1, None]
        poly *= spinors[..., k, 0, None]
        poly[..., 1:] += shifted
    return poly


def hypot_quadratic_roots(t0, t1):
    """``majorana._quadratic_roots`` with the cut's moduli |u0| and
    |u1| / r taken from the scaled coefficients."""
    size = np.frexp(np.maximum(np.abs(t0), np.sqrt(np.abs(t1))))[1]
    r = np.ldexp(1.0, -np.maximum(size, -1020))
    u0, u1 = t0 * r, t1 * r * r
    disc = np.sqrt(u0 * u0 + 4.0 * u1)
    np.negative(disc, out=disc, where=(np.conjugate(u0) * disc).real < 0)
    single = np.abs(disc) > mj._DOUBLE_ROOT * (r + np.abs(u0) + np.abs(u1) / r)
    disc *= single
    q = 0.5 * (t0 + disc / r)
    return q, np.divide(-t1, q, out=q.copy(), where=single)


def restart_order(stars):
    """Star pairs (samples, 2, 3) of unordered pairs (samples, 2, 3), each
    sample kept or swapped by the sign of the product of consecutive star
    separations and every restart (sample 0 and each tie) sorted
    lexicographically, through the restart bookkeeping for every track."""
    stars = stars.T  # (coordinate, star, sample)
    diff = stars[:, 0] - stars[:, 1]
    p = diff[:, :-1] * diff[:, 1:]
    d = p[0] + p[1] + p[2]
    restart = np.concatenate([[True], np.abs(d) < 1e-12])
    flips = np.logical_xor.accumulate(np.concatenate([[False], d < 0]) & ~restart)
    starts = np.flatnonzero(restart)
    gap = diff[:, starts]
    ahead = np.sign(gap, where=np.abs(gap) > 1e-12, out=np.zeros_like(gap))
    lex = np.array([4.0, 2.0, 1.0]) @ ahead > 0
    last = np.cumsum(restart) - 1
    flip = lex[last] ^ flips ^ flips[starts][last]
    return np.where(flip, stars[:, ::-1], stars).T
