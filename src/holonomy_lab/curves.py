"""Geodesics, null phase curves, and phase functionals of sampled paths.

A null phase curve is a ray-space path on which the three-point invariant
of any three samples is real and positive.  Geodesics have this property
in every dimension; from dimension 3 on there are others, generated here
from real profiles x(s) in an orthonormal frame.  Curves are represented
by uniform sampling.  The connection integral of a sampled curve is the
sum of the phases of its neighbour overlaps, which with the endpoint
overlap make up the Bargmann invariant of the sample polygon; a
Richardson step on every other sample makes it fourth order, and the same
step on every fourth sample estimates its error.  Those samples' overlaps
are the fine grid's lag-2 and lag-4 overlaps, so no sample is conjugated
twice and no derivative is formed.

A lift holds read-only copies of its grid and samples, together with the
conjugate samples and the lag-1 overlaps that its own checks form; the
connection integral and the null-phase check read those rather than
forming them again.  Geodesic lifts of one size share one cached grid,
which lies over an immutable buffer.  The null-phase check keeps the
triples it rejects as an index array and a value array, and builds a
list of dicts from them only when asked.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import (DEFAULT_GRID, DEFAULT_SUBGRID, MAX_QUAD_ERROR, TAU_DEG,
                     TAU_NPC, TAU_PROFILE)
from .core import inner, normalize, principal_angle, ray_angle

# the rounding of an overlap of two unit n-vectors is at most about n eps;
# this times n is the absolute scale on which near-orthogonal overlaps
# are judged (measured need: 0.2 of it, over n = 3...8)
_ROUNDING = 2.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CurveLift(object):
    """Uniformly sampled unit-norm path in Hilbert space.

    ``s`` (1-D, never flattened) and ``psi`` are read-only copies of the
    inputs, so a caller that writes to its own arrays afterwards changes
    nothing here.  The conjugate samples and the lag-1 overlaps
    (psi_i, psi_{i+1}), which the unit-norm and degeneracy checks form,
    are kept read-only as well, for :func:`connection_integral` and
    :func:`verify_npc` to read.  The lift builders of this module and the
    CSV reader hand over arrays they have just made through ``_owned``,
    which runs the same checks without the copy; geodesic lifts of one
    size hold the same cached grid.
    """

    s: np.ndarray
    psi: np.ndarray  # shape (len(s), dim)
    _conj: np.ndarray = field(init=False, repr=False, compare=False)
    _lag1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = np.array(self.s, dtype=float)
        if s.ndim != 1:
            raise ValueError(f"sample grid must be 1-D, got shape {s.shape}")
        self._seal(s, np.array(self.psi, dtype=complex))

    @classmethod
    def _owned(cls, s: np.ndarray, psi: np.ndarray) -> "CurveLift":
        """Lift of a 1-D float grid and a complex sample array that no one
        else holds; both are checked and made read-only, not copied."""
        lift = object.__new__(cls)
        lift._seal(s, psi)
        return lift

    def _seal(self, s: np.ndarray, psi: np.ndarray) -> None:
        if s.size < 3:
            raise ValueError("a curve needs at least 3 samples")
        if psi.ndim != 2 or psi.shape[0] != s.size:
            raise ValueError("psi must have one row per sample")
        # the span, taken in Python floats, bounds every step: when it is
        # finite no difference below can overflow or meet inf - inf, so
        # NumPy warns of neither (the ufunc reductions skip the overhead of
        # the max/min methods); rounding is monotone, so the largest
        # |step - first| is hi - first or first - lo
        if not math.isfinite(float(np.maximum.reduce(s)) - float(np.minimum.reduce(s))):
            if not np.isfinite(s).all():
                raise ValueError("non-finite sample in curve")
            raise ValueError("sample grid must be uniform and increasing")
        steps = s[1:] - s[:-1]
        first, lo, hi = steps[0], steps.min(), steps.max()
        if not (lo > 0 and max(hi - first, first - lo) <= 1e-9 * first):
            raise ValueError("sample grid must be uniform and increasing")
        conj = np.conjugate(psi)
        norms = np.sqrt(np.einsum("ij,ij->i", conj, psi).real)
        # max |norm - 1| by the same monotone rounding; a non-finite entry
        # makes its row's norm inf or NaN, which fails here
        if not max(norms.max() - 1.0, 1.0 - norms.min()) <= 1e-9:
            if not np.all(np.isfinite(psi)):
                raise ValueError("non-finite sample in curve")
            raise ValueError("all samples must be unit vectors")
        lag1 = np.einsum("ij,ij->i", conj[:-1], psi[1:])
        if np.abs(lag1).min() <= TAU_DEG:
            raise ValueError("consecutive samples are orthogonal; lift is degenerate")
        for name, value in (("s", s), ("psi", psi), ("_conj", conj), ("_lag1", lag1)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.psi.shape[1]


@dataclass(frozen=True)
class CurveFrame:
    """Orthonormal frame vectors plus the opening angle of the endpoints."""

    vectors: np.ndarray  # shape (m, dim)
    theta0: float

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", v)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("frame needs at least two vectors")
        if not np.all(np.isfinite(v)):
            raise ValueError("frame vectors must be finite")
        gram = np.conjugate(v) @ v.T
        # written so that a NaN in the Gram matrix fails, whatever produced it
        if not np.max(np.abs(gram - np.eye(v.shape[0]))) <= 1e-12:
            raise ValueError("frame vectors must be orthonormal")
        if not 0.0 < self.theta0 < np.pi:
            raise ValueError("theta0 must lie strictly inside (0, pi)")


@dataclass(frozen=True)
class RealProfile:
    """Real profile x(s) of m >= 2 components sampled on a uniform 1-D grid
    of at least 3 samples, as a lift needs."""

    s: np.ndarray
    x: np.ndarray  # shape (len(s), m), real

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        if s.ndim != 1:
            raise ValueError(f"sample grid must be 1-D, got shape {s.shape}")
        if s.size < 3:
            raise ValueError("a profile needs at least 3 samples")
        if x.ndim != 2 or x.shape[0] != s.size:
            raise ValueError("x must have one row per sample")
        # the end condition (cos(theta0/2), sin(theta0/2), 0, ...) names two
        if x.shape[1] < 2:
            raise ValueError("a profile needs at least 2 components")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
            raise ValueError("non-finite sample in profile")


@dataclass
class NpcReport:
    """Outcome of the null-phase check on a subgrid of samples.

    ``triples`` holds the violating pivot triples [p, j, k] as sample
    indices, one row each, and ``deltas`` their invariants; an accepted
    curve has none.  ``violations`` lists them as ``{"indices", "delta"}``
    dicts, built only when it is read.
    """

    checked: int
    triples: np.ndarray  # shape (v, 3), int
    deltas: np.ndarray  # shape (v,), complex
    min_real: float
    max_rel_imag: float

    @property
    def ok(self) -> bool:
        return self.triples.size == 0

    @property
    def violations(self) -> list:
        parts = np.stack([self.deltas.real, self.deltas.imag], axis=1)
        return [{"indices": t, "delta": d}
                for t, d in zip(self.triples.tolist(), parts.tolist())]


def in_phase_gauge(psi1, psi2):
    """Rephase psi2 so the pair overlap is real positive."""
    v1 = normalize(psi1)
    v2 = normalize(psi2)
    ov = inner(v1, v2)
    if abs(ov) <= TAU_DEG:
        raise ValueError("orthogonal pair cannot be brought in phase")
    return v1, v2 * (abs(ov) / ov)


def _pair_plane(v1, v2) -> tuple[np.ndarray, float]:
    """(e2, theta0): v2 = cos(theta0/2) v1 + sin(theta0/2) e2 for an in-phase
    pair of unit vectors, with e2 a unit vector orthogonal to v1."""
    ov, theta0 = ray_angle(v1, v2)
    # the phase of an overlap of modulus c carries about eps / c, so a pair
    # outside the phase tolerance is in phase when Im ov is rounding
    if (abs(cmath.phase(ov)) > 1e-10
            and not (ov.real > 0.0 and abs(ov.imag) <= _ROUNDING * v1.size)):
        raise ValueError("pair is not in phase; run in_phase_gauge first")
    # for close rays the residual's rounding is large against its norm, so
    # v1 is projected out twice and the norm taken from the residual itself
    r = v2 - ov.real * v1
    r -= np.vdot(v1, r) * v1
    return normalize(r), theta0


@lru_cache(maxsize=256)
def _unit_grid(grid: int) -> np.ndarray:
    """Uniform grid of ``grid`` samples on [0, 1], shared by every geodesic
    lift of that size.  It lies over an immutable buffer, so it stays
    read-only even against a reset of its writeable flag."""
    return np.frombuffer(np.linspace(0.0, 1.0, grid).tobytes())


def geodesic_lift(psi1, psi2, grid: int = DEFAULT_GRID) -> CurveLift:
    """Horizontal geodesic between an in-phase pair, sampled on [0, 1]."""
    v1 = normalize(psi1)
    v2 = normalize(psi2)
    e2, theta0 = _pair_plane(v1, v2)
    t = _unit_grid(operator.index(grid))
    half = 0.5 * theta0 * t
    psi = np.cos(half)[:, None] * v1 + np.sin(half)[:, None] * e2
    psi[0] = v1
    psi[-1] = v2
    return CurveLift._owned(t, psi)


def frame_from_pair(psi_a, psi_b) -> CurveFrame:
    """Three-vector frame of the null-phase family for a pair of states.

    After the pair is brought in phase, v1 and e2 span it and the third
    vector is the first orthonormal completion of that span from its
    singular vectors.  The pair must lie in dimension 3 or more.
    """
    v1, v2 = in_phase_gauge(psi_a, psi_b)
    if v1.size < 3:
        raise ValueError(f"the family's frame needs dimension at least 3, "
                         f"got {v1.size}")
    e2, theta0 = _pair_plane(v1, v2)
    _, _, vh = np.linalg.svd(np.conjugate(np.array([v1, e2])), full_matrices=True)
    return CurveFrame(np.array([v1, e2, np.conjugate(vh[2])]), theta0)


def generate_npc_profile(theta0: float, eps: float,
                         grid: int = DEFAULT_GRID) -> RealProfile:
    """Nonnegative three-component profile family on s in [0, 1].

        x(s) = (cos a, sin a cos b, sin a sin b),
        a = s * theta0 / 2,  b = eps * sin(pi s).

    eps = 0 reduces to the geodesic profile.  The dimension enters only
    through the three-vector frame the profile is lifted in.
    """
    if not 0.0 < theta0 < np.pi:
        raise ValueError("theta0 must lie strictly inside (0, pi)")
    if not 0.0 <= eps < np.pi / 2:
        raise ValueError("eps must lie in [0, pi/2)")
    s = np.linspace(0.0, 1.0, grid)
    a = 0.5 * theta0 * s
    b = eps * np.sin(np.pi * s)
    sin_a = np.sin(a)
    return RealProfile(s, np.column_stack([np.cos(a), sin_a * np.cos(b),
                                           sin_a * np.sin(b)]))


def _nonlocal_certified(columns: np.ndarray, squares: np.ndarray) -> bool:
    """Whether per-component bounds alone settle the nonlocal condition.

    ``columns`` holds the profile's m components as contiguous rows and
    ``squares`` the squared norm of each sample.  With lo_r, hi_r the
    extremes of component r over the samples, each product x_r(s) x_r(s')
    lies on the box [lo_r, hi_r]^2, where the bilinear form is smallest at
    a corner: it is at least min(lo_r hi_r, lo_r^2, hi_r^2), and the sum of
    these bounds every dot product from below.  Cauchy-Schwarz bounds it
    from above by T = max_s |x(s)|^2.

    Soundness in floating point, with u = eps/2 and g_m = m u / (1 - m u):
    whatever its summation order, a computed Gram entry is off by at most
    g_m sum_r |x_r(s) x_r(s')| <= g_m T; the computed lower bound is off
    by at most g_m sum_r max(lo_r^2, hi_r^2) <= m g_m T, and the computed
    T by at most g_m T.  Together that is (m + 2) g_m T < 2 m^2 eps T,
    which the slack 16 m^2 eps max(T, 1) covers eight times over, leaving
    room for the roundings of the two comparisons; the floor of 1 covers
    absolute errors from underflow.  So when the lower bound exceeds the
    slack and T plus the slack is at most 1 + tol, no Gram entry the scan
    computes is <= 0 or > 1 + tol, tol being TAU_PROFILE.  Overflow or NaN
    fails a comparison and leaves the decision to the scan.  The squares
    may be summed in any order, as the bound on the computed T allows.
    """
    m = columns.shape[0]
    lo = columns.min(axis=1)
    hi = columns.max(axis=1)
    floor = float(np.minimum(lo * hi, np.minimum(lo * lo, hi * hi)).sum())
    top = float(squares.max())
    slack = 16.0 * m * m * np.finfo(float).eps * max(top, 1.0)
    return floor > slack and top + slack <= 1.0 + TAU_PROFILE


def _nonlocal_violations(x: np.ndarray) -> list:
    """Scan the Gram matrix for pairs i < j outside (0, 1 + TAU_PROFILE]."""
    gram = x @ x.T
    bad = (gram <= 0.0) | (gram > 1.0 + TAU_PROFILE)
    bad &= np.triu(np.ones_like(bad, dtype=bool), k=1)
    return [{"kind": "nonlocal", "pair": [int(i), int(j)],
             "detail": f"overlap {gram[i, j]:.6e} outside (0, 1]"}
            for i, j in zip(*np.nonzero(bad))]


def validate_profile(profile: RealProfile, theta0: float) -> list:
    """Violations of the boundary, local and nonlocal conditions of a
    profile, one dict each; an empty list means the profile is valid.

    Boundary: x starts at (1, 0, ...) and ends at (cos(theta0/2),
    sin(theta0/2), 0, ...).  Local: unit norm, x_1 > 0 and
    C0 x_1 + S0 x_2 > 0 at every sample.  Nonlocal: every pairwise dot
    product must lie in (0, 1].  Each test allows ``TAU_PROFILE`` of
    slack.  Per-component bounds settle the nonlocal condition in O(k m)
    for k samples of m components; only when they cannot (signed
    components, norms at the tolerance) are all k^2 pairs scanned.
    """
    if not 0.0 < theta0 < np.pi:
        raise ValueError("theta0 must lie strictly inside (0, pi)")
    violations = []
    x = profile.x
    n_samples, m = x.shape
    c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
    start = np.zeros(m)
    start[0] = 1.0
    end = np.zeros(m)
    end[0], end[1] = c0, s0
    if np.max(np.abs(x[0] - start)) > TAU_PROFILE:
        violations.append({"kind": "boundary", "index": 0,
                           "detail": "profile must start at (1, 0, ...)"})
    if np.max(np.abs(x[-1] - end)) > TAU_PROFILE:
        violations.append({"kind": "boundary", "index": n_samples - 1,
                           "detail": "profile must end at (C0, S0, 0, ...)"})
    # one contiguous copy with a row per component: every reduction below
    # runs along rows, where reductions down the columns of x are strided
    columns = np.ascontiguousarray(x.T)
    squares = (columns * columns).sum(axis=0)
    norms = np.sqrt(squares)
    combo = c0 * columns[0] + s0 * columns[1]
    # extremes settle all three local tests on a passing profile (max
    # |norm - 1| by monotone rounding, as for a lift); only a profile that
    # fails one, or holds a NaN, is scanned sample by sample
    if not (max(norms.max() - 1.0, 1.0 - norms.min()) <= TAU_PROFILE
            and columns[0].min() > 0.0 and combo.min() > 0.0):
        for i in np.flatnonzero(np.abs(norms - 1.0) > TAU_PROFILE):
            violations.append({"kind": "local", "index": int(i),
                               "detail": f"norm {norms[i]:.12f} is not 1"})
        for i in np.flatnonzero(columns[0] <= 0.0):
            violations.append({"kind": "local", "index": int(i),
                               "detail": "first component not positive"})
        for i in np.flatnonzero(combo <= 0.0):
            violations.append({"kind": "local", "index": int(i),
                               "detail": "C0 x1 + S0 x2 not positive"})
    if not _nonlocal_certified(columns, squares):
        violations.extend(_nonlocal_violations(x))
    return violations


def profile_to_lift(frame: CurveFrame, profile: RealProfile) -> CurveLift:
    """Assemble the Hilbert-space lift psi(s) = sum_r x_r(s) e_r.

    The profile must pass :func:`validate_profile` for the frame's theta0.
    """
    m = frame.vectors.shape[0]
    if profile.x.shape[1] != m:
        raise ValueError("profile width does not match the frame size")
    violations = validate_profile(profile, frame.theta0)
    if violations:
        raise ValueError(f"invalid profile: {violations[0]['detail']} "
                         f"({len(violations)} violations)")
    # profile.s belongs to the caller, so only the grid is copied
    psi = profile.x.astype(complex) @ frame.vectors
    return CurveLift._owned(profile.s.copy(), psi)


@lru_cache(maxsize=256)
def _subgrid_indices(n_samples: int, subgrid: int) -> np.ndarray:
    """Read-only indices of about ``subgrid`` evenly spread samples.

    The rounded grid is sorted, so each index that differs from its
    predecessor is kept: np.unique would give the same indices, but it
    imports numpy.ma on its first call, which takes longer than the check.
    """
    if subgrid >= n_samples:
        idx = np.arange(n_samples)
    else:
        rounded = np.linspace(0, n_samples - 1, subgrid).round().astype(int)
        idx = rounded[np.concatenate(([True], rounded[1:] != rounded[:-1]))]
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def _pivot_pairs(size: int, pivot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only mask of the pairs j < k of ``size`` samples, neither of
    them the pivot, and the row and column indices of its pairs in
    row-major order."""
    mask = np.triu(np.ones((size, size), dtype=bool), k=1)
    mask[pivot] = False
    mask[:, pivot] = False
    j, k = np.nonzero(mask)
    for a in (mask, j, k):
        a.flags.writeable = False
    return mask, j, k


def verify_npc(lift: CurveLift, subgrid: int = DEFAULT_SUBGRID) -> NpcReport:
    """Check the real-positive invariant condition on a subgrid of samples.

    A curve is null phase exactly when some lift has all pairwise overlaps
    real and positive.  Rephasing against a pivot sample p gives that lift,
    G'_jk = Delta(p, j, k) / (|G_pj| |G_pk|), so only the triples through
    p are formed.  As arg Delta(i, j, k) = arg G'_ij + arg G'_jk + arg G'_ki,
    holding each to ``TAU_NPC / 3`` holds all ``checked`` subgrid triples
    to ``TAU_NPC``.  A triple that fails that test passes when its
    imaginary part lies within ``TAU_NPC / 3`` of |Delta| plus the
    rounding of Delta, 2 n eps (|G_pj| |G_jk| + |G_jk| |G_kp| +
    |G_kp| |G_pj|), as the phase of an overlap of modulus c carries about
    eps / c of rounding.  Relative to |Delta| that allowance is
    a(p, j, k) = 2 n eps (1/|G_pj| + 1/|G_jk| + 1/|G_kp|), so once a
    triple passes through it the subgrid triple [i, j, k] is held only to
    ``TAU_NPC`` plus a(p, i, j) + a(p, j, k) + a(p, k, i).  The pivot
    maximizes its smallest overlap; a sample within ``TAU_DEG`` of
    orthogonal to it fails.  Violations, ``min_real`` and
    ``max_rel_imag`` refer to the pivot triples [p, j, k].
    """
    if subgrid < 3:
        raise ValueError("subgrid must be at least 3")
    idx = _subgrid_indices(lift.s.size, subgrid)
    gram = lift._conj[idx] @ lift.psi[idx].T
    mods = np.abs(gram)
    smallest = mods.min(axis=1)
    pivot = int(np.argmax(smallest))
    pairs, pair_j, pair_k = _pivot_pairs(idx.size, pivot)
    deltas = (gram[pivot][:, None] * gram * gram[:, pivot])[pairs]
    mags = np.abs(deltas)
    # a zero invariant has a zero imaginary part, which is divided by 1
    if not mags.min() > 0:
        mags = np.where(mags > 0, mags, 1.0)
    rel_imag = np.abs(deltas.imag) / mags
    good = (deltas.real > 0.0) & (rel_imag <= TAU_NPC / 3.0)
    max_rel_imag = float(rel_imag.max())
    if max_rel_imag > TAU_NPC / 3.0:
        # the allowance is formed only for the triples that fail the plain
        # test, so an accepted curve pays nothing for it.  Over |Delta| it
        # is below 4 n _ROUNDING / min |G|, so when every triple lies
        # further out than that, as on a curve whose phases are not
        # rounding, it is not formed at all
        n = lift.psi.shape[1]
        if (rel_imag.min() - TAU_NPC / 3.0) * smallest.min() <= 4.0 * n * _ROUNDING:
            cand = np.flatnonzero(~good)
            j, k = pair_j[cand], pair_k[cand]
            pj, jk, kp = mods[pivot, j], mods[j, k], mods[k, pivot]
            slack = _ROUNDING * n * (pj * jk + jk * kp + kp * pj)
            d = deltas[cand]
            good[cand] = (d.real > 0.0) & (np.abs(d.imag) <= TAU_NPC / 3.0 * mags[cand] + slack)
    # the pivot's smallest overlap decides whether any sample is near
    # orthogonal to it; only then are the pairs through such samples masked
    if not smallest[pivot] > TAU_DEG:
        near = mods[pivot] > TAU_DEG
        good &= (near[:, None] & near)[pairs]
    if good.all():
        triples, failed = np.empty((0, 3), dtype=int), np.empty(0, dtype=complex)
    else:
        bad = ~good
        j, k = pair_j[bad], pair_k[bad]
        triples = idx[np.stack([np.full_like(j, pivot), j, k], axis=1)]
        failed = deltas[bad]
    return NpcReport(
        checked=math.comb(idx.size, 3),
        triples=triples,
        deltas=failed,
        min_real=float(deltas.real.min()),
        max_rel_imag=max_rel_imag,
    )


def _polygon_phase(lift: CurveLift) -> tuple[float, float]:
    """(R(h), its error estimate) from the neighbour overlaps of the samples.

    D(h) = sum_i arg (psi_i, psi_{i+1}) over the steps of a grid of spacing
    h is the argument of the product of neighbour overlaps; with the
    endpoint overlap that product closes into the Bargmann invariant of
    the sample polygon, so D(h) is the discrete connection integral.  Its
    error expands in even powers of h, and R(h) = (4 D(h) - D(2h)) / 3
    removes the h^2 term, D(2h) summing the lag-2 overlaps of the even
    samples.  The estimate |R(h) - R(2h)| / 15, with D(4h) from the lag-4
    overlaps of every fourth sample, is taken on the longest prefix that
    every fourth sample spans: all samples when (n - 1) is divisible by 4,
    else all but the last two.  The lag-1 overlaps are the lift's own.
    """
    n = lift.s.size
    if n < 5 or n % 2 == 0:
        raise ValueError("connection integral needs an odd grid of at least 5 samples")
    psi, conj = lift.psi, lift._conj
    k = (n - 1) // 4  # the prefix ends at sample 4k
    turn1 = np.angle(lift._lag1)
    turn2 = np.angle(np.einsum("ij,ij->i", conj[:-2:2], psi[2::2]))
    turn4 = np.angle(np.einsum("ij,ij->i", conj[:4 * k:4], psi[4:4 * k + 1:4]))
    d1, d2 = float(turn1[:4 * k].sum()), float(turn2[:2 * k].sum())
    # past the prefix lie at most two turns, summed in Python
    result = (4.0 * (d1 + sum(turn1[4 * k:].tolist()))
              - (d2 + sum(turn2[2 * k:].tolist()))) / 3.0
    # R(h) - R(2h) on the prefix is (4 d1 - 5 d2 + d4) / 3
    return result, abs(4.0 * d1 - 5.0 * d2 + float(turn4.sum())) / 45.0


def connection_integral(lift: CurveLift) -> float:
    """Integral of -i (psi, dpsi/ds) along the lift, from the Bargmann
    invariant of its samples (see ``_polygon_phase``).

    Vanishes exactly for lifts with real positive neighbour overlaps; for
    a general lift of a null phase curve it equals the argument of the
    endpoint overlap.  A gauge twist e^{i chi(s)} shifts the result by
    chi(1) - chi(0) and leaves the error estimate as it was, up to
    rounding, as long as it turns no overlap the sums read (neighbours,
    every other sample, every fourth sample) past pi.  The grid must be
    odd, of at least 5 samples.  Raises when the error estimate exceeds
    ``MAX_QUAD_ERROR``, or is NaN.
    """
    result, estimate = _polygon_phase(lift)
    if not estimate <= MAX_QUAD_ERROR:
        raise ValueError(
            f"grid too coarse: estimated quadrature error {estimate:.3e}"
        )
    return result


def open_curve_phase(lift: CurveLift) -> tuple[float, float, float]:
    """(connection integral, endpoint phase, geometric phase) of an open curve.

    The geometric phase is the endpoint phase minus the integral, on the
    principal branch.
    """
    integral = connection_integral(lift)
    endpoint = float(np.angle(inner(lift.psi[0], lift.psi[-1])))
    return integral, endpoint, principal_angle(endpoint - integral)


def loop_geometric_phase(segments, subgrid: int = DEFAULT_SUBGRID) -> float:
    """Geometric phase of a closed loop built from k >= 3 null phase curves.

    Each segment must end within 1e-9 of the next segment's start ray.
    Junction phase jumps are collected as arguments of the cross-segment
    overlaps, which makes the total independent of each segment's lift
    gauge:

        phase = sum_a arg (start_{a+1}, end_a) - sum_a integral_a.

    For vertices psi_1, ..., psi_k this reproduces -arg of the k-point
    invariant, whichever null phase curves join them.
    """
    k = len(segments)
    if k < 3:
        raise ValueError("a loop needs at least three segments")
    # the overlap that gives a junction its phase also tests it: projecting
    # the start out of the end leaves nothing when both lie on one ray, and
    # no small amplitude of either is divided into the rounding
    jumps = []
    for a, seg in enumerate(segments):
        start, end = segments[(a + 1) % k].psi[0], seg.psi[-1]
        if start.size != end.size:
            raise ValueError(f"dimension mismatch: {start.size} vs {end.size}")
        ov = complex(np.vdot(start, end))
        r = end - ov / np.vdot(start, start).real * start
        if math.sqrt(np.vdot(r, r).real) > 1e-9:
            raise ValueError(f"segment {a} does not end on the ray "
                             f"where segment {(a + 1) % k} starts")
        jumps.append(ov)
    for a, seg in enumerate(segments):
        if not verify_npc(seg, subgrid=subgrid).ok:
            raise ValueError(f"segment {a} is not a null phase curve")
    total = 0.0
    for ov, seg in zip(jumps, segments):
        total += float(np.angle(ov))
        total -= connection_integral(seg)
    return principal_angle(total)
