"""Star decomposition of spin states and the two-oscillator basis.

A dimension-n vector with amplitudes A_k (k = 0 at the highest weight)
defines the polynomial

    p(z) = sum_k A_k sqrt(C(n-1, k)) z^k.

Writing p as a product of linear factors (alpha_k + beta_k z) times an
overall scale gives n-1 unit spinors, each a point on the sphere through
n_hat = spinor^dagger sigma spinor.  Roots w map to spinors along (-w, 1);
missing degrees map to (1, 0), a star at the north pole.  The multiset of
stars plus the complex scale determines the vector exactly.  A matrix u
in SU(2) moves every spinor to u times it; on the amplitudes that is the
Schwinger matrix D^j(u), which su2_apply builds from the Euler angles of
u and the eigenvectors of J_y, and applies without factoring.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TAU_LEAD
from .core import normalize

# a root gap below this times 1 + |t0| + |t1| is rounding noise on a double root
_DOUBLE_ROOT = 4.0 * math.sqrt(np.finfo(float).eps)
_TINY = np.finfo(float).tiny  # smallest normal float
_UP = 2.0 ** 600  # lifts a subnormal modulus into the normal range, exactly
# north- and south-pole spinors (1, 0) and (0, 1) as (2, 1, 1) columns
_NORTH = np.array([1.0, 0.0])[:, None, None]
_SOUTH = np.array([0.0, 1.0])[:, None, None]

SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)


def dim_to_spin(n: int) -> float:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return (n - 1) / 2.0


@dataclass(frozen=True)
class MajoranaRep:
    """Unordered spinor multiset plus a complex scale.

    The spinors have shape ``scale.shape + (n-1, 2)``: (n-1, 2) against
    one complex scale, (B, n-1, 2) against an array of B scales.
    Each spinor must have norm 1 within 1e-12 and is stored divided by
    its norm, so ``stars()`` reads unit spinors without normalizing again.
    The star kernel builds its spinors unit to a few ulp and hands them
    over as they are: they pass the same two checks but are not divided
    again (see ``_kernel_spinors`` and ``_kernel_rep``).  They are then
    the transpose of a component-major (2, n-1, B) buffer, and
    ``stars()`` is the transpose of a (3, n-1, B) one: same shapes and
    values, other strides.
    """

    spinors: np.ndarray
    scale: complex | np.ndarray

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=complex)
        spinors = np.asarray(self.spinors, dtype=complex)
        if not (spinors.ndim == scale.ndim + 2 and spinors.shape[-1] == 2
                and spinors.shape[:scale.ndim] == scale.shape):
            raise ValueError(f"spinors of shape {spinors.shape} do not fit "
                             f"scales of shape {scale.shape}")
        norms = _check_rep(spinors, scale)
        object.__setattr__(self, "spinors", spinors / norms[..., None])
        object.__setattr__(self, "scale", scale if scale.ndim else complex(scale))

    @property
    def dim(self) -> int:
        return self.spinors.shape[-2] + 1

    def stars(self) -> np.ndarray:
        return _unit_spinor_to_star(self.spinors)


def _check_rep(spinors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Norms of the spinors; the scale must be finite and nonzero and
    every norm 1 within 1e-12."""
    _check_scale(scale)
    return _check_norms(_spinor_norms(spinors))


def _check_scale(scale: np.ndarray) -> None:
    # here and in the kernel's tests, np.count_nonzero counts a few entries
    # in a fraction of the time that .all() takes; a complex entry counts
    # when either part is nonzero
    if np.count_nonzero(np.isfinite(scale)) + np.count_nonzero(scale) != 2 * scale.size:
        raise ValueError("scale must be finite and nonzero")


def _check_norms(norms: np.ndarray) -> np.ndarray:
    # NaN fails the comparison; no spinors at all (n = 1) pass
    if np.count_nonzero(np.abs(norms - 1.0) <= 1e-12) != norms.size:
        raise ValueError("spinors must be unit normalized")
    return norms


def _kernel_rep(spinors: np.ndarray, scale: np.ndarray) -> MajoranaRep:
    """MajoranaRep of the star kernel's complex spinors and scales.

    The shapes are already right and the spinors unit to a few ulp, so
    the constructor's conversion and division are skipped.  The spinor
    stage has run the unit-norm check; the scale check stays, as the
    lead product can underflow to a non-finite scale.
    """
    _check_scale(scale)
    rep = object.__new__(MajoranaRep)
    object.__setattr__(rep, "spinors", spinors)
    object.__setattr__(rep, "scale", scale if scale.ndim else complex(scale))
    return rep


def _spinor_norms(xi: np.ndarray) -> np.ndarray:
    # bit-identical to np.hypot.reduce(np.abs(xi), axis=-1), and faster
    mod = np.abs(xi)
    return np.hypot(mod[..., 0], mod[..., 1])


def as_spinor(xi) -> np.ndarray:
    """Unit spinor, or unit rows of a (..., 2) array of spinors."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape[-1:] != (2,):
        raise ValueError(f"spinors must have shape (..., 2), got {xi.shape}")
    n = _spinor_norms(xi)[..., None]
    # complex division by a subnormal norm gives inf and NaN; NaN fails too
    if not (_TINY <= n.min(initial=1.0) and n.max(initial=1.0) < math.inf):
        raise ValueError("spinor must be finite and nonzero")
    return xi / n


def spinor_to_star(xi) -> np.ndarray:
    """Star n_hat = xi^dagger sigma xi of each spinor; shape (..., 3)."""
    return _unit_spinor_to_star(as_spinor(xi))


def _unit_spinor_to_star(xi: np.ndarray) -> np.ndarray:
    """Stars of unit spinors, component-major: the (..., 3) result is the
    transpose of a (3, ...) buffer whose axes run in the reverse order of
    xi's, so the star kernel's transposed spinors are read and the three
    coordinates written along contiguous rows."""
    a, b = xi[..., 0].T, xi[..., 1].T
    ab = np.conjugate(a) * b
    star = np.empty((3,) + ab.shape)
    star[0], star[1] = 2.0 * ab.real, 2.0 * ab.imag
    star[2] = np.abs(a) ** 2 - np.abs(b) ** 2
    return star.T


def _check_unit_vectors(nhat, ndim: int) -> np.ndarray:
    """nhat as floats: one star (3,) if ndim is 1, a set (m, 3) if it is 2;
    each row a finite unit vector."""
    nhat = np.asarray(nhat, dtype=float)
    if nhat.ndim != ndim or nhat.shape[-1:] != (3,):
        raise ValueError(f"stars must have shape {('(3,)', '(m, 3)')[ndim - 1]},"
                         f" got {nhat.shape}")
    # hypot does not overflow; NaN fails the comparison
    if not (abs(np.hypot.reduce(nhat, axis=-1) - 1.0) <= 1e-12).all():
        raise ValueError("star must be a finite unit vector")
    return nhat


def star_to_spinor(nhat) -> np.ndarray:
    """Inverse of spinor_to_star with the phase fixed: alpha real >= 0."""
    nhat = _check_unit_vectors(nhat, 1)
    a = math.sqrt(max(0.0, (1.0 + nhat[2]) / 2.0))
    if a < 1e-14:
        return np.array([0.0, 1.0], dtype=complex)
    b = (nhat[0] + 1j * nhat[1]) / (2.0 * a)
    return np.array([a, b], dtype=complex)


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float weights sqrt(C(n-1, k)) and sqrt(k! (n-1-k)!).

    The first turns amplitudes into star-polynomial coefficients; the
    second turns the expanded spinor product back into amplitudes, and its
    entry k = 0, sqrt((n-1)!), is the Schwinger normalization of the scale.
    """
    if n > 171:  # (n-1)! passes the float range
        raise ValueError(f"dimension {n} exceeds 171: sqrt((n-1)!) overflows a float")
    # as floats: C(n-1, k) passes the int64 range from n = 69
    binomial = np.sqrt(np.array([math.comb(n - 1, k) for k in range(n)], dtype=float))
    factorial = np.array([math.sqrt(math.factorial(k) * math.factorial(n - 1 - k))
                          for k in range(n)])
    binomial.flags.writeable = factorial.flags.writeable = False
    return binomial, factorial


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column b of desc (one row per power, highest first) at the points x[:, b].

    desc has more than one row: the first step of np.polyval,
    0 * x + desc[0], is desc[0] up to the sign of zero, so it is skipped.
    """
    y = desc[0]
    for c in desc[1:]:
        y = y * x + c  # as np.polyval
    return y


def _polish_roots(desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One guarded Newton step per root (column b of desc at the points roots[:, b]).

    Companion-matrix roots are backward stable but can lose a few digits
    on clusters.  A step is taken only when it is small and reduces |p|,
    which leaves multiple roots untouched instead of scattering them.
    p and p' share one Horner pass over the stacked coefficient rows: p'
    has a row fewer, so p takes its last step alone, and neither half
    starts from the 0 * x of np.polyval.  A pass that overflows gives a
    non-finite step, which fails the size test, so it goes unreported.
    """
    d = desc.shape[0] - 1
    # both[k] holds coefficient k of p and of p', filled in place: np.stack
    # costs more in its Python layers than the shared pass saves on one state
    both = np.empty((d, 2) + desc.shape[1:], dtype=complex)
    both[:, 0] = desc[:-1]
    np.multiply(desc[:-1], np.arange(d, 0, -1)[:, None], out=both[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        y = both[0, :, None]
        for c in both[1:, :, None]:
            y = y * roots + c
        p, dp = y[0] * roots + desc[-1], y[1]
        step = np.divide(-p, dp, out=np.zeros_like(roots), where=dp != 0)
        small = np.abs(step) <= 1e-6 * (1.0 + np.abs(roots))
        candidate = roots + np.where(small, step, 0.0)
        better = np.abs(_horner(desc, candidate)) <= np.abs(p)
    return np.where(small & better, candidate, roots)


def _quadratic_roots(t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Both roots of z^2 = t0 z + t1 for each pair (t0, t1), larger first,
    as the two rows of one (2, ...) array.

    The square root of the discriminant takes the sign that adds to t0
    without cancellation, so q = (t0 + disc) / 2 is the root of larger
    modulus and -t1 / q, from the product of the roots, the other.  The
    discriminant is formed after scaling by a power of two, which is
    exact, so t0^2 cannot overflow.  Its square root is the root gap
    w1 - w2.  Coefficients rounded by eps (1 + |t0| + |t1|), the backward
    error of the monic polynomial, can open a double root into a gap of
    4 sqrt(eps) (1 + |t0| + |t1|); a gap within that is set to 0 and both
    roots are t0 / 2 exactly, the roots of the nearest double-root
    polynomial.  The cut's moduli |u0| and |u1| / r are taken as
    |t0| r and |t1| r, from the moduli the scaling reads.  The two forms
    differ only where a part of t0, t1, u0 or u1 is subnormal; there the
    cut is set by r or the gap lies near 1, far from the cut, so no root
    changes a bit.
    """
    m0, m1 = np.abs(t0), np.abs(t1)
    size = np.frexp(np.maximum(m0, np.sqrt(m1)))[1]
    r = np.ldexp(1.0, -np.maximum(size, -1020))  # 1 / r stays finite
    u0, u1 = t0 * r, t1 * r * r
    square = u0 * u0 + 4.0 * u1
    disc = np.sqrt(square)
    np.negative(disc, out=disc, where=(np.conjugate(u0) * disc).real < 0)
    # r (1 + |t0| + |t1|) in the scaled variables; it cannot overflow
    single = np.abs(disc) > _DOUBLE_ROOT * (r + m0 * r + m1 * r)
    disc *= single
    pair = np.empty((2,) + t0.shape, dtype=complex)
    pair[:] = 0.5 * (t0 + disc / r)  # q, the larger root, in both rows
    np.divide(-t1, pair[0], out=pair[1], where=single)
    return pair


def _check_states(psi) -> np.ndarray:
    """psi as a complex state or (B, n) batch; nonempty and finite."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.size == 0:
        raise ValueError("expected a nonempty state or a (B, n) batch of states")
    if np.count_nonzero(np.isfinite(psi)) != psi.size:
        raise ValueError("non-finite amplitude")
    return psi


def coefficients_to_roots(psi) -> MajoranaRep:
    """Factor a state, or each row of a (B, n) batch, into n-1 spinors and a scale.

    Coefficients whose amplitude is below ``TAU_LEAD`` times the largest
    amplitude are treated as zero when fixing the effective degree, and
    each missing degree contributes a north-pole spinor (1, 0), listed
    first.  Rows with equal degree and equal count m of nonzero roots (the
    others are exact zeros) form one group.  When every row has full
    degree and no root at 0, as for most batches, the batch is one group;
    otherwise each row gets the integer key degree * n + zeros, and only
    when the keys differ are the groups listed, in ascending key order,
    from the first differences of the sorted keys.  For m = 1 the root is
    the entry of the 1x1 companion matrix; for m = 2 both come in closed
    form, larger first, and a double root comes out exact (see
    _quadratic_roots).  For m >= 3 the group shares one eigvals call on
    companion matrices built as np.roots builds them, and one guarded
    Newton step polishes those roots.  A root w becomes the unit spinor
    along (-w, 1) whose first entry is real and nonnegative, the phase
    star_to_spinor fixes; a root at 0 gives (0, 1).
    """
    return _factor(_check_states(psi))


def _factor(psi: np.ndarray) -> MajoranaRep:
    """coefficients_to_roots of a complex state or (B, n) batch already checked.

    The rep stage of the star kernel: the spinor stage (_kernel_spinors)
    fills the spinors, and this takes each row's lead, the top
    coefficient of prod(alpha + beta z), as the product of its root
    spinors' betas.  beta.prod(axis=-1) over a short contiguous axis runs
    NumPy's multiply reduce loop, which can round differently from the
    elementwise b0 * b1 (whose loop may fuse a multiply-add), and
    np.multiply.reduce(beta, axis=0) takes that reduce loop only on an
    (m, 1) array.  A lead product along axis 0 would make a single state
    differ from its row in a batch, so the lead is taken in row order,
    from a contiguous (B, m) copy; when one group holds every row, as on
    the fast path, that product is the lead, with no array of ones to
    fill.  The highest surviving coefficient over sqrt((n-1)!) times the
    lead is the scale, which must be finite and nonzero.  The spinors are
    handed out as the (B, n-1, 2) transpose of the stage's buffer.  The
    stage has refused zero rows (off its fast path, which a zero row
    always fails) and checked the norms, reading |alpha| as Re alpha.
    """
    batch = psi.reshape(-1, psi.shape[-1])
    count, n = batch.shape
    spinors, groups, top = _kernel_spinors(batch)
    betas = spinors[1].T  # (B, n-1)
    (d, z, _), *others = groups
    if not others and d > z:  # one group of every row: no gather
        lead = np.ascontiguousarray(betas[:, n - 1 - d:n - 1 - z]).prod(axis=-1)
    else:
        lead = np.ones(count, dtype=complex)
        for d, z, rows in groups:
            if d > z:
                lead[rows] = np.ascontiguousarray(betas[rows, n - 1 - d:n - 1 - z]).prod(axis=-1)
    scale = top / (_weights(n)[1][0] * lead)
    return _kernel_rep(spinors.T.reshape(psi.shape[:-1] + (n - 1, 2)),
                       scale.reshape(psi.shape[:-1]))


def _kernel_spinors(batch: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """Spinor stage of the star kernel on a checked (B, n) batch.

    Returns the (2, n-1, B) spinor buffer, checked unit within 1e-12,
    the row groups (degree, zeros, rows) and each row's highest surviving
    coefficient.  The stage works component-major: row k of an (n, B)
    array holds coefficient k of every state, so each per-state reduction
    (peak, degree, zero count) runs over contiguous rows of length B
    rather than along a short inner axis.  Elementwise complex *, / and
    sqrt round the same on contiguous, strided and one-element arrays,
    which keeps every bit as in a row-major kernel; the exceptions are
    the lead product (see _factor) and decompose.bi_factorization's
    product over the transposed spinors, which is given a contiguous
    copy.  The norms are taken over the buffer's contiguous rows and
    decide as the constructor's check does.  Every alpha the stage writes
    is real and nonnegative (|w| / h for a root w, 1 at the north pole,
    0 at the south pole), so its real part is |alpha| exactly and only
    the betas take an abs.  The fast path holds batches of full degree
    with no root at 0; a zero row fails it, since its top amplitude is
    not above the cut 0, so the zero test runs off the fast path only,
    before any other test there.
    """
    count, n = batch.shape
    amps = np.ascontiguousarray(batch.T)
    coeffs = amps * _weights(n)[0][:, None]
    # the cut reads amplitudes, where rounding noise lives (weights pass 1e8 at n = 58)
    mags = np.abs(amps)
    peak = mags.max(axis=0)
    cut = TAU_LEAD * peak
    spinors = np.empty((2, n - 1, count), dtype=complex)
    # full degree and no root at 0
    if np.count_nonzero(mags[-1] > cut) + np.count_nonzero(mags[0]) == 2 * count:
        groups = [(n - 1, 0, slice(None))]
        top = coeffs[-1]
    else:
        if np.count_nonzero(peak) != count:
            raise ValueError("zero vector has no star decomposition")
        rank = np.arange(n)[:, None]
        degree = np.where(mags > cut, rank, 0).max(axis=0)
        zeros = np.where(mags != 0, rank, n).min(axis=0)
        key = degree * n + zeros  # one integer per (degree, zeros) group
        single = count == 1 or (key == key[0]).all()
        if single:
            kinds = key[:1]
        else:  # np.unique's list, without the numpy.ma import of its first call
            kinds = np.sort(key)
            kinds = kinds[np.concatenate(([True], kinds[1:] != kinds[:-1]))]
        groups = [(*divmod(int(k), n), slice(None) if single else np.flatnonzero(key == k))
                  for k in kinds]
        top = coeffs[degree, np.arange(count)]
    for d, z, rows in groups:
        # each missing degree is a star at the north pole, each root at 0
        # one at the south pole
        if d < n - 1:
            spinors[:, :n - 1 - d, rows] = _NORTH
        if z:
            spinors[:, n - 1 - z:, rows] = _SOUTH
        desc, m = coeffs[d::-1, rows], d - z
        if m == 0:
            continue
        first = -desc[1:m + 1] / desc[0]  # first row of the companion matrix
        if m == 1:  # the eigenvalue of a 1x1 companion matrix is its entry
            roots = first
        elif m == 2:
            roots = _quadratic_roots(first[0], first[1])
        else:
            companion = np.zeros((desc.shape[1], m, m), dtype=complex)
            companion[:, 0, :] = first.T
            companion.reshape(-1, m * m)[:, m::m + 1] = 1.0  # ones below the diagonal
            roots = _polish_roots(desc, np.linalg.eigvals(companion).T)
        mod = np.abs(roots)
        if np.count_nonzero(mod < math.inf) != mod.size:  # NaN fails too
            raise ValueError("root finding failed")
        # (-w, 1) normalized with alpha real: alpha = |w| / h and
        # beta = -conj(w) / (|w| h), where h = hypot(|w|, 1)
        h = np.hypot(mod, 1.0)
        spinors[0, n - 1 - d:n - 1 - z][:, rows] = mod / h
        if np.count_nonzero(mod < _TINY):
            # complex / subnormal real forms 1 / |w|, which overflows, so
            # such a root is first scaled by a power of two; a root that
            # underflowed to 0 gives beta = 1
            roots[mod < _TINY] *= _UP
            mod = np.abs(roots)
            b = np.divide(np.conjugate(roots), -mod, out=np.ones_like(roots),
                          where=mod > 0)
        else:
            b = np.conjugate(roots) / -mod
        b /= h
        spinors[1, n - 1 - d:n - 1 - z][:, rows] = b
    _check_norms(np.hypot(spinors[0].real, np.abs(spinors[1])))
    return spinors, groups, top


def _expand(spinors: np.ndarray) -> np.ndarray:
    """Coefficients of prod_k (alpha_k + beta_k z), power-major.

    Row j of the result holds power j (lowest first) of every product,
    the batch axes following in reverse order: the result is the
    transpose of the (..., count+1) coefficient array.  The product runs
    on spinors.T, for the star kernel's spinors its contiguous
    (2, n-1, B) buffer, and factor k updates the rows it reaches,
    poly[:k+2], in place over contiguous rows of length B.  Each entry
    sees the same multiplies and adds in the same order as in a row-major
    loop, so the values are the same; only a power no factor has reached
    yet stays +0 instead of taking the sign of zero arithmetic, which can
    show in the sign of an exactly zero amplitude of hand-built spinors.
    """
    sp = spinors.T  # (2, count, ...): the batch axes reversed
    count = sp.shape[1]
    poly = np.zeros((count + 1,) + sp.shape[2:], dtype=complex)
    poly[:2] = sp[:, 0] if count else 1.0
    for k in range(1, count):
        shifted = poly[:k + 1] * sp[1, k]
        poly[:k + 1] *= sp[0, k]
        poly[1:k + 2] += shifted
    return poly


def roots_to_coefficients(rep: MajoranaRep) -> np.ndarray:
    """Expand a spinor multiset times scale (or a batch of them) into amplitudes.

    The scale multiplies the power-major expansion, and the weights are
    applied in the pass that writes the row-major amplitudes.  The scale
    stays the left operand: NumPy's complex multiply may fuse a
    multiply-add, and then b * a can round differently from a * b.
    """
    amps = np.asarray(rep.scale).T * _expand(rep.spinors)
    return np.multiply(amps.T, _weights(rep.dim)[1], order="C")


def pure_product_state(xi, n: int) -> np.ndarray:
    """Unit state with all n-1 stars at the star of xi."""
    a, b = as_spinor(xi)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _pure_product(a, b, n)


def _pure_product(a: complex, b: complex, n: int) -> np.ndarray:
    """pure_product_state of the unit spinor (a, b), already checked."""
    k = np.arange(n)
    return _weights(n)[0] * a ** (n - 1 - k) * b ** k


def permanent(matrix) -> complex:
    """Permanent of a small dense complex matrix by Ryser's formula."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    m = a.shape[0]
    if m == 0:
        return 1.0 + 0.0j
    if m > 12:
        raise ValueError("permanent limited to matrices of size 12")
    subsets = np.arange(1, 2 ** m, dtype=np.uint32)
    masks = (subsets[:, None] >> np.arange(m)) & 1  # (2^m - 1, m)
    rowsums = a @ masks.T.astype(complex)  # (m, 2^m - 1)
    prods = rowsums.prod(axis=0)
    signs = np.where((m - masks.sum(axis=1)) % 2 == 0, 1.0, -1.0)
    return complex(np.sum(signs * prods))


def overlap_general(rep_prime: MajoranaRep, rep: MajoranaRep) -> complex:
    """Inner product of two star decompositions of equal dimension.

    Equals conj(scale') * scale times the permanent of the spinor overlap
    matrix, which matches the coefficient-space inner product of the
    expanded vectors.
    """
    if rep_prime.dim != rep.dim:
        raise ValueError("dimension mismatch")
    gram = np.conjugate(rep_prime.spinors) @ rep.spinors.T
    return complex(np.conjugate(rep_prime.scale) * rep.scale * permanent(gram))


def _check_su2(u) -> tuple[np.ndarray, complex, complex]:
    """u as a complex 2x2 array and its entries u00, u10, after SU(2) tests.

    In order: shape, finite entries, unitarity (u^dagger u - 1, summed as
    conj(x) y; its (1, 0) entry is the exact conjugate of its (0, 1) entry)
    and determinant 1 (ad - bc), each deviation at most 1e-10.  The tests
    run on Python complex numbers, in a fraction of the time of array
    arithmetic on a 2x2 matrix.  Huge finite entries overflow
    |a|^2 + |c|^2 to inf, which fails.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    (a, b), (c, d) = u.tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b)
            and cmath.isfinite(c) and cmath.isfinite(d)):
        raise ValueError("matrix must be finite")
    ac, cc = a.conjugate(), c.conjugate()
    if not _all_within(ac * a + cc * c - 1.0, ac * b + cc * d,
                       b.conjugate() * b + d.conjugate() * d - 1.0):
        raise ValueError("matrix is not unitary")
    if not _all_within(a * d - b * c - 1.0):
        raise ValueError("matrix must have determinant 1")
    return u, a, c


def _all_within(*deviations: complex) -> bool:
    """Whether every complex deviation has modulus at most 1e-10.

    abs rounds as NumPy's abs does (both are the C hypot); where finite
    parts give an infinite modulus, it raises OverflowError, a failure.
    """
    try:
        for x in deviations:
            if not abs(x) <= 1e-10:  # NaN fails too
                return False
    except OverflowError:
        return False
    return True


def su2_rotation(u) -> np.ndarray:
    """3x3 rotation induced on stars by u in SU(2).

    R_ij = Re tr(sigma_i u sigma_j u^dagger) / 2.
    """
    u = _check_su2(u)[0]
    return 0.5 * np.einsum("iab,bc,jcd,ad->ij", SIGMA, u, SIGMA, u.conj()).real


@lru_cache(maxsize=None)
def _jy_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only V and conj(V), and the exponents 2 m_k = n-1-2k as complex
    numbers (complex factors multiply them without a cast).

    Column k of V is a unit eigenvector of J_y paired with its exact
    eigenvalue m_k = j - k, the weight of basis state k: eigh lists the
    eigenvalues ascending, one apart, so its columns are reversed.
    """
    vectors = np.linalg.eigh(spin_matrices(n)[1])[1][:, ::-1]
    basis = np.stack([vectors, vectors.conj()])
    exponents = np.arange(n - 1, -n, -2.0).astype(complex)
    basis.flags.writeable = exponents.flags.writeable = False
    return basis, exponents


def _wigner_transpose(u: np.ndarray, a: complex, c: complex, n: int) -> np.ndarray:
    """Transpose of D^j(u) on dimension-n amplitudes; a = u00 and c = u10.

    u = diag(A, conj(A)) exp(-i beta sigma_y / 2) diag(G, conj(G)), with
    beta = 2 atan2(|c|, |a|), A^2 = e^(i(arg a - arg c)) and
    G^2 = e^(i(arg a + arg c)).  With V the cached J_y basis, m its
    weights and h = e^(-i beta m / 2), D^j(u) is S0 S1^T, where
    S0 = diag(A^(2m)) V diag(h) and S1 = diag(G^(2m)) conj(V) diag(h).
    For n >= 3 only u's first column enters; a = 0 needs no branch, as
    cmath.phase(0) is 0.  Exact cases: n = 2 gives u, and c = 0 the
    diagonal powers of a / |a|, so the identity gives the identity.
    """
    if n == 2:
        return u.T
    basis, exponents = _jy_basis(n)
    if c == 0:
        return np.diag((a / abs(a)) ** exponents)
    p, q = cmath.phase(a), cmath.phase(c)
    beta = 2.0 * math.atan2(abs(c), abs(a))
    coef = np.array([0.5j * (p - q), 0.5j * (p + q), -0.25j * beta])
    phases = np.exp(coef[:, None] * exponents)  # A^(2m), G^(2m) and h
    factors = basis * (phases[:2, :, None] * phases[2])
    return factors[1] @ factors[0].T


def su2_apply(u, psi) -> np.ndarray:
    """Apply D^j(u), the spin-j matrix of u in SU(2), to a state or a batch.

    D^j(u) is the Schwinger two-oscillator action: a state is a polynomial
    in the two oscillators, and u moves each oscillator to its image.  It
    is built from the Euler angles of u and the cached eigenbasis of J_y
    (see _wigner_transpose), unitary to rounding at every n.  One matrix
    product applies it, so the map is exactly linear and the identity
    returns psi unchanged.  The stars of the result are the stars of psi
    rotated by su2_rotation(u).
    """
    u, a, c = _check_su2(u)
    psi = _check_states(psi)
    return psi @ _wigner_transpose(u, a, c, psi.shape[-1])


def random_su2(seed=None) -> np.ndarray:
    from .core import random_unitary

    u = random_unitary(2, seed)
    return u / np.sqrt(np.linalg.det(u))


def spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (J1, J2, J3) in the fixed M-descending basis."""
    j = dim_to_spin(n)
    k = np.arange(n)  # sqrt((j-m)(j+m+1)) at m = j-k lies in column k of J+
    jp = np.diag(np.sqrt(k[1:] * (n - k[1:])), 1).astype(complex)
    j3 = np.diag(j - k).astype(complex)
    j1 = (jp + jp.conj().T) / 2.0
    j2 = (jp - jp.conj().T) / 2.0j
    return j1, j2, j3


def weight_residual(psi, nhat) -> float:
    """Norm of (n_hat . J) psi - J psi for a unit state psi and unit n_hat.

    It vanishes exactly when psi is the highest weight along n_hat, that
    is, the pure product whose stars all sit at n_hat.
    """
    psi = normalize(psi)
    nhat = _check_unit_vectors(nhat, 1)
    n = psi.size
    j1, j2, j3 = spin_matrices(n)
    h = nhat[0] * j1 + nhat[1] * j2 + nhat[2] * j3
    return float(np.linalg.norm(h @ psi - dim_to_spin(n) * psi))


def _min_sum_assignment(cost: np.ndarray) -> np.ndarray:
    """Column paired with each row under the least total of a square cost.

    Hungarian method by shortest augmenting paths with row and column
    potentials, O(m^3).  Row and column 0 of the padded arrays are a
    virtual pair that holds the row being inserted.
    """
    m = cost.shape[0]
    cost = np.pad(cost, ((1, 0), (1, 0)))
    u, v = np.zeros(m + 1), np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=int)  # row on each column, 0 if free
    way = np.zeros(m + 1, dtype=int)
    for i in range(1, m + 1):
        row_of[0], col = i, 0
        dist = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[col]:
            used[col] = True
            r = row_of[col]
            reduced = cost[r] - u[r] - v
            closer = reduced < dist
            closer[used] = False
            dist[closer] = reduced[closer]
            way[closer] = col
            masked = np.where(used, np.inf, dist)
            col = int(masked.argmin())
            delta = masked[col]
            u[row_of[used]] += delta
            v[used] -= delta
            dist -= delta
        while col:  # flip the augmenting path back to the virtual column
            row_of[col] = row_of[way[col]]
            col = way[col]
    cols = np.empty(m, dtype=int)
    cols[row_of[1:] - 1] = np.arange(m)
    return cols


def star_matching_distance(stars_a, stars_b) -> float:
    """Largest chordal distance under the min-sum pairing of two star sets."""
    a = _check_unit_vectors(stars_a, 2)
    b = _check_unit_vectors(stars_b, 2)
    if a.shape != b.shape:
        raise ValueError("star sets must have equal size")
    if a.shape[0] == 0:
        return 0.0
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(cost[np.arange(a.shape[0]), _min_sum_assignment(cost)].max())
