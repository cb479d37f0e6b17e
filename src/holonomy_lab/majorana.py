"""Star decomposition of spin states and the two-oscillator basis.

A dimension-n vector with amplitudes A_k (k = 0 at the highest weight)
defines the polynomial

    p(z) = sum_k A_k sqrt(C(n-1, k)) z^k.

Writing p as a product of linear factors (alpha_k + beta_k z) times an
overall scale gives n-1 unit spinors, each a point on the sphere through
n_hat = spinor^dagger sigma spinor.  Roots w map to spinors along (-w, 1);
missing degrees map to (1, 0), a star at the north pole.  The multiset of
stars plus the complex scale determines the vector exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TAU_LEAD
from .core import normalize

_DOUBLE_ROOT = 16.0 * np.finfo(float).eps  # relative discriminant of a double root

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

    One decomposition has spinors of shape (n-1, 2) and a complex scale; a
    batch of B has spinors of shape (B, n-1, 2) and an array of B scales.
    Each spinor must have norm 1 within 1e-12 and is stored divided by
    its norm, so ``stars()`` reads unit spinors without normalizing again.
    """

    spinors: np.ndarray
    scale: complex | np.ndarray

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=complex)
        spinors = np.asarray(self.spinors, dtype=complex).reshape(
            scale.shape + (-1, 2))
        object.__setattr__(self, "spinors", spinors)
        object.__setattr__(self, "scale", scale if scale.ndim else complex(scale))
        if not (np.isfinite(scale).all() and scale.all()):
            raise ValueError("scale must be finite and nonzero")
        norms = _spinor_norms(spinors)
        if not (np.abs(norms - 1.0) <= 1e-12).all():
            raise ValueError("spinors must be unit normalized")
        object.__setattr__(self, "spinors", spinors / norms[..., None])

    @property
    def dim(self) -> int:
        return self.spinors.shape[-2] + 1

    def stars(self) -> np.ndarray:
        return _unit_spinor_to_star(self.spinors)


def _spinor_norms(xi: np.ndarray) -> np.ndarray:
    # bit-identical to np.hypot.reduce(np.abs(xi), axis=-1), and faster
    mod = np.abs(xi)
    return np.hypot(mod[..., 0], mod[..., 1])


def as_spinor(xi) -> np.ndarray:
    """Unit spinor, or unit rows of a (..., 2) array of spinors."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape[-1:] != (2,):
        xi = xi.reshape(2)
    n = _spinor_norms(xi)[..., None]
    if not (0.0 < n.min(initial=1.0) and n.max(initial=1.0) < math.inf):  # NaN fails too
        raise ValueError("spinor must be finite and nonzero")
    return xi / n


def spinor_to_star(xi) -> np.ndarray:
    """Star n_hat = xi^dagger sigma xi of each spinor; shape (..., 3)."""
    return _unit_spinor_to_star(as_spinor(xi))


def _unit_spinor_to_star(xi: np.ndarray) -> np.ndarray:
    a, b = xi[..., 0], xi[..., 1]
    ab = np.conjugate(a) * b
    star = np.empty(ab.shape + (3,))
    star[..., 0], star[..., 1] = 2.0 * ab.real, 2.0 * ab.imag
    star[..., 2] = np.abs(a) ** 2 - np.abs(b) ** 2
    return star


def _check_unit_vectors(nhat, shape) -> np.ndarray:
    """nhat as floats of the given (..., 3) shape; each row a finite unit vector."""
    nhat = np.asarray(nhat, dtype=float).reshape(shape)
    # hypot does not overflow; NaN fails the comparison
    if not (abs(np.hypot.reduce(nhat, axis=-1) - 1.0) <= 1e-12).all():
        raise ValueError("star must be a finite unit vector")
    return nhat


def star_to_spinor(nhat) -> np.ndarray:
    """Inverse of spinor_to_star with the phase fixed: alpha real >= 0."""
    nhat = _check_unit_vectors(nhat, 3)
    a = math.sqrt(max(0.0, (1.0 + nhat[2]) / 2.0))
    if a < 1e-14:
        return np.array([0.0, 1.0], dtype=complex)
    b = (nhat[0] + 1j * nhat[1]) / (2.0 * a)
    return np.array([a, b], dtype=complex)


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights sqrt(C(n-1, k)) and sqrt(k! (n-1-k)!).

    The first turns amplitudes into star-polynomial coefficients; the
    second turns the expanded spinor product back into amplitudes.
    """
    binomial = np.sqrt([math.comb(n - 1, k) for k in range(n)])
    factorial = np.array([math.sqrt(math.factorial(k) * math.factorial(n - 1 - k))
                          for k in range(n)])
    binomial.flags.writeable = factorial.flags.writeable = False
    return binomial, factorial


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row r of desc (highest power first) evaluated at the points x[r].

    desc has more than one column, or x has one: the first step of
    np.polyval, 0 * x + desc[:, 0], is desc[:, 0] up to the sign of zero,
    so it is skipped.
    """
    y = desc[:, :1]
    for c in desc.T[1:, :, None]:
        y = y * x + c  # as np.polyval; in-place products may round differently
    return y


def _polish_roots(desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One guarded Newton step per root (row r of desc at the points roots[r]).

    Companion-matrix roots are backward stable but can lose a few digits
    on clusters.  A step is taken only when it is small and reduces |p|,
    which leaves multiple roots untouched instead of scattering them.
    """
    deriv = desc[:, :-1] * np.arange(desc.shape[1] - 1, 0, -1)
    p = _horner(desc, roots)
    dp = _horner(deriv, roots)
    step = np.divide(-p, dp, out=np.zeros_like(roots), where=dp != 0)
    small = np.abs(step) <= 1e-6 * (1.0 + np.abs(roots))
    candidate = roots + np.where(small, step, 0.0)
    better = np.abs(_horner(desc, candidate)) <= np.abs(p)
    return np.where(small & better, candidate, roots)


def _quadratic_roots(t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both roots of z^2 = t0 z + t1 for each pair (t0, t1), larger first.

    The square root of the discriminant takes the sign that adds to t0
    without cancellation, so q = (t0 + disc) / 2 is the root of larger
    modulus and -t1 / q, from the product of the roots, the other.  A
    discriminant within 16 eps of |t0|^2 + 4 |t1| is rounding noise on a
    double root: it is set to 0, and both roots are t0 / 2 exactly.  The
    discriminant is formed after scaling by a power of two, which is
    exact, so t0^2 cannot overflow.
    """
    size = np.frexp(np.maximum(np.abs(t0), np.sqrt(np.abs(t1))))[1]
    r = np.ldexp(1.0, -np.maximum(size, -1020))  # 1 / r stays finite
    u0, u1 = t0 * r, t1 * r * r
    square = u0 * u0 + 4.0 * u1
    disc = np.sqrt(square)
    np.negative(disc, out=disc, where=(np.conjugate(u0) * disc).real < 0)
    single = np.abs(square) > _DOUBLE_ROOT * (np.abs(u0) ** 2 + 4.0 * np.abs(u1))
    disc *= single
    q = 0.5 * (t0 + disc / r)
    return q, np.divide(-t1, q, out=q.copy(), where=single)


def coefficients_to_roots(psi, tau_lead: float = TAU_LEAD) -> MajoranaRep:
    """Factor a state, or each row of a (B, n) batch, into n-1 spinors and a scale.

    Coefficients below ``tau_lead`` times the largest one are treated as
    zero when fixing the effective degree, and each missing degree
    contributes a north-pole spinor (1, 0), listed first.  Rows with equal
    degree and equal count m of nonzero roots (the others are exact zeros)
    form one group.  Each row gets the integer key degree * n + zeros;
    when every key equals the first, as for a single state, the batch is
    one group, and only otherwise does np.unique list the groups.  For
    m = 1 the root is the entry of the 1x1 companion matrix; for m = 2
    both come in closed form, larger first, and a double root comes out
    exact (see _quadratic_roots).  For m >= 3 the group shares one
    eigvals call on companion matrices built as np.roots builds them, and
    one guarded Newton step polishes those roots.  A root w becomes the
    unit spinor along (-w, 1) whose first entry is real and nonnegative,
    the phase star_to_spinor fixes; a root at 0 gives (0, 1).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.size == 0:
        raise ValueError("expected a nonempty state or a (B, n) batch of states")
    if not np.isfinite(psi).all():
        raise ValueError("non-finite amplitude")
    batch = psi.reshape(-1, psi.shape[-1])
    count, n = batch.shape
    coeffs = batch * _weights(n)[0]
    mags = np.abs(coeffs)
    peak = mags.max(axis=1)
    if not peak.all():
        raise ValueError("zero vector has no star decomposition")
    degree = n - 1 - (mags[:, ::-1] > tau_lead * peak[:, None]).argmax(axis=1)
    zeros = (coeffs != 0).argmax(axis=1)
    spinors = np.zeros((count, n - 1, 2), dtype=complex)
    spinors[..., 0] = 1.0
    lead = np.ones(count, dtype=complex)  # top coefficient of prod(alpha + beta z)
    key = degree * n + zeros  # one integer per (degree, zeros) group
    single = count == 1 or (key == key[0]).all()
    for k in key[:1] if single else np.unique(key):
        d, z = divmod(int(k), n)
        if d == 0:
            continue
        rows = slice(None) if single else np.flatnonzero(key == k)
        desc, m = coeffs[rows, d::-1], d - z
        roots = np.zeros((desc.shape[0], d), dtype=complex)
        top = -desc[:, 1:m + 1] / desc[:, :1]  # first row of the companion matrix
        if m == 1:  # the eigenvalue of a 1x1 companion matrix is its entry
            roots[:, :1] = top
        elif m == 2:
            roots[:, 0], roots[:, 1] = _quadratic_roots(top[:, 0], top[:, 1])
        elif m > 2:
            companion = np.zeros((desc.shape[0], m, m), dtype=complex)
            companion[:, 0, :] = top
            companion.reshape(-1, m * m)[:, m::m + 1] = 1.0  # ones below the diagonal
            roots[:, :m] = _polish_roots(desc, np.linalg.eigvals(companion))
        if not np.isfinite(roots).all():
            raise ValueError("root finding failed")
        # (-w, 1) normalized with alpha real: alpha = |w| / h and
        # beta = -conj(w) / (|w| h), where h = hypot(|w|, 1)
        mod = np.abs(roots)
        h = np.hypot(mod, 1.0)
        pairs = np.empty(roots.shape + (2,), dtype=complex)
        pairs[..., 0] = mod / h
        beta = np.divide(np.conjugate(roots), -mod, out=np.ones_like(roots),
                         where=mod > 0)
        pairs[..., 1] = beta / h
        spinors[rows, n - 1 - d:] = pairs
        lead[rows] = pairs[..., 1].prod(axis=-1)
    # the highest surviving coefficient fixes the scale
    scale = coeffs[np.arange(count), degree] / (math.sqrt(math.factorial(n - 1)) * lead)
    return MajoranaRep(spinors.reshape(psi.shape[:-1] + (n - 1, 2)),
                       scale.reshape(psi.shape[:-1]))


def _expand(spinors: np.ndarray) -> np.ndarray:
    """Coefficients of prod_k (alpha_k + beta_k z), lowest power first."""
    count = spinors.shape[-2]
    poly = np.zeros(spinors.shape[:-2] + (count + 1,), dtype=complex)
    poly[..., :2] = spinors[..., 0, :] if count else 1.0
    for k in range(1, count):
        shifted = poly[..., :-1] * spinors[..., k, 1, None]
        poly *= spinors[..., k, 0, None]
        poly[..., 1:] += shifted
    return poly


def roots_to_coefficients(rep: MajoranaRep) -> np.ndarray:
    """Expand a spinor multiset times scale (or a batch of them) into amplitudes."""
    scale = np.asarray(rep.scale)[..., None]
    return scale * _expand(rep.spinors) * _weights(rep.dim)[1]


def pure_product_state(xi, n: int) -> np.ndarray:
    """Unit state with all n-1 stars at the star of xi."""
    a, b = as_spinor(xi)
    if n < 1:
        raise ValueError("dimension must be at least 1")
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


def _check_su2(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.isfinite(u).all():
        raise ValueError("matrix must be finite")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(u) - 1.0) > 1e-10:
        raise ValueError("matrix must have determinant 1")
    return u


def su2_rotation(u) -> np.ndarray:
    """3x3 rotation induced on stars by u in SU(2).

    R_ij = Re tr(sigma_i u sigma_j u^dagger) / 2.
    """
    u = _check_su2(u)
    return 0.5 * np.einsum("iab,bc,jcd,ad->ij", SIGMA, u, SIGMA, u.conj()).real


def su2_apply(u, psi) -> np.ndarray:
    """Apply the spin-J representation of u in SU(2) to a state or a batch.

    Implemented through the star decomposition: every spinor is rotated by
    u and the product is re-expanded with the same scale.  The decomposition
    takes trailing coefficients below ``TAU_LEAD`` times the largest as
    zero, so they are dropped before the rotation and the map is not linear
    at that level: for psi proportional to (1, 1e-11), even the identity
    returns a state 1e-11 away from psi.
    """
    u = _check_su2(u)
    rep = coefficients_to_roots(psi)
    return roots_to_coefficients(MajoranaRep(rep.spinors @ u.T, rep.scale))


def random_su2(seed=None) -> np.ndarray:
    from .core import random_unitary

    u = random_unitary(2, seed)
    return u / np.sqrt(np.linalg.det(u))


def spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (J1, J2, J3) in the fixed M-descending basis."""
    j = dim_to_spin(n)
    jp = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        jp[k - 1, k] = math.sqrt(k * (n - k))  # sqrt((j-m)(j+m+1)) at m = j-k
    j3 = np.diag([j - k for k in range(n)]).astype(complex)
    j1 = (jp + jp.conj().T) / 2.0
    j2 = (jp - jp.conj().T) / 2.0j
    return j1, j2, j3


def weight_residual(psi, nhat) -> float:
    """Norm of (n_hat . J) psi - J psi for a unit state psi and unit n_hat.

    It vanishes exactly when psi is the highest weight along n_hat, that
    is, the pure product whose stars all sit at n_hat.
    """
    psi = normalize(psi)
    nhat = _check_unit_vectors(nhat, 3)
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
    a = _check_unit_vectors(stars_a, (-1, 3))
    b = _check_unit_vectors(stars_b, (-1, 3))
    if a.shape != b.shape:
        raise ValueError("star sets must have equal size")
    if a.shape[0] == 0:
        return 0.0
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(cost[np.arange(a.shape[0]), _min_sum_assignment(cost)].max())
