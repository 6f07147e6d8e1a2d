"""Algebra on symmetric matrices and the positive semidefinite cone.

Everything downstream (parameter sets, Riccati flows, stationary-law
computations, path simulation) works with plain ``numpy`` arrays
representing symmetric ``d x d`` matrices.  This module fixes the
conventions once:

* the trace inner product ``<x, y> = tr(x y)`` and its Frobenius norm,
* a relative tolerance for cone membership (``psd_tol``),
* spectral operations (square root, and projection onto the cone with
  the root of the projection for a packed stack, in closed form for
  ``d <= 3``),
* the package's one matrix exponential, a scaling-and-squaring Taylor
  kernel that gives ``e^a`` or, in one call, ``e^{s_i a}`` for many
  multiples of one matrix, and the flow of ``q' = a q + c`` read from it,
* the orthonormal vectorization of symmetric matrices used to represent
  linear maps on symmetric matrices as ordinary ``D x D`` matrices,
  with ``D = d(d+1)/2``,
* the packed layout of a stack of ``n`` symmetric matrices, a ``(D, n)``
  array whose row ``k`` holds the unscaled entry of basis element ``k``
  of every matrix.

The vectorization basis is fixed globally: diagonal units ``E_ii`` first
(in index order), then ``(E_ij + E_ji)/sqrt(2)`` for ``i < j`` in
lexicographic order.  Operator matrices built anywhere in the package
compose correctly only because every module uses this one ordering.
"""

from __future__ import annotations

import functools

import numpy as np


class ConeViolationError(ValueError):
    """A matrix required to be positive semidefinite is not (beyond tolerance)."""


def symmetrize(a) -> np.ndarray:
    """Return ``(a + a.T) / 2`` as a float array.

    Construction-time symmetrization: upstream ODE steps and matrix
    products introduce asymmetry at roundoff level, which we remove
    rather than reject.  A stack ``(..., d, d)`` is symmetrized matrix by
    matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def inner(x, y) -> float:
    """Trace inner product ``tr(x y)`` of two symmetric matrices."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    # tr(xy) = sum_ij x_ij y_ji = sum_ij x_ij y_ij for symmetric inputs
    return float(np.sum(x * y))


def pairings(x, y) -> np.ndarray:
    """Trace inner products of each matrix of ``x`` ``(..., d, d)`` with a
    symmetric ``y``: shape ``(...)`` for one matrix ``y``, ``(..., n)`` for
    a stack ``y`` of ``n``."""
    flat = (x.shape[-2] * x.shape[-1],)  # not -1, which an empty stack leaves open
    return x.reshape(x.shape[:-2] + flat) @ y.reshape(y.shape[:-2] + flat).T


def frobenius(x) -> float:
    """Frobenius norm ``<x, x>**0.5``; ``inf``, unwarned, past the float range."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.asarray(x, dtype=float)))


def psd_tol(x) -> float:
    """Relative eigenvalue floor for cone membership: ``1e-10 * max(1, ||x||)``."""
    return 1e-10 * max(1.0, frobenius(x))


def min_eigval(x) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    x = symmetrize(x)
    if x.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    return float(np.linalg.eigvalsh(x)[0])


def is_psd(x) -> bool:
    """Whether ``x`` lies in the cone within the relative tolerance."""
    return min_eigval(x) >= -psd_tol(x)


def check_cone(x) -> float:
    """Validate cone membership and return the eigenvalue floor found.

    Raises
    ------
    ConeViolationError
        If the smallest eigenvalue is below ``-psd_tol(x)``.
    """
    x = symmetrize(x)
    tol = psd_tol(x)
    floor = min_eigval(x)
    if floor < -tol:
        raise ConeViolationError(
            f"matrix is not positive semidefinite: min eigenvalue {floor:.3e} < -{tol:.3e}"
        )
    return floor


def trace_norm_bracket(x) -> tuple[bool, bool]:
    """Check ``||x|| <= tr(x) <= sqrt(d) ||x||`` for a PSD matrix.

    Exists as a property-test oracle; both flags are true for every PSD
    input.  A small slack at roundoff scale is granted on each side.
    """
    x = symmetrize(x)
    d = x.shape[0]
    nrm = frobenius(x)
    tr = float(np.trace(x))
    slack = 1e-12 * max(1.0, nrm)
    return (nrm <= tr + slack, tr <= np.sqrt(d) * nrm + slack)


# degree of the Taylor polynomial of mat_exp, which is evaluated at
# ||x a||_1 <= 1: the remainder, about 1/19!, is below 1e-17
_TAYLOR_DEGREE = 18


def mat_exp(a, s=None) -> np.ndarray:
    """Matrix exponential ``e^a`` of one real square matrix ``a``, or, given
    a vector ``s >= 0``, the ``(n, d, d)`` stack ``e^{s_i a}``.

    Scaling and squaring with a truncated Taylor series (Moler & Van Loan,
    SIAM Review 45, 2003; Al-Mohy & Higham, SIMAX 31, 2009); ``e^a`` is the
    stack at ``s = [1]``.  The powers of ``b = a / ||a||_1`` are formed
    once.  Row ``i`` takes the fewest squarings ``j_i`` with ``x_i = s_i
    ||a||_1 / 2^{j_i} <= 1``, evaluates the degree-18 Taylor polynomial of
    ``e^{x_i b}`` by Horner's rule, one elementwise operation over the
    stack per degree, and squares the result ``j_i`` times.  ``j_i``
    depends on ``s_i`` alone and every operation acts row by row, so each
    row equals a one-row call bit for bit, whatever the rest of the stack;
    ``s_i = 0`` gives exactly ``I``.  A result, or ``s_i ||a||_1``, past
    the float range raises ``OverflowError``, with no numpy warning, never
    saturated.
    """
    one = s is None
    a = np.asarray(a, dtype=float)
    s = np.asarray([1.0] if one else s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or s.ndim != 1:
        raise ValueError(f"expected a square matrix and a vector, got {a.shape} and {s.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s))):
        raise ValueError("matrix entries and multiples must be finite")
    if np.any(s < 0.0):
        raise ValueError("multiples must be nonnegative")
    d = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        z = s * norm
        if not (np.isfinite(norm) and np.all(np.isfinite(z))):
            raise OverflowError(f"matrix exponential overflowed (s * ||a||_1 up to {z.max():.3e})")
        # the fewest halvings that bring z to 1 or below
        mantissa, exponent = np.frexp(z)
        squarings = np.maximum(exponent - (mantissa == 0.5), 0)
        x = np.ldexp(z, -squarings)[:, None]
        # terms[k] = b^k / k!, each of norm at most 1 / k!
        b = a / norm if norm > 0.0 else a
        terms = np.empty((_TAYLOR_DEGREE + 1, d, d))
        terms[0] = np.eye(d)
        for k in range(1, _TAYLOR_DEGREE + 1):
            terms[k] = terms[k - 1] @ b / k
        terms = terms.reshape(_TAYLOR_DEGREE + 1, d * d)
        out = np.repeat(terms[-1:], len(s), axis=0)
        for term in terms[-2::-1]:
            out *= x
            out += term
        out = out.reshape(len(s), d, d)
        for i in range(int(squarings.max(initial=0))):
            rows = np.flatnonzero(squarings > i)
            sub = out[rows]
            out[rows] = sub @ sub
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed (s * ||a||_1 up to {z.max():.3e})")
    return out[0] if one else out


def affine_flow(a, c, y, times) -> np.ndarray:
    """``e^{ta} y + integral_0^t e^{sa} c ds``, the solution of ``q' = a q + c``,
    ``q(0) = y``, at each of ``times``: an ``(n, len(y))`` array, read off one
    stacked :func:`mat_exp` of the block ``A = [[a, c], [0, 0]]``, as ``e^{tA}
    = [[e^{ta}, integral_0^t e^{sa} c ds], [0, 1]]``; exact also for a singular
    ``a``.  A result past the float range comes back unwarned as ``inf``.
    """
    eb = mat_exp(np.block([[a, np.reshape(c, (-1, 1))], [np.zeros((1, len(c) + 1))]]), times)
    with np.errstate(over="ignore", invalid="ignore"):
        return eb[:, :-1, :-1] @ y + eb[:, :-1, -1]


def _spectral_project_sqrt(y):
    """The general path: ``eigh``, clip the eigenvalues at zero, rebuild.

    Returns the unclipped eigenvalues (ascending), the projection (``y``
    itself wherever no eigenvalue is negative) and the root of the
    projection, for one matrix or a stack ``(..., d, d)``.
    """
    w, q = np.linalg.eigh(y)
    qt = np.swapaxes(q, -1, -2)
    clipped = np.clip(w, 0.0, None)

    # a + a.T overflows for entries past half the float range; the rebuilt
    # projection is kept only for an indefinite row, where it is then inf
    @np.errstate(over="ignore")
    def rebuild(values):
        a = (q * values[..., None, :]) @ qt
        return (a + np.swapaxes(a, -1, -2)) / 2.0

    x = np.where(w[..., :1, None] >= 0.0, y, rebuild(clipped))
    return w, x, rebuild(np.sqrt(clipped))


def sqrt_psd(x) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-psd_tol, 0)`` are clipped to zero first; anything
    below that is a cone violation.
    """
    x = symmetrize(x)
    tol = psd_tol(x)
    w, _, s = _spectral_project_sqrt(x)
    if w[0] < -tol:
        raise ConeViolationError(
            f"cannot take PSD square root: min eigenvalue {w[0]:.3e} < -{tol:.3e}"
        )
    return s


# a row whose smallest eigenvalue exceeds this fraction of its largest is
# well inside the cone: it is its own projection and is rooted in closed
# form, which loses at most about 1e-16 / (2 sqrt(_CLOSED_FORM_TAU)) of its
# scale to rounding
_CLOSED_FORM_TAU = 1e-6
# a row with exactly one clearly negative eigenvalue, below -_CLIP_KAPPA
# times its largest, is projected in closed form by clipping that one
# eigenvalue (Higham, Linear Algebra Appl. 103, 1988).  For d = 3 the
# middle eigenvalue must also exceed _CLIP_GAP times the largest: the
# smallest is computed to about 1e-16 / _CLIP_GAP of the scale, and the
# root of the projection divides by the square root of the middle one
_CLIP_KAPPA = 1e-10
_CLIP_GAP = 1e-3
# the closed forms square (d = 2) or cube (d = 3) entries, so they take
# only the rows whose largest entry lies in this range: past its top the
# powers overflow, below its bottom they underflow and lose their digits
_CLOSED_FORM_RANGE = (1e-80, 1e80)


def _in_range(y):
    scale = np.abs(y).max(axis=0, initial=0.0)
    return (scale >= _CLOSED_FORM_RANGE[0]) & (scale <= _CLOSED_FORM_RANGE[1])


# the identity as a packed column, for d = 2 (rows 00, 11, 01) and d = 3
# (rows 00, 11, 22, 01, 02, 12)
_DIAG2 = np.array([1.0, 1.0, 0.0])[:, None]
_DIAG3 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])[:, None]


def _closed_form_sqrt2(y):
    """Matrices of a packed ``(3, n)`` stack the closed form takes, their
    projections and the roots of those, packed (the other columns' values
    are left undefined).

    A matrix inside the cone is its own projection with root ``(Y +
    sqrt(det) I) / sqrt(tr + 2 sqrt(det))``.  A matrix with eigenvalues
    ``l1 > 0 > l2`` projects to ``X = l1 (Y - l2 I) / (l1 - l2)``, of rank
    one, with root ``X / sqrt(l1)``.
    """
    a, c, b = y
    in_range = _in_range(y)
    det = a * c - b * b
    mid, radius = (a + c) / 2.0, np.hypot((a - c) / 2.0, b)
    lam_max, lam_min = mid + radius, mid - radius
    inside = in_range & (lam_max > 0.0) & (det > _CLOSED_FORM_TAU * lam_max * lam_max)
    clip = in_range & (lam_max > 0.0) & (lam_min < -_CLIP_KAPPA * lam_max)
    rd = np.sqrt(det)
    s = (y + rd * _DIAG2) / np.sqrt(a + c + 2.0 * rd)
    x = y.copy()
    if clip.any():
        cols = np.flatnonzero(clip)
        l1, l2 = lam_max[cols], lam_min[cols]
        x[:, cols] = (y[:, cols] - l2 * _DIAG2) * (l1 / (l1 - l2))
        s[:, cols] = x[:, cols] / np.sqrt(l1)
    return inside | clip, x, s


# the weights of the squared norm of a packed 3x3 matrix, and the three
# products summed into each packed entry of Y^2
_NORM3 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
_SQUARE_LEFT = np.array([[0, 3, 4, 0, 0, 3], [3, 1, 5, 3, 3, 1], [4, 5, 2, 4, 4, 5]])
_SQUARE_RIGHT = np.array([[0, 3, 4, 3, 4, 4], [3, 1, 5, 1, 5, 5], [4, 5, 2, 5, 2, 2]])
_SQRT3 = np.sqrt(3.0)
_TINY = np.finfo(float).tiny


def _closed_form_sqrt3(y):
    """Matrices of a packed ``(6, n)`` stack the closed form takes, their
    projections and the roots of those, packed (the other columns' values
    are left undefined).

    Eigenvalues ``l1 >= l2 >= l3`` by the trigonometric formula for
    symmetric 3x3 matrices (Smith 1961): ``q + 2 p cos(phi + 2 pi k / 3)``,
    from one cosine and one sine.  A matrix inside the cone is its own
    projection.  A matrix with ``l3 < 0 < l2`` projects to ``X = Y - l3
    P3`` with ``P3 = (Y - l1)(Y - l2) / ((l3 - l1)(l3 - l2))``, the
    spectral projector of ``l3``, and ``X^2 = Y^2 - l3^2 P3``.  The root is
    then ``S = [-X^2 + (I1^2 - I2) X + I1 I3 I] / (I1 I2 - I3)`` with ``I1,
    I2, I3`` the elementary symmetric functions of the roots ``s1, s2, s3``
    of the eigenvalues of ``X`` (Franca 1989), ``s3 = 0`` for a clipped
    matrix.  The denominator is ``(s1 + s2)(s1 + s3)(s2 + s3)``: no
    eigenvalue gap is divided by, so repeated eigenvalues are safe.  Each
    packed entry is a contiguous row over the stack.
    """
    in_range = _in_range(y)
    q = (y[0] + y[1] + y[2]) / 3.0
    # B = Y - q I, with p^2 = ||B||^2 / 6 and r = det(B / p) / 2
    b = y - q * _DIAG3
    b00, b11, b22, b01, b02, b12 = b
    sq = b * b
    p2 = _NORM3 @ sq / 6.0
    p = np.sqrt(p2)
    det_b = (b00 * (b11 * b22 - sq[5]) - b11 * sq[4] - b22 * sq[3]
             + 2.0 * b01 * b02 * b12)
    # at p = 0 (a multiple of I) det_b is 0 too, and every eigenvalue is q
    # whatever the angle
    r = det_b / np.maximum(2.0 * p2 * p, _TINY)
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3.0
    # 2 cos(phi + 2 pi / 3) = -cos(phi) - sqrt(3) sin(phi), and at 4 pi / 3
    # the sine's sign flips
    pc, ps = p * np.cos(phi), _SQRT3 * p * np.sin(phi)
    l1, l2, l3 = q + 2.0 * pc, q - pc + ps, q - pc - ps
    inside = in_range & (l3 > _CLOSED_FORM_TAU * l1)
    clip = in_range & (l3 < -_CLIP_KAPPA * l1) & (l2 > _CLIP_GAP * l1)
    # Y^2 as three (6, n) products: one (18, n) product makes temporaries
    # large enough that the allocator returns them to the system and each
    # step faults them in again (about seven page faults per step at n =
    # 1024, against one)
    x2 = y[_SQUARE_LEFT[0]] * y[_SQUARE_RIGHT[0]]
    for left, right in zip(_SQUARE_LEFT[1:], _SQUARE_RIGHT[1:]):
        x2 += y[left] * y[right]
    x = y.copy()
    if clip.any():
        # x and x2 become X and X^2 on the clipped columns, whose smallest
        # eigenvalue becomes 0
        cols = np.flatnonzero(clip)
        c1, c2, c3 = l1[cols], l2[cols], l3[cols]
        yc, y2c = y[:, cols], x2[:, cols]
        p3 = (y2c - (c1 + c2) * yc + (c1 * c2) * _DIAG3) / ((c3 - c1) * (c3 - c2))
        x[:, cols] = yc - c3 * p3
        x2[:, cols] = y2c - (c3 * c3) * p3
        l3[cols] = 0.0
    s1, s2, s3 = np.sqrt(l1), np.sqrt(l2), np.sqrt(l3)
    i1 = s1 + s2 + s3
    i2 = s1 * s2 + s1 * s3 + s2 * s3
    i3 = s1 * s2 * s3
    s = ((i1 * i1 - i2) * x - x2 + (i1 * i3) * _DIAG3) / (i1 * i2 - i3)
    return inside | clip, x, s


_CLOSED_FORMS = {2: _closed_form_sqrt2, 3: _closed_form_sqrt3}


def project_sqrt_psd(y) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto the cone and its square root, ``Y -> (X, X^{1/2})``,
    for a packed stack ``(D, n)`` of finite symmetric matrices (see
    :func:`pack`); both results are packed stacks too.

    For ``d`` of 2 or 3, two kinds of matrix whose largest entry lies in
    ``_CLOSED_FORM_RANGE`` take a closed form on the packed rows, with no
    eigenvectors.  A matrix whose smallest eigenvalue exceeds
    ``_CLOSED_FORM_TAU`` times its largest is its own projection.  A matrix
    with exactly one eigenvalue below ``-_CLIP_KAPPA`` times its largest
    (for ``d = 3`` with its middle one above ``_CLIP_GAP`` times the
    largest) has that eigenvalue clipped.  Every other matrix
    (near-singular, between those thresholds, or of extreme scale), and
    every matrix for other ``d``, is unpacked and takes the general path:
    ``eigh``, eigenvalues clipped at zero, both matrices rebuilt and
    packed again; a matrix with no negative eigenvalue is still its own
    projection.  Every operation acts column by column, so a matrix's
    result does not depend on the rest of the stack.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a packed (D, n) stack, got shape {y.shape}")
    closed_form = _CLOSED_FORMS.get(_order(len(y)))
    if closed_form is None:
        _, x, s = _spectral_project_sqrt(unpack(y))
        return pack(x), pack(s)
    # columns outside the closed form's domain may overflow, divide by zero
    # or take the root of a negative number; their values are replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        done, x, s = closed_form(y)
    if not done.all():
        rest = np.flatnonzero(~done)
        _, x_rest, s_rest = _spectral_project_sqrt(unpack(y[:, rest]))
        x[:, rest], s[:, rest] = pack(x_rest), pack(s_rest)
    return x, s


def sym_dim(d: int) -> int:
    """Dimension ``d(d+1)/2`` of the space of symmetric ``d x d`` matrices."""
    return d * (d + 1) // 2


_SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def sym_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the fixed basis: entry ``k`` of a coordinate vector
    is ``scale[k] * x[rows[k], cols[k]]`` (``scale`` is 1 on the diagonal
    and ``sqrt(2)`` off it).  Built once per ``d``; the arrays are read-only."""
    iu = np.triu_indices(d, k=1)
    rows = np.concatenate([np.arange(d), iu[0]])
    cols = np.concatenate([np.arange(d), iu[1]])
    scale = np.concatenate([np.ones(d), np.full(iu[0].size, _SQRT2)])
    rows.flags.writeable = cols.flags.writeable = scale.flags.writeable = False
    return rows, cols, scale


def vectorize(x) -> np.ndarray:
    """Coordinates of a symmetric matrix in the fixed orthonormal basis.

    The map is a linear isometry: dot products of coordinate vectors
    equal trace inner products of the matrices.  A stack ``(..., d, d)``
    maps to ``(..., D)``.
    """
    x = np.asarray(x, dtype=float)
    rows, cols, scale = sym_index(x.shape[-1])
    return x[..., rows, cols] * scale


def unvectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the dimension is implied by the length
    of the last axis."""
    v = np.asarray(v, dtype=float)
    d = _order(v.shape[-1])
    rows, cols, scale = sym_index(d)
    w = v / scale
    x = np.zeros(v.shape[:-1] + (d, d))
    x[..., rows, cols] = w
    x[..., cols, rows] = w
    return x


def _order(n: int) -> int:
    """The ``d`` with ``d(d+1)/2 = n``."""
    d = int(round(((8 * n + 1) ** 0.5 - 1) / 2))  # cheaper per call than np.sqrt
    if sym_dim(d) != n:
        raise ValueError(f"length {n} is not d(d+1)/2 for any integer d")
    return d


@functools.lru_cache(maxsize=None)
def unpack_index(d: int) -> np.ndarray:
    """The packed row holding each entry of a ``d x d`` matrix, row-major:
    ``v[unpack_index(d)]`` turns a packed stack ``(D, n)`` into the ``(d * d,
    n)`` stack of the full matrices.  Built once per ``d``; read-only."""
    rows, cols, _ = sym_index(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(sym_dim(d))
    index = index.ravel()
    index.flags.writeable = False
    return index


def pack(x) -> np.ndarray:
    """The packed stack ``(D, n)`` of a stack ``(n, d, d)`` of symmetric
    matrices: row ``k`` holds entry ``(rows[k], cols[k])`` of ``sym_index(d)``
    of every matrix, unscaled, so each entry is a contiguous row over the
    stack."""
    x = np.asarray(x, dtype=float)
    rows, cols, _ = sym_index(x.shape[-1])
    return np.ascontiguousarray(x[:, rows, cols].T)


def unpack(v) -> np.ndarray:
    """Inverse of :func:`pack`: the ``(n, d, d)`` stack of a packed one."""
    d = _order(len(v))
    return v[unpack_index(d)].T.reshape(v.shape[1], d, d)


def sym_basis(d: int) -> list[np.ndarray]:
    """The orthonormal basis matrices, in vectorization order."""
    return list(unvectorize(np.eye(sym_dim(d))))


def random_psd(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix ``scale * G G.T / d`` with standard normal ``G``."""
    g = rng.standard_normal((d, d))
    return symmetrize(scale * g @ g.T / d)
