"""Algebra on symmetric matrices and the positive semidefinite cone.

Everything downstream (parameter sets, Riccati flows, stationary-law
computations, path simulation) works with plain ``numpy`` arrays
representing symmetric ``d x d`` matrices.  This module fixes the
conventions once:

* the trace inner product ``<x, y> = tr(x y)`` and its Frobenius norm,
* a relative tolerance for cone membership (``psd_tol``),
* spectral operations (the symmetric square root) and, for a packed
  stack, the projection ``X`` onto the cone with a factor ``F F^T = X``:
  a packed Cholesky factorization wherever one exists, ``eigh`` elsewhere,
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


# a + a.T overflows for entries past half the float range; a rebuilt
# projection is kept only for an indefinite matrix, where it is then inf
@np.errstate(over="ignore")
def _rebuild(q, values):
    """``q diag(values) q.T``, symmetrized, for a stack of eigenvectors ``q``."""
    a = (q * values[..., None, :]) @ np.swapaxes(q, -1, -2)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def sqrt_psd(x) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-psd_tol, 0)`` are clipped to zero first; anything
    below that is a cone violation.
    """
    x = symmetrize(x)
    tol = psd_tol(x)
    w, q = np.linalg.eigh(x)
    if w[0] < -tol:
        raise ConeViolationError(
            f"cannot take PSD square root: min eigenvalue {w[0]:.3e} < -{tol:.3e}"
        )
    return _rebuild(q, np.sqrt(np.clip(w, 0.0, None)))


def project_factor_psd(y) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto the cone and a factor of it, ``Y -> (X, F)`` with
    ``F F^T = X``, for a packed stack ``(D, n)`` of finite symmetric
    matrices (see :func:`pack`).  ``X`` is packed; ``F`` is the ``(d * d,
    n)`` stack of the full factors, row-major, so ``F.reshape(d, d, n)[i,
    j]`` is entry ``(i, j)`` of every factor.

    A Cholesky factorization ``Y = L L^T`` runs on the packed rows, one
    contiguous row over the stack per entry of ``L``, for any ``d``.  A
    matrix takes it when every pivot is positive, read off the diagonal
    of ``L``: ``sqrt(s) > 0`` holds exactly when ``s > 0``, and a NaN
    pivot fails both.  It is then its own projection, ``X = Y``, and ``F =
    L``.  Every entry of such an ``L`` is finite: a pivot is at most its
    finite diagonal entry of ``Y``, and each entry ``L_ij`` below the
    diagonal enters pivot ``i`` as ``-L_ij^2``, so an infinite or NaN one
    leaves that pivot at ``-inf`` or NaN.  Every other matrix goes to one
    ``eigh`` call on those matrices alone: with eigenvalues ``w`` and
    eigenvectors ``q``, ``F = q diag(sqrt(w+))``; ``X = Y`` where no
    eigenvalue is negative and ``X = q diag(w+) q^T``, symmetrized,
    elsewhere.  Every operation acts column by column, so a matrix's
    result does not depend on the rest of the stack.  A zero or negative
    pivot raises no numpy warning.  ``X`` is ``Y`` itself when every
    matrix takes the Cholesky factorization.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a packed (D, n) stack, got shape {y.shape}")
    d, n = _order(len(y)), y.shape[1]
    at = unpack_index(d).reshape(d, d)  # the packed row of entry (i, j)
    f = np.zeros((d * d, n))
    low = f.reshape(d, d, n)
    # a refused column may overflow, divide by zero or take the root of a
    # negative number; its values are replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(d):
            for i in range(j, d):
                s = y[at[i, j]]
                for k in range(j):
                    s = s - low[i, k] * low[j, k]
                if i == j:
                    np.sqrt(s, out=low[j, j])
                else:
                    np.divide(s, low[j, j], out=low[i, j])
    # rows 0, d + 1, ... of f hold the roots of the pivots
    cholesky = np.all(f[::d + 1] > 0.0, axis=0)
    if cholesky.all():
        return y, f
    rest = np.flatnonzero(~cholesky)
    refused = unpack(y[:, rest])
    w, q = np.linalg.eigh(refused)
    clipped = np.clip(w, 0.0, None)
    f[:, rest] = (q * np.sqrt(clipped)[:, None, :]).reshape(rest.size, d * d).T
    x = y.copy()
    x[:, rest] = pack(np.where(w[:, :1, None] >= 0.0, refused, _rebuild(q, clipped)))
    return x, f


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
