"""Algebra on symmetric matrices and the positive semidefinite cone.

Everything downstream (parameter sets, Riccati flows, stationary-law
computations, path simulation) works with plain ``numpy`` arrays
representing symmetric ``d x d`` matrices.  This module fixes the
conventions once:

* the trace inner product ``<x, y> = tr(x y)`` and its Frobenius norm,
* a relative tolerance for cone membership (``psd_tol``),
* spectral operations (square root, projection onto the cone),
* the orthonormal vectorization of symmetric matrices used to represent
  linear maps on symmetric matrices as ordinary ``D x D`` matrices,
  with ``D = d(d+1)/2``.

The vectorization basis is fixed globally: diagonal units ``E_ii`` first
(in index order), then ``(E_ij + E_ji)/sqrt(2)`` for ``i < j`` in
lexicographic order.  Operator matrices built anywhere in the package
compose correctly only because every module uses this one ordering.
"""

from __future__ import annotations

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


def frobenius(x) -> float:
    """Frobenius norm ``<x, x>**0.5``."""
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


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a real square matrix, or of each matrix in a
    stack ``(..., d, d)``.

    Evaluated by scaling and squaring (Pade approximant), chosen per
    matrix, so each matrix of a stack gets exactly the value a call on it
    alone returns.  Overflow for extreme norms is reported, never silently
    saturated.
    """
    import scipy.linalg  # deferred: commands that never exponentiate skip loading scipy

    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed (input norm {np.linalg.norm(a):.3e})")
    return out


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
    w = np.clip(w, 0.0, None)
    return symmetrize((q * np.sqrt(w)) @ q.T)


def project_psd(x) -> np.ndarray:
    """Nearest-point projection onto the PSD cone (negative eigenvalues clipped).

    Idempotent, and the identity on cone members.
    """
    x = symmetrize(x)
    w, q = np.linalg.eigh(x)
    if w[0] >= 0.0:
        return x
    w = np.clip(w, 0.0, None)
    return symmetrize((q * w) @ q.T)


def sym_dim(d: int) -> int:
    """Dimension ``d(d+1)/2`` of the space of symmetric ``d x d`` matrices."""
    return d * (d + 1) // 2


_SQRT2 = np.sqrt(2.0)


def sym_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the fixed basis: entry ``k`` of a coordinate vector
    is ``scale[k] * x[rows[k], cols[k]]`` (``scale`` is 1 on the diagonal
    and ``sqrt(2)`` off it)."""
    iu = np.triu_indices(d, k=1)
    rows = np.concatenate([np.arange(d), iu[0]])
    cols = np.concatenate([np.arange(d), iu[1]])
    scale = np.concatenate([np.ones(d), np.full(iu[0].size, _SQRT2)])
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
    n = v.shape[-1]
    d = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if sym_dim(d) != n:
        raise ValueError(f"length {n} is not d(d+1)/2 for any integer d")
    rows, cols, scale = sym_index(d)
    w = v / scale
    x = np.zeros(v.shape[:-1] + (d, d))
    x[..., rows, cols] = w
    x[..., cols, rows] = w
    return x


def sym_basis(d: int) -> list[np.ndarray]:
    """The orthonormal basis matrices, in vectorization order."""
    out = []
    for i in range(d):
        e = np.zeros((d, d))
        e[i, i] = 1.0
        out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0 / _SQRT2
            out.append(e)
    return out


def random_psd(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix ``scale * G G.T / d`` with standard normal ``G``."""
    g = rng.standard_normal((d, d))
    return symmetrize(scale * g @ g.T / d)
