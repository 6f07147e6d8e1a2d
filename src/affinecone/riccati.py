"""Generalized Riccati flows for affine models on the PSD cone.

The Laplace transform of the process is ``exp(-phi(t,u) - <psi(t,u), x>)``
where ``psi`` solves a matrix Riccati ODE and ``phi`` accumulates the
running cost ``F(psi)``:

    d psi / dt = R(psi),   psi(0) = u,
    d phi / dt = F(psi),   phi(0) = 0,

with

    F(u) = <b, u> + sum_i w_i (1 - exp(-<u, site_i>))          (m atoms)
    R(u) = -2 u alpha u + B_adj(u)
           + sum_i (1 - exp(-<u, site_i>)) weight_i            (mu atoms)

where ``B_adj``, the adjoint of the linear drift, is the drift of the same
kind with ``beta.T``.

Both equations are integrated jointly on the vectorized state, which
keeps ``psi`` exactly symmetric by construction and keeps ``phi``
consistent with the adaptive steps without interpolation.

In coordinates ``v = vec(u)`` the stacked field ``[R, F]`` is a fixed
linear map ``M`` of the features ``[v, v_i v_j (i <= j), 1 - e^{-S v}]``,
with ``S`` the vectorized ``mu`` then ``m`` sites.  :func:`solve_riccati`
builds ``M`` once per solve from the matrix form: the polynomial rows by
polarization of one stacked :func:`riccati_R` call on the jump-free
model, the linear row of ``F`` from one :func:`riccati_F` call, and the
jump rows straight from the ``mu`` weights and ``m`` masses.
``riccati_R`` and ``riccati_F`` therefore stay the one definition of the
field, and each step makes only a few array operations on the whole
stack.  It is integrated with the Dormand-Prince 8(5,3) pair.  The
field's exact Jacobian is the derivative of the features times ``M``;
:func:`riccati_DR` and :func:`riccati_DF` are its ``R`` block and ``F``
column.  Coefficients that leave the float range, or a field that is not
finite at the start value, raise ``OverflowError``.

Batches: ``F``, ``R`` and :func:`solve_riccati` take one symmetric
matrix ``(d, d)`` or a stack of ``n`` probes ``(n, d, d)``.  A stack is
integrated as one ODE on the ``(n, D + 1)`` state whose row ``i`` is
``[vec(u_i), phi_i]``, its field evaluated on all probes at once; a
single matrix is the stack of one.  Trajectories of a stack put the
probe axis after the time axis: ``psi`` is ``(N, n, d, d)`` and ``phi``
is ``(N, n)``.  The integrator's error norm is the RMS over the whole
state, so ``rtol`` and ``atol`` are both scaled by ``1/sqrt(n)``: every
probe then meets the local error test of a lone solve, and ``n = 1``
keeps the unscaled tolerances.

The pure-diffusion (Wishart) family admits closed forms for ``psi`` and
``phi``, implemented here in an inversion-free symmetric form; these
serve as independent oracles for the numeric solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .params import (
    AffineParams,
    ConfigError,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SymOperator,
)
from .symcone import (
    ConeViolationError,
    affine_flow,
    frobenius,
    mat_exp,
    min_eigval,
    pairings,
    sqrt_psd,
    sym_dim,
    sym_index,
    symmetrize,
    unvectorize,
    vectorize,
)


class SolverFailureError(RuntimeError):
    """Adaptive integration failed; carries the last good time reached."""

    def __init__(self, message: str, last_t: float):
        super().__init__(message)
        self.last_t = last_t


# --- F, R and their derivatives ----------------------------------------


def riccati_F(p: AffineParams, u):
    """Running-cost function ``F``; nonnegative on the cone, ``F(0) = 0``.

    ``u`` is one symmetric matrix (a float is returned) or a stack
    ``(..., d, d)`` (an array of shape ``(...)`` is returned).
    """
    u = np.asarray(u, dtype=float)
    return pairings(u, p.b) + p.m.cost(u)


def riccati_R(p: AffineParams, u) -> np.ndarray:
    """Right-hand side of the matrix Riccati equation; ``R(0) = 0``.

    ``u`` is one symmetric matrix or a stack ``(..., d, d)``; the result
    has the same shape and is exactly symmetric.
    """
    u = np.asarray(u, dtype=float)
    out = -2.0 * (u @ p.alpha @ u) + LinearDrift(p.drift.kind, p.drift.beta.T).apply(u)
    if len(p.mu):
        out = out + np.tensordot(1.0 - np.exp(-pairings(u, p.mu.sites)), p.mu.weights, axes=1)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def riccati_DR(p: AffineParams, u) -> SymOperator:
    """Derivative of ``R`` at one symmetric matrix ``u``, as an operator on
    symmetric matrices: the ``R`` block of :func:`_coordinate_field`'s Jacobian.

    At ``u = 0`` this is the adjoint of the effective drift.
    """
    jac = _coordinate_field(p).jacobian(vectorize(symmetrize(u))[None])[0]
    return SymOperator(p.dim, jac[:, :-1].T)


def riccati_DF(p: AffineParams, u) -> np.ndarray:
    """Gradient of ``F`` at ``u`` (or at each of a stack): the matrix ``g``
    with ``DF(u)(h) = <g, h>``, namely ``b + sum_i w_i e^{-<u, site_i>}
    site_i``, read off the ``F`` column of :func:`_coordinate_field`'s Jacobian."""
    u = symmetrize(u)
    v = vectorize(u).reshape(-1, sym_dim(p.dim))
    return unvectorize(_coordinate_field(p).jacobian(v)[..., -1]).reshape(u.shape)


# --- the field in coordinates ------------------------------------------


def _coordinate_field(p: AffineParams):
    """The field ``v -> [vec R(u), F(u)]`` on coordinate rows ``v``
    ``(n, D)``, returned as an ``(n, D + 1)`` array, with its Jacobian
    attached as ``field.jacobian``.

    It is ``[v, v[:, rows] * v[:, cols], 1 - exp(-v @ S.T)] @ M``, with
    ``rows`` and ``cols`` from ``sym_index(D)`` (every monomial
    ``v_i v_j``, ``i <= j``, once), ``S`` the vectorized ``mu`` then ``m``
    sites, and ``M`` built here once.  Its polynomial rows are read off the
    matrix form: ``R0``, the field of the jump-free model, is evaluated in
    one stacked call at ``E_i``, ``-E_i`` and ``E_i + E_j`` (``i < j``,
    ``E`` the orthonormal basis).  Then ``(R0(E_i) - R0(-E_i)) / 2`` is the
    linear part at ``E_i``, ``(R0(E_i) + R0(-E_i)) / 2`` the coefficient of
    ``v_i^2`` and ``R0(E_i + E_j) - R0(E_i) - R0(E_j)`` that of
    ``v_i v_j``.  The linear part of ``F`` is ``F0(E_i)``; the jump rows
    are the ``mu`` weights (in ``R``) and the ``m`` masses (in ``F``).
    A coefficient that leaves the float range raises ``OverflowError``.

    ``field.jacobian(v)`` is the exact ``(n, D, D + 1)`` Jacobian
    ``[I, d(v_i v_j)/dv, S.T diag(e^{-S v})] @ M``: row ``k`` of probe
    ``i`` is the derivative of the field along ``v_k``.
    """
    d = p.dim
    D = sym_dim(d)
    basis = unvectorize(np.eye(D))
    upper = np.triu_indices(D, k=1)
    smooth = replace(p, m=ScalarJumpMeasure(), mu=MatrixJumpMeasure())
    mu_weights, mu_sites, m_sites = (
        vectorize(x.reshape(-1, d, d)) for x in (p.mu.weights, p.mu.sites, p.m.sites))
    jumps = D + sym_dim(D)  # first jump row

    M = np.zeros((jumps + len(mu_sites) + len(m_sites), D + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = vectorize(riccati_R(smooth, np.concatenate(
            [basis, -basis, basis[upper[0]] + basis[upper[1]]])))
        plus, minus, pairs = vals[:D], vals[D:2 * D], vals[2 * D:]
        M[:D, :D] = 0.5 * (plus - minus)
        M[D:2 * D, :D] = 0.5 * (plus + minus)
        M[2 * D:jumps, :D] = pairs - plus[upper[0]] - plus[upper[1]]
        M[:D, D] = riccati_F(smooth, basis)
    M[jumps:jumps + len(mu_sites), :D] = mu_weights
    M[jumps + len(mu_sites):, D] = p.m.masses
    if not np.all(np.isfinite(M)):
        raise OverflowError("Riccati field coefficients overflowed")
    S = np.concatenate([mu_sites, m_sites])
    rows, cols, _ = sym_index(D)
    eye = np.eye(D)

    def vector_field(v):
        return np.concatenate([v, v[:, rows] * v[:, cols], 1.0 - np.exp(-(v @ S.T))], axis=1) @ M

    def jacobian(v):
        quadratic = eye[:, rows] * v[:, None, cols] + eye[:, cols] * v[:, None, rows]
        return np.concatenate([np.broadcast_to(eye, (len(v), D, D)), quadratic,
                               S.T * np.exp(-(v @ S.T))[:, None, :]], axis=2) @ M

    vector_field.jacobian = jacobian
    return vector_field


# --- numeric solution ---------------------------------------------------


def grid_index(times, t: float) -> int:
    """Index of ``t`` in the time grid ``times``, matched to within
    ``1e-9 max(1, |t|)``; ``KeyError`` if no grid time is that close."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"time {t} is not on the grid")
    return i


@dataclass
class RiccatiTrajectory:
    """Joint (psi, phi) flow for one initial condition, or for a stack of
    ``n`` of them, on a shared time grid.

    For one start value ``u0`` is ``(d, d)``, ``psi`` is ``(N, d, d)`` and
    ``phi`` is ``(N,)``; for a stack they carry a probe axis after the time
    axis: ``u0`` is ``(n, d, d)``, ``psi`` is ``(N, n, d, d)`` and ``phi``
    is ``(N, n)``.
    """

    u0: np.ndarray
    times: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    def psi_at(self, t: float) -> np.ndarray:
        return self.psi[grid_index(self.times, t)]

    def phi_at(self, t: float) -> float | np.ndarray:
        """``phi`` at a grid time: a float, or an ``(n,)`` array for a stack."""
        return self.phi[grid_index(self.times, t)]


# the tolerances solve_riccati and InvariantLaw.flow accept
TOL_RANGE = (1e-12, 1e-3)


def solve_riccati(
    p: AffineParams,
    u0,
    T: float,
    tol: float = 1e-9,
    t_eval=None,
) -> RiccatiTrajectory:
    """Integrate the joint (psi, phi) system on ``[0, T]``.

    ``u0`` is one start value ``(d, d)`` or a stack of ``n`` probes
    ``(n, d, d)``; a single matrix is solved as a stack of one.  The
    stacked state is integrated in one call, so all probes share the
    accepted steps.

    The field is evaluated in coordinates (:func:`_coordinate_field`),
    built once per call from the matrix form: ``riccati_R`` is called
    once, not once per step.  Each probe occupies one row
    ``[vec(u_i), phi_i]`` of the ``(n, D + 1)`` state.

    Adaptive explicit Runge-Kutta (Dormand-Prince 8(5,3)); a failed run
    (step-size underflow) raises ``SolverFailureError`` with the last good
    time.  The solver's error norm is the RMS over the whole state, so
    both ``rtol`` and ``atol`` are scaled by ``1/sqrt(n)``: a step is then
    accepted only if every probe's own RMS error passes the test a lone
    solve would apply.  Output times are the accepted steps unless
    ``t_eval`` (nonempty, sorted, in ``[0, T]``) is given.  The flow always
    runs to ``T``: ``psi`` only approaches the fixed point 0, and at
    ``tol >= 1e-10`` levels off at the integrator's noise floor (1e-13 to
    1e-12).  Cone membership of every output ``psi`` is enforced within
    the shared tolerance plus a solver-accuracy allowance scaled by that
    probe's start norm.
    """
    import scipy.integrate  # deferred: commands that solve no flow skip loading scipy

    # NaN fails each test
    if not 0.0 < T < np.inf:
        raise ConfigError(f"horizon T must be positive and finite, got {T:g}")
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ConfigError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol:g}")
    u0 = np.asarray(u0, dtype=float)
    single = u0.ndim == 2
    stack = u0[None] if single else u0
    d = p.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d) or not len(stack):
        raise ValueError(f"u0 must be ({d}, {d}) or a nonempty stack (n, {d}, {d})")
    stack = symmetrize(stack)
    n = len(stack)
    D = sym_dim(d)
    y0 = np.column_stack([vectorize(stack), np.zeros(n)]).ravel()
    vector_field = _coordinate_field(p)

    def rhs(t, y):
        return vector_field(y.reshape(n, D + 1)[:, :D]).ravel()

    shrink = 1.0 / np.sqrt(n)
    kwargs = dict(rtol=tol * shrink, atol=tol * 1e-2 * shrink, dense_output=False)
    if t_eval is not None:
        kwargs["t_eval"] = t_eval = np.asarray(t_eval, dtype=float)
        # NaN fails both tests
        if not t_eval.size or not np.all((t_eval >= 0.0) & (t_eval <= T)):
            raise ValueError(f"t_eval must be nonempty, with every time in [0, T = {T:g}]")
    # a field not finite at y0 gives a NaN first step, which scipy retries
    # without end; a NaN later shrinks the step until scipy reports underflow
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(rhs(0.0, y0))):
            raise OverflowError("Riccati field is not finite at the start value")
        sol = scipy.integrate.solve_ivp(rhs, (0.0, T), y0, method="DOP853", **kwargs)
    if sol.status == -1:
        last = float(sol.t[-1]) if sol.t.size else 0.0
        raise SolverFailureError(f"integration failed: {sol.message}", last)

    times = sol.t
    state = sol.y.T.reshape(times.size, n, D + 1)
    psi = unvectorize(state[..., :D])
    phi = state[..., D].copy()

    floors = np.linalg.eigvalsh(psi)[..., 0]
    allowed = 1e-10 * np.maximum(1.0, np.linalg.norm(psi, axis=(-2, -1)))
    allowed = allowed + 10.0 * tol * np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1)))
    bad = np.argwhere(floors < -allowed)
    if bad.size:
        k, i = bad[0]
        probe = "" if single else f" for probe {i}"
        raise ConeViolationError(
            f"psi left the cone{probe} at t = {times[k]:.6g} "
            f"(min eigenvalue {floors[k, i]:.3e})"
        )
    if single:
        return RiccatiTrajectory(u0=stack[0], times=times, psi=psi[:, 0], phi=phi[:, 0])
    return RiccatiTrajectory(u0=stack, times=times, psi=psi, phi=phi)


def semiflow_check(p: AffineParams, u, t: float, s: float, tol: float = 1e-9) -> float:
    """Defect ``|| psi(t+s, u) - psi(s, psi(t, u)) ||`` from two solver runs."""
    u = symmetrize(u)
    if t < 0 or s < 0:
        raise ValueError("t and s must be nonnegative")
    if t == 0 or s == 0:
        return 0.0
    direct = solve_riccati(p, u, t + s, tol=tol, t_eval=[t + s]).psi[-1]
    mid = solve_riccati(p, u, t, tol=tol, t_eval=[t]).psi[-1]
    chained = solve_riccati(p, mid, s, tol=tol, t_eval=[s]).psi[-1]
    return frobenius(direct - chained)


# --- closed forms for the pure-diffusion family -------------------------
_QUAD_TOL = 1e-9  # absolute and relative, of phi_closed_form_mbajd's quadrature


@dataclass
class WishartSpec:
    """Diffusion family with drift ``beta x + x beta.T``, diffusion matrix
    ``alpha``, constant drift ``2 k alpha``, and optional scalar jumps."""

    alpha: np.ndarray
    beta: np.ndarray
    k: float
    m: ScalarJumpMeasure = field(default_factory=ScalarJumpMeasure)

    def __post_init__(self):
        self.alpha = symmetrize(self.alpha)
        self.beta = np.asarray(self.beta, dtype=float)
        # admissibility (including b >= (d-1) alpha, i.e. k >= (d-1)/2)
        # is enforced through the parameter-set constructor
        report = self.to_params().validate()
        if not report.passed:
            raise ValueError(f"inadmissible spec: {', '.join(report.failures())}")

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def to_params(self) -> AffineParams:
        return AffineParams(
            dim=self.alpha.shape[0],
            alpha=self.alpha,
            b=2.0 * self.k * self.alpha,
            drift=LinearDrift.lyapunov(self.beta),
            m=self.m,
        )


def congruence_integral(beta, x, t: float) -> np.ndarray:
    """``2 * integral_0^t e^{beta s} x e^{beta.T s} ds``.

    This is ``Q(t)`` for ``Q' = beta Q + Q beta.T + 2x``, ``Q(0) = 0``: in
    coordinates the :func:`~affinecone.symcone.affine_flow` of the Lyapunov
    operator of ``beta`` and ``vec(2x)`` from 0.  Exact up to
    matrix-exponential accuracy; for a stable ``beta`` nothing in it grows
    with ``t``.
    """
    x = symmetrize(x)
    if t < 0:
        raise ValueError("t must be nonnegative")
    L = LinearDrift.lyapunov(beta).operator(len(x)).matrix
    return unvectorize(affine_flow(L, vectorize(2.0 * x), np.zeros(len(L)), [t])[0])


def _wishart_core(w: WishartSpec, u, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``u^{1/2}`` and ``I + u^{1/2} S_t u^{1/2}``, with ``S_t`` the
    congruence integral of ``alpha``: the core of both closed forms."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    root = sqrt_psd(u)
    return root, np.eye(w.dim) + root @ congruence_integral(w.beta, w.alpha, t) @ root


def psi_closed_form_wishart(w: WishartSpec, u, t: float) -> np.ndarray:
    """Closed-form ``psi(t, u)`` for the pure-diffusion family.

    Evaluated in the inversion-free symmetric form

        e^{beta.T t} u^{1/2} (I + u^{1/2} S_t u^{1/2})^{-1} u^{1/2} e^{beta t}

    with ``S_t`` the congruence integral of ``alpha``, which extends
    continuously to singular ``u``.
    """
    root, core = _wishart_core(w, u, t)
    if min_eigval(core) <= 0.0:
        raise np.linalg.LinAlgError("inner matrix is singular (cannot happen for PSD input)")
    middle = root @ np.linalg.solve(core, root)
    e = mat_exp(t * w.beta)
    return symmetrize(e.T @ middle @ e)


def phi_closed_form_mbajd(w: WishartSpec, u, t: float) -> float:
    """Closed-form ``phi(t, u)``: ``k log det(I + u^{1/2} S_t u^{1/2})``
    (the symmetric determinant form) plus adaptive quadrature of the jump
    term along the closed-form ``psi`` flow, to ``_QUAD_TOL``."""
    _, core = _wishart_core(w, u, t)
    sign, logdet = np.linalg.slogdet(core)
    if sign <= 0:
        raise np.linalg.LinAlgError("nonpositive determinant (cannot happen for PSD input)")
    val = w.k * logdet
    if len(w.m):
        import scipy.integrate

        def jump_rate(s):
            return float(w.m.cost(psi_closed_form_wishart(w, u, s)))

        part, _ = scipy.integrate.quad(jump_rate, 0.0, t, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        val += part
    return float(val)
