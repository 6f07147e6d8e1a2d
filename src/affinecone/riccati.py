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

Both equations are integrated jointly on the vectorized state, which
keeps ``psi`` exactly symmetric by construction and keeps ``phi``
consistent with the adaptive steps without interpolation.

Batches: ``F``, ``R`` and :func:`solve_riccati` take one symmetric
matrix ``(d, d)`` or a stack of ``n`` probes ``(n, d, d)``.  A stack is
integrated as one ODE on ``[vec(u_1), ..., vec(u_n), phi_1, ..., phi_n]``
whose vector field is evaluated on all probes at once; a single matrix is
the stack of one.  Trajectories of a stack put the probe axis after the
time axis: ``psi`` is ``(N, n, d, d)`` and ``phi`` is ``(N, n)``.  The
integrator's error norm is the RMS over the whole state, so ``rtol`` and
``atol`` are both scaled by ``1/sqrt(n)``: every probe then meets the
local error test of a lone solve, and ``n = 1`` keeps the unscaled
tolerances.

The pure-diffusion (Wishart) family admits closed forms for ``psi`` and
``phi``, implemented here in an inversion-free symmetric form; these
serve as independent oracles for the numeric solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from .params import AffineParams, LinearDrift, ScalarJumpMeasure, SymOperator
from .symcone import (
    ConeViolationError,
    frobenius,
    inner,
    mat_exp,
    min_eigval,
    sqrt_psd,
    sym_index,
    symmetrize,
)


class SolverFailureError(RuntimeError):
    """Adaptive integration failed; carries the last good time reached."""

    def __init__(self, message: str, last_t: float):
        super().__init__(message)
        self.last_t = last_t


# --- F, R and their derivatives ----------------------------------------


def _pair(u, site) -> np.ndarray:
    """Trace inner products ``<u_k, site>`` over the leading axes of ``u``
    (``site`` symmetric)."""
    return u.reshape(u.shape[:-2] + (-1,)) @ site.ravel()


def riccati_F(p: AffineParams, u):
    """Running-cost function ``F``; nonnegative on the cone, ``F(0) = 0``.

    ``u`` is one symmetric matrix (a float is returned) or a stack
    ``(..., d, d)`` (an array of shape ``(...)`` is returned).
    """
    u = np.asarray(u, dtype=float)
    val = _pair(u, p.b)
    for site, mass in p.m.atoms:
        val = val + mass * (1.0 - np.exp(-_pair(u, site)))
    return val


def riccati_R(p: AffineParams, u) -> np.ndarray:
    """Right-hand side of the matrix Riccati equation; ``R(0) = 0``.

    ``u`` is one symmetric matrix or a stack ``(..., d, d)``; the result
    has the same shape and is exactly symmetric.
    """
    u = np.asarray(u, dtype=float)
    out = -2.0 * (u @ p.alpha @ u) + p.drift.adjoint_apply(u)
    for site, weight in p.mu.atoms:
        out = out + (1.0 - np.exp(-_pair(u, site)))[..., None, None] * weight
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def riccati_DR(p: AffineParams, u) -> SymOperator:
    """Derivative of ``R`` at ``u`` as an operator on symmetric matrices:
    ``h -> -2(u alpha h + h alpha u) + B_adj(h) + sum <h, site_i> e^{-<u, site_i>} weight_i``.

    At ``u = 0`` this is the adjoint of the effective drift.
    """
    u = symmetrize(u)
    ua = u @ p.alpha
    decay = [np.exp(-inner(u, site)) for site, _ in p.mu.atoms]

    def fn(h):
        out = -2.0 * symmetrize(ua @ h + h @ ua.T) + p.drift.adjoint_apply(h)
        for (site, weight), e in zip(p.mu.atoms, decay):
            out = out + inner(h, site) * e * weight
        return out

    return SymOperator.from_map(p.dim, fn)


def riccati_DF(p: AffineParams, u) -> np.ndarray:
    """Gradient of ``F`` at ``u``: the matrix ``g`` with ``DF(u)(h) = <g, h>``,
    namely ``b + sum_i w_i e^{-<u, site_i>} site_i``."""
    u = symmetrize(u)
    g = p.b.copy()
    for site, mass in p.m.atoms:
        g = g + mass * np.exp(-inner(u, site)) * site
    return g


# --- numeric solution ---------------------------------------------------


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
    tol: float

    def _index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} not on trajectory grid")
        return i

    def psi_at(self, t: float) -> np.ndarray:
        return self.psi[self._index(t)]

    def phi_at(self, t: float) -> float | np.ndarray:
        """``phi`` at a grid time: a float, or an ``(n,)`` array for a stack."""
        return self.phi[self._index(t)]

    def to_csv(self, path) -> None:
        """Columns: t, phi, then the upper triangle of psi row-major."""
        if self.psi.ndim != 3:
            raise ValueError("CSV output holds a single-probe trajectory")
        d = self.psi.shape[1]
        iu = np.triu_indices(d)
        header = ["t", "phi"] + [f"psi_{i + 1}{j + 1}" for i, j in zip(*iu)]
        rows = np.column_stack(
            [self.times, self.phi, self.psi[:, iu[0], iu[1]]]
        )
        np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="")


# below this norm the flow is numerically at the fixed point 0 and the
# remaining phi increments vanish with it
_FIXED_POINT_NORM = 1e-14
# the tolerances solve_riccati accepts; the CLI checks --tol against it
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
    stacked state ``[vec(u_1), ..., vec(u_n), phi_1, ..., phi_n]`` is
    integrated in one call, so all probes share the accepted steps.

    Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)); on step-size
    underflow one retry is made with an implicit stiff stepper before
    failing.  The solver's error norm is the RMS over the whole state, so
    both ``rtol`` and ``atol`` are scaled by ``1/sqrt(n)``: a step is then
    accepted only if every probe's own RMS error passes the test a lone
    solve would apply.  Output times are the accepted steps unless
    ``t_eval`` is given.  Cone membership of every output ``psi`` is
    enforced within the shared tolerance plus a solver-accuracy allowance
    scaled by that probe's start norm.
    """
    if not 0.0 < T < np.inf:
        raise ValueError("horizon T must be positive and finite")
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
    u0 = np.asarray(u0, dtype=float)
    single = u0.ndim == 2
    stack = u0[None] if single else u0
    d = p.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d) or not len(stack):
        raise ValueError(f"u0 must be ({d}, {d}) or a nonempty stack (n, {d}, {d})")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite")
    stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
    n = len(stack)
    rows, cols, scale = sym_index(d)
    nD = n * rows.size
    y0 = np.concatenate([(stack[:, rows, cols] * scale).ravel(), np.zeros(n)])

    def to_matrices(coords):
        w = coords.reshape(coords.shape[:-1] + (n, rows.size)) / scale
        u = np.empty(w.shape[:-1] + (d, d))
        u[..., rows, cols] = w
        u[..., cols, rows] = w
        return u

    def rhs(t, y):
        u = to_matrices(y[:nD])
        du = riccati_R(p, u)[:, rows, cols] * scale
        return np.concatenate([du.ravel(), riccati_F(p, u)])

    def at_fixed_point(t, y):
        return float(np.linalg.norm(y[:nD])) - _FIXED_POINT_NORM

    at_fixed_point.terminal = True
    at_fixed_point.direction = -1

    shrink = 1.0 / np.sqrt(n)
    kwargs = dict(rtol=tol * shrink, atol=tol * 1e-2 * shrink, dense_output=False,
                  events=at_fixed_point)
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        kwargs["t_eval"] = t_eval
    sol = scipy.integrate.solve_ivp(rhs, (0.0, T), y0, method="RK45", **kwargs)
    if sol.status == -1:
        # the quadratic diffusion term is the stiff one; retry implicit
        sol = scipy.integrate.solve_ivp(rhs, (0.0, T), y0, method="Radau", **kwargs)
        if sol.status == -1:
            last = float(sol.t[-1]) if sol.t.size else 0.0
            raise SolverFailureError(f"integration failed: {sol.message}", last)

    times = sol.t
    ys = sol.y.T.reshape(-1, y0.size)
    if sol.status == 1 and (not times.size or times[-1] < T):
        # the whole stack reached the fixed point; pad with exact zeros and
        # the phi values at the event
        if t_eval is not None:
            done = times[-1] if times.size else -np.inf
            rest = t_eval[t_eval > done]
        else:
            rest = np.array([T])
        pad = np.zeros((rest.size, y0.size))
        pad[:, nD:] = sol.y_events[0][-1][nD:]
        times = np.concatenate([times, rest])
        ys = np.vstack([ys, pad])

    psi = to_matrices(ys[:, :nD])
    phi = ys[:, nD:].copy()

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
        return RiccatiTrajectory(u0=stack[0], times=times, psi=psi[:, 0], phi=phi[:, 0], tol=tol)
    return RiccatiTrajectory(u0=stack, times=times, psi=psi, phi=phi, tol=tol)


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

    Computed by exponentiating the block matrix ``[[beta, x], [0, -beta.T]]``
    and reading off the top-right block times ``e^{beta.T t}``; exact up to
    matrix-exponential accuracy, with no quadrature tolerance.
    """
    beta = np.asarray(beta, dtype=float)
    x = symmetrize(x)
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = beta.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = beta
    block[:d, d:] = x
    block[d:, d:] = -beta.T
    top_right = mat_exp(t * block)[:d, d:]
    return symmetrize(2.0 * top_right @ mat_exp(t * beta).T)


def psi_closed_form_wishart(w: WishartSpec, u, t: float) -> np.ndarray:
    """Closed-form ``psi(t, u)`` for the pure-diffusion family.

    Evaluated in the inversion-free symmetric form

        e^{beta.T t} u^{1/2} (I + u^{1/2} S_t u^{1/2})^{-1} u^{1/2} e^{beta t}

    with ``S_t`` the congruence integral of ``alpha``, which extends
    continuously to singular ``u``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = symmetrize(u)
    d = w.dim
    root = sqrt_psd(u)
    core = np.eye(d) + root @ congruence_integral(w.beta, w.alpha, t) @ root
    if min_eigval(core) <= 0.0:
        raise np.linalg.LinAlgError("inner matrix is singular (cannot happen for PSD input)")
    middle = root @ np.linalg.solve(core, root)
    e = mat_exp(t * w.beta)
    return symmetrize(e.T @ middle @ e)


def phi_closed_form_mbajd(w: WishartSpec, u, t: float) -> float:
    """Closed-form ``phi(t, u)``: ``k log det(I + u^{1/2} S_t u^{1/2})``
    (the symmetric determinant form) plus adaptive quadrature of the jump
    term along the closed-form ``psi`` flow, to ``_QUAD_TOL``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = symmetrize(u)
    d = w.dim
    root = sqrt_psd(u)
    core = np.eye(d) + root @ congruence_integral(w.beta, w.alpha, t) @ root
    sign, logdet = np.linalg.slogdet(core)
    if sign <= 0:
        raise np.linalg.LinAlgError("nonpositive determinant (cannot happen for PSD input)")
    val = w.k * logdet
    if len(w.m):
        def jump_rate(s):
            ps = psi_closed_form_wishart(w, u, s)
            return sum(
                mass * (1.0 - np.exp(-inner(ps, site))) for site, mass in w.m.atoms
            )

        part, _ = scipy.integrate.quad(jump_rate, 0.0, t, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        val += part
    return float(val)
