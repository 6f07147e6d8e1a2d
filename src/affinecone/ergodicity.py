"""Long-time behavior: stability testing, stationary law, convergence bounds.

A model is subcritical when the spectral abscissa of its effective drift
is strictly negative; the operator semigroup then decays like
``M exp(-delta t)``.  This module certifies such a pair ``(M, delta)``
on a dense time grid, computes transient and stationary first moments,
evaluates the stationary Laplace transform by truncated integration of
the running cost along the Riccati flow, and provides two computable
convergence diagnostics:

* a Laplace-transform metric (sup over a documented grid of cone
  directions of the normalized transform gap) together with an
  exponential upper bound assembled from computable surrogates, and
* a mean-gap sandwich for the Wasserstein-1 bound in the zero-diffusion
  case: any unit-norm linear functional is 1-Lipschitz, so the first
  moment gap is a certified lower bound on the transport distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import AffineParams, SymOperator
from .riccati import TOL_RANGE, RiccatiTrajectory, riccati_DF, solve_riccati
from .symcone import (
    frobenius,
    is_psd,
    mat_exp,
    min_eigval,
    psd_tol,
    sym_dim,
    symmetrize,
    unvectorize,
    vectorize,
)


class NotSubcriticalError(ValueError):
    """Operation requires a strictly negative spectral abscissa."""


class HypothesisViolatedError(ValueError):
    """A structural hypothesis (e.g. zero diffusion) does not hold."""


def spectral_abscissa(op: SymOperator) -> float:
    """Maximum real part of the operator's eigenvalues."""
    return float(np.max(np.real(op.eigenvalues())))


@dataclass
class DecayCertificate:
    """Grid-certified exponential decay of the effective-drift semigroup.

    ``delta`` sits strictly inside the spectral gap (margin rule) and
    ``M`` is the grid maximum of ``||exp(t Bt)|| e^{delta t}`` with a
    5 percent safety factor: a certified-on-grid quantity, not a proven
    supremum.  When present, ``lyapunov_v`` is a strictly positive
    definite witness with strictly negative-definite drift image.
    """

    abscissa: float
    delta: float
    M: float
    grid_T: float
    lyapunov_v: np.ndarray | None = None


def decay_certificate(p: AffineParams, grid_T: float | None = None) -> DecayCertificate:
    """Build a decay certificate for a subcritical parameter set.

    Raises
    ------
    NotSubcriticalError
        If the spectral abscissa of the effective drift is nonnegative.
    """
    op = p.effective_drift()
    absc = spectral_abscissa(op)
    if absc >= 0.0:
        raise NotSubcriticalError(f"spectral abscissa {absc:.6g} >= 0")
    margin = max(1e-8, 1e-3 * abs(absc))
    delta = -absc - margin
    if grid_T is None:
        grid_T = 10.0 / abs(absc)
    grid = np.linspace(0.0, grid_T, 201)
    norms = np.linalg.norm(mat_exp(grid[:, None, None] * op.matrix), 2, axis=(-2, -1))
    M = max(1.0, float(np.max(norms * np.exp(delta * grid))))
    M *= 1.05

    # Lyapunov witness: solve adjoint-drift(v) = -identity and keep v only
    # if both positivity conditions hold strictly
    v = None
    try:
        rhs = -vectorize(np.eye(p.dim))
        vv = unvectorize(np.linalg.solve(op.adjoint().matrix, rhs))
        image = -op.adjoint().apply(vv)
        if min_eigval(vv) > psd_tol(vv) and min_eigval(image) > psd_tol(image):
            v = symmetrize(vv)
    except np.linalg.LinAlgError:
        v = None
    return DecayCertificate(abscissa=absc, delta=delta, M=M, grid_T=grid_T, lyapunov_v=v)


# --- first moments ------------------------------------------------------


def _moment_source(p: AffineParams) -> np.ndarray:
    return p.b + p.m.first_moment(p.dim)


def transient_mean(p: AffineParams, x, t: float) -> np.ndarray:
    """Mean of the process at time ``t`` started from ``x``:
    ``exp(t Bt) x + integral_0^t exp(s Bt) (b + jump mean) ds``.

    The integral is evaluated exactly through a block matrix exponential,
    which also covers a singular effective drift.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = symmetrize(x)
    op = p.effective_drift()
    D = sym_dim(p.dim)
    c = vectorize(_moment_source(p))
    block = np.zeros((D + 1, D + 1))
    block[:D, :D] = t * op.matrix
    block[:D, D] = t * c
    eb = mat_exp(block)
    return symmetrize(unvectorize(eb[:D, :D] @ vectorize(x) + eb[:D, D]))


def invariant_mean(p: AffineParams, cert: DecayCertificate) -> np.ndarray:
    """Stationary first moment: the unique solution of
    ``effective_drift(mean) = -(b + jump mean)``; must land in the cone."""
    op = p.effective_drift()
    c = vectorize(_moment_source(p))
    try:
        mean = unvectorize(np.linalg.solve(op.matrix, -c))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "effective drift is singular despite a subcriticality certificate"
        ) from exc
    mean = symmetrize(mean)
    if not is_psd(mean):
        raise RuntimeError("stationary mean left the cone (internal inconsistency)")
    return mean


# --- stationary Laplace transform --------------------------------------


@dataclass
class InvariantLaw:
    """Stationary distribution, queried through its Laplace transform.

    The transform is ``exp(-I(u))`` with ``I(u)`` the running cost
    integrated along the Riccati flow from ``u``, up to a horizon fixed in
    advance from the closed-form cost-decay constant :attr:`c_hat` so the
    neglected tail is below tolerance.  Computed exponents are cached per
    probe under a rounded key.  One flow per probe grid (:meth:`flow`)
    serves the transient transform ``exp(-phi(t,u) - <x, psi(t,u)>)`` and
    the ``psi`` envelope at its requested times, and the exponents at its
    end.
    """

    params: AffineParams
    cert: DecayCertificate
    mean: np.ndarray = field(init=False)
    _cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.mean = invariant_mean(self.params, self.cert)

    @property
    def c_hat(self) -> float:
        """Cost-decay constant ``C = ||DF(0)|| M``.

        On the cone ``R(u) <= B_eff*(u)`` (``-2 u alpha u <= 0`` and
        ``1 - e^{-x} <= x``), and ``e^{t B_eff*}`` preserves the cone, so by
        comparison ``psi(t, u) <= e^{t B_eff*} u``.  ``F`` is concave and
        ``DF(0) = b + sum_i w_i site_i`` lies in the cone, hence
        ``F(psi(t, u)) <= <DF(0), psi(t, u)> <= C ||u|| e^{-delta t}``.  It
        is as certified as ``M`` is: on the certificate's time grid.
        """
        zero = np.zeros((self.params.dim, self.params.dim))
        return frobenius(riccati_DF(self.params, zero)) * self.cert.M

    def _key(self, u, tol):
        # rounding to 1e-12 absolute merges roundoff-level copies of a
        # probe; adding 0.0 turns -0.0 into 0.0 so both share a key
        q = np.round(np.asarray(u, dtype=float), 12) + 0.0
        return (q.tobytes(), float(tol))

    def exponent(self, u, tol: float = 1e-8) -> float:
        """Truncated integral of the running cost along the flow from ``u``."""
        u = symmetrize(u)
        if frobenius(u) == 0.0:
            return 0.0
        key = self._key(u, tol)
        if key not in self._cache:
            self.flow([u], tol)
        return self._cache[key]

    def exponents(self, us, tol: float = 1e-8) -> np.ndarray:
        """:meth:`exponent` for every probe of ``us``; the probes not yet
        cached are integrated together as one stacked Riccati flow."""
        us = [symmetrize(u) for u in us]
        todo = {}
        for u in us:
            key = self._key(u, tol)
            if frobenius(u) > 0.0 and key not in self._cache:
                todo.setdefault(key, u)
        if todo:
            self.flow(list(todo.values()), tol)
        return np.array([self.exponent(u, tol) for u in us])

    def flow(self, us, tol: float = 1e-8, times=()) -> RiccatiTrajectory:
        """One stacked Riccati flow of the probes ``us``; caches their exponents.

        Probe ``u`` needs the horizon
        ``T = max(1, 5/delta, log(max(C ||u|| / (delta tol), 2)) / delta)``,
        past which the tail ``C ||u|| e^{-delta T} / delta`` of its cost
        integral is below ``tol`` (``C`` is :attr:`c_hat`).  The stack is
        solved to the largest of these horizons, or to ``max(times)`` if
        later, at solver tolerance ``tol/100`` clipped to ``[1e-12, 1e-10]``,
        and kept at the positive ``times`` and at its end, whose ``phi``
        fills the cache.  Pass it as ``flow`` to :func:`dL_table`.
        """
        us = np.asarray(us, dtype=float)
        norms = np.linalg.norm(us, axis=(1, 2))
        delta = self.cert.delta
        need = np.log(np.maximum(self.c_hat * norms / (delta * tol), 2.0)) / delta
        times = np.asarray(times, dtype=float)
        T = max(1.0, 5.0 / delta, float(np.max(need)), float(np.max(times, initial=0.0)))
        solver_tol = max(min(1e-10, tol * 1e-2), TOL_RANGE[0])
        t_eval = np.union1d(times[times > 0.0], [T])
        traj = solve_riccati(self.params, us, T, tol=solver_tol, t_eval=t_eval)
        for u, val in zip(us, traj.phi[-1]):
            self._cache[self._key(u, tol)] = float(val)
        return traj

    def laplace(self, u, tol: float = 1e-8) -> float:
        """Stationary Laplace transform at ``u``; equals 1 at ``u = 0``."""
        return float(np.exp(-self.exponent(u, tol)))


# --- Laplace-metric diagnostics -----------------------------------------
_GRID_RADII = np.logspace(-2.0, 2.0, 9)
_GRID_RANDOM_DIRECTIONS = 3
_GRID_SEED = 1234


def standard_u_grid(dim: int) -> list[np.ndarray]:
    """Documented deterministic probe grid: the radii ``_GRID_RADII``
    (nine, log-spaced over ``[1e-2, 1e2]``) times unit-norm cone directions
    (normalized identity, coordinate units, ``_GRID_RANDOM_DIRECTIONS``
    random rank-one from seed ``_GRID_SEED``)."""
    dirs = [np.eye(dim) / np.sqrt(dim)]
    for i in range(dim):
        e = np.zeros((dim, dim))
        e[i, i] = 1.0
        dirs.append(e)
    rng = np.random.default_rng(_GRID_SEED)
    for _ in range(_GRID_RANDOM_DIRECTIONS):
        v = rng.standard_normal(dim)
        w = np.outer(v, v)
        dirs.append(w / frobenius(w))
    return [float(r) * v for r in _GRID_RADII for v in dirs]


def transient_laplace(
    p: AffineParams, x, u, times, tol: float = 1e-10, flow: RiccatiTrajectory | None = None
) -> np.ndarray:
    """``exp(-phi(t,u) - <x, psi(t,u)>)`` at the requested times.

    ``u`` is one matrix (result shape ``(len(times),)``) or a stack of
    ``n`` probes (result ``(len(times), n)``), solved as one flow.
    ``flow``, when given, is that flow already solved from ``u`` at the
    positive entries of ``times``, and is read instead of solving again.
    """
    x = symmetrize(x)
    u = np.asarray(u, dtype=float)
    u = 0.5 * (u + np.swapaxes(u, -1, -2))
    times = np.asarray(times, dtype=float)
    positive = np.unique(times[times > 0.0])
    if flow is None and positive.size:
        flow = solve_riccati(p, u, float(positive[-1]), tol=tol, t_eval=positive)
    if flow is not None and not np.array_equal(flow.u0, u):
        raise ValueError("flow was not solved from these probes")
    out = np.empty(times.shape + u.shape[:-2])
    for i, t in enumerate(times):
        if t == 0.0:
            ps, ph = u, 0.0
        else:
            ps, ph = flow.psi_at(t), flow.phi_at(t)
        out[i] = np.exp(-ph - np.sum(x * ps, axis=(-2, -1)))
    return out


def dL_table(
    p: AffineParams,
    law: InvariantLaw,
    x,
    times,
    tol: float = 1e-8,
    flow: RiccatiTrajectory | None = None,
) -> np.ndarray:
    """Laplace-metric values at each time: the maximum over
    :func:`standard_u_grid` of ``|L_t(u) - L_pi(u)| / ||u||``.  A lower
    approximation of the sup over the cone, relative to the documented
    grid.

    One stacked flow of the grid serves both transforms: ``flow``, or else
    ``law.flow(grid, tol, times)``.  The transient transform is read at
    ``times`` (:func:`transient_laplace`) and the stationary exponents, at
    tolerance ``tol``, come back through the law's cache
    (:meth:`InvariantLaw.exponents`).
    """
    us = np.asarray(standard_u_grid(p.dim))
    norms = np.linalg.norm(us, axis=(1, 2))
    if flow is None:
        flow = law.flow(us, tol, times)
    lt = transient_laplace(p, x, us, times, flow=flow)
    lp = np.exp(-law.exponents(us, tol))
    return np.max(np.abs(lt - lp) / norms, axis=1)


def dL_bound(cert: DecayCertificate, C_hat: float, x, t) -> np.ndarray | float:
    """Exponential upper bound ``C (1 + ||x||) e^{-delta t}`` on the
    Laplace metric, with ``C = 2 max(M, C_hat / delta)`` and ``C_hat`` the
    cost-decay constant ``||DF(0)|| M`` (:attr:`InvariantLaw.c_hat`); like
    ``M``, it is certified on the certificate's time grid."""
    C = 2.0 * max(cert.M, C_hat / cert.delta)
    t = np.asarray(t, dtype=float)
    out = C * (1.0 + frobenius(x)) * np.exp(-cert.delta * t)
    return float(out) if out.ndim == 0 else out


# --- Wasserstein sandwich ------------------------------------------------


def w1_mean_gap_check(
    p: AffineParams, law: InvariantLaw, cert: DecayCertificate, x, t: float
) -> tuple[float, float, bool]:
    """Mean-gap sandwich for the transport-distance bound (zero diffusion).

    Returns ``(gap, bound, ok)`` where ``gap`` is the first-moment gap
    (a lower bound on the Wasserstein-1 distance, since unit-norm linear
    functionals are 1-Lipschitz) and ``bound`` is
    ``sqrt(d) M e^{-delta t} (||x|| + sqrt(d) ||stationary mean||)``;
    the trace-norm bracket upper-bounds the stationary norm moment by
    ``sqrt(d)`` times the norm of the stationary mean.
    """
    if frobenius(p.alpha) != 0.0:
        raise HypothesisViolatedError("mean-gap sandwich requires zero diffusion")
    d = p.dim
    gap = frobenius(transient_mean(p, x, t) - law.mean)
    bound = (
        np.sqrt(d)
        * cert.M
        * np.exp(-cert.delta * t)
        * (frobenius(x) + np.sqrt(d) * frobenius(law.mean))
    )
    return gap, float(bound), bool(gap <= bound + 1e-9)


# --- hypothesis gate -----------------------------------------------------
_K_MAX = 1e6
_GATE_RANDOM_DIRECTIONS = 20
_GATE_SEED = 99


@dataclass
class GateReport:
    log_moment: float
    alpha_is_zero: bool
    K_sampled: float | None
    directions_checked: int

    def to_dict(self) -> dict:
        return {
            "log_moment": self.log_moment,
            "alpha_is_zero": self.alpha_is_zero,
            "K_sampled": self.K_sampled,
            "directions_checked": self.directions_checked,
        }


def _min_K_for_direction(drift_apply, xi, tol: float) -> float | None:
    """Smallest ``K >= 0`` with ``K xi + B(xi)`` PSD, by bisection.

    The smallest eigenvalue is nondecreasing in ``K`` (the increment is a
    PSD multiple of ``xi``), so bisection is valid.  Returns None when
    even ``_K_MAX`` fails: no finite constant works along this direction.
    """
    bxi = drift_apply(xi)

    def ok(K):
        return min_eigval(K * xi + bxi) >= -tol

    if ok(0.0):
        return 0.0
    if not ok(_K_MAX):
        return None
    lo, hi = 0.0, _K_MAX
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def log_moment_gate(p: AffineParams) -> GateReport:
    """Report the jump log-moment (always finite for atomic measures),
    whether the diffusion vanishes, and a sampled inward-coupling
    constant ``K`` such that ``K xi + B(xi)`` stays in the cone on the
    test directions (identity, coordinate units,
    ``_GATE_RANDOM_DIRECTIONS`` random rank-one from seed ``_GATE_SEED``);
    inflated by 10 percent.  Sampled on finitely many directions only,
    never a global certificate."""
    dirs = [np.eye(p.dim)]
    for i in range(p.dim):
        e = np.zeros((p.dim, p.dim))
        e[i, i] = 1.0
        dirs.append(e)
    rng = np.random.default_rng(_GATE_SEED)
    for _ in range(_GATE_RANDOM_DIRECTIONS):
        v = rng.standard_normal(p.dim)
        w = np.outer(v, v)
        dirs.append(w / frobenius(w))

    worst: float | None = 0.0
    for xi in dirs:
        k = _min_K_for_direction(p.drift.apply, xi, tol=1e-10)
        if k is None:
            worst = None
            break
        worst = max(worst, k)
    K = None if worst is None else 1.1 * worst
    return GateReport(
        log_moment=p.m.log_moment(),
        alpha_is_zero=frobenius(p.alpha) == 0.0,
        K_sampled=K,
        directions_checked=len(dirs),
    )
