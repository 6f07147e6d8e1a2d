"""Long-time behavior: stability testing, stationary law, convergence bounds.

A model is subcritical when the spectral abscissa of its effective drift
is strictly negative; the operator semigroup then decays like
``M exp(-delta t)``.  This module proves such a pair ``(M, delta)``,
computes transient and stationary first moments, evaluates the
stationary Laplace transform by truncated integration of the running
cost along the Riccati flow, and provides two computable convergence
diagnostics:

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

from .params import AffineParams, ConfigError, SymOperator
from .riccati import TOL_RANGE, RiccatiTrajectory, solve_riccati
from .symcone import (
    affine_flow,
    frobenius,
    is_psd,
    mat_exp,
    min_eigval,
    psd_tol,
    sym_basis,
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
    """Proven exponential decay of the effective-drift semigroup.

    ``delta`` sits strictly inside the spectral gap (margin rule) and
    ``M >= ||exp(t Bt)|| e^{delta t}`` for every ``t >= 0``, with ``||.||``
    the operator 2-norm in the orthonormal coordinates; it is at most
    ``_CERT_SLACK`` above the largest computed value.
    ``grid_T`` is the ``T`` of the proof, a time with
    ``||exp(T (Bt + delta I))|| <= 1`` (see :func:`_semigroup_sup`).  When
    present, ``lyapunov_v`` is a strictly positive definite witness with
    strictly negative-definite drift image.
    """

    abscissa: float
    delta: float
    M: float
    grid_T: float
    lyapunov_v: np.ndarray | None = None


# the proven M exceeds the largest computed norm by at most this factor
_CERT_SLACK = 1.01
# relative allowance for rounding in the computed exponentials and norms
_CERT_ROUNDING = 1e-9


def _norm2(x) -> np.ndarray:
    return np.linalg.norm(x, 2, axis=(-2, -1))


def _semigroup_sup(A: np.ndarray, T0: float) -> tuple[float, float]:
    """A proven bound on ``sup_{t >= 0} ||e^{tA}||``, and the ``T`` it used.

    ``T`` doubles from ``T0`` until ``||e^{TA}|| <= 1``; then any
    ``t = kT + r`` has ``||e^{tA}|| <= ||e^{TA}||^k ||e^{rA}||``, so the
    sup over ``[0, T]`` is the sup.  On ``[t, t + h]`` the norm is at most
    ``||e^{tA}|| e^{h mu}``, ``mu`` the logarithmic 2-norm
    ``lambda_max((A + A.T)/2)`` clipped at 0 (Soderlind, BIT 2006).  A
    uniform grid of ``[0, T]`` is refined adaptively: an interval whose
    bound exceeds ``_CERT_SLACK`` times the largest norm seen so far is
    halved, all of one length at once, by one stacked product with the
    exponential of the half step.  Once ``h mu <= log(_CERT_SLACK)``
    every interval passes, so the refinement ends.

    Raises ``NotSubcriticalError`` if 64 doublings find no such ``T``, and
    ``OverflowError``, with no numpy warning, if ``T0 A`` leaves the float
    range.
    """
    with np.errstate(over="ignore"):
        TA = T0 * A
    if not np.all(np.isfinite(TA)):
        raise OverflowError(f"T0 (Bt + delta I) overflowed (T0 = {T0:.3g}, entries up to "
                            f"{np.abs(A).max():.3e})")
    E, T = mat_exp(TA), T0
    for _ in range(64):
        if _norm2(E) <= 1.0:
            break
        E, T = E @ E, 2.0 * T
    else:
        raise NotSubcriticalError(f"no T <= {T:.3g} with ||exp(T (Bt + delta I))|| <= 1")
    mu = max(0.0, float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]))
    h = T / 64
    X = mat_exp(A, h * np.arange(64))  # left ends of the intervals
    f = _norm2(X)
    peak = bound = 1.0
    while len(f):
        peak = max(peak, float(np.max(f)))
        with np.errstate(over="ignore"):  # an infinite growth passes no interval
            grow = np.exp(h * mu)
        ok = f * grow <= _CERT_SLACK * peak
        bound = max(bound, float(np.max(f[ok] * grow, initial=0.0)))
        h /= 2.0
        left = X[~ok]
        mid = left @ mat_exp(h * A)
        X, f = np.concatenate([left, mid]), np.concatenate([f[~ok], _norm2(mid)])
    return bound, T


def decay_certificate(p: AffineParams) -> DecayCertificate:
    """Build a decay certificate for a subcritical parameter set.

    ``M`` is :func:`_semigroup_sup` of ``Bt + delta I`` (so that
    ``||exp(t Bt)|| e^{delta t}`` never overflows), with the search for
    ``T`` started at ``10 / |abscissa|``, plus ``_CERT_ROUNDING``.

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
    A = op.matrix + delta * np.eye(len(op.matrix))
    M, grid_T = _semigroup_sup(A, 10.0 / abs(absc))
    M *= 1.0 + _CERT_ROUNDING

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


def transient_mean(p: AffineParams, x, t) -> np.ndarray:
    """Mean of the process at time ``t`` started from ``x``:
    ``exp(t Bt) x + integral_0^t exp(s Bt) (b + jump mean) ds``.

    ``t`` is one time, giving a ``(d, d)`` matrix, or a vector of ``n``
    times, giving the ``(n, d, d)`` stack of the means.  All the times
    come from one :func:`~affinecone.symcone.affine_flow` call, exact also
    for a singular effective drift; ``t = 0`` gives exactly
    ``symmetrize(x)``.  A mean past the float range raises
    ``OverflowError``.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(times >= 0.0):  # NaN fails the test too
        raise ValueError(f"t must be nonnegative times, got {t!r}")
    flow = affine_flow(p.effective_drift().matrix, vectorize(_moment_source(p)),
                       vectorize(symmetrize(x)), times.reshape(-1))
    if not np.all(np.isfinite(flow)):
        raise OverflowError("transient mean left the float range")
    means = unvectorize(flow)
    return means if times.ndim else means[0]


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
        ``DF(0) = b + sum_i w_i site_i``, the source of the first-moment
        equation, lies in the cone, hence ``F(psi(t, u)) <= <DF(0), psi(t,
        u)> <= C ||u|| e^{-delta t}`` for all ``t``, as ``M`` is proven.
        """
        return frobenius(_moment_source(self.params)) * self.cert.M

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
        fills the cache.  Pass it as ``flow`` to :func:`dL_table`.  A
        ``tol`` outside ``TOL_RANGE`` (NaN too) is a ``ConfigError``.
        """
        if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ConfigError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol:g}")
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
    (normalized identity, coordinate units ``E_ii``,
    ``_GRID_RANDOM_DIRECTIONS`` rank-one ``v v.T / ||v v.T||`` with standard
    normal ``v`` drawn from seed ``_GRID_SEED``)."""
    dirs = [np.eye(dim) / np.sqrt(dim)] + sym_basis(dim)[:dim]
    rng = np.random.default_rng(_GRID_SEED)
    for _ in range(_GRID_RANDOM_DIRECTIONS):
        v = rng.standard_normal(dim)
        w = np.outer(v, v)
        dirs.append(w / frobenius(w))
    return [float(r) * v for r in _GRID_RADII for v in dirs]


def transient_laplace(flow: RiccatiTrajectory, x, times) -> np.ndarray:
    """``exp(-phi(t,u) - <x, psi(t,u)>)`` at the requested times, read from
    ``flow``, one Riccati flow solved at the positive entries of ``times``.

    The probes ``u`` are the flow's start values ``flow.u0``: for one matrix
    the result has shape ``(len(times),)``, for a stack of ``n`` probes
    ``(len(times), n)``.
    """
    x = symmetrize(x)
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape + flow.u0.shape[:-2])
    for i, t in enumerate(times):
        if t == 0.0:
            ps, ph = flow.u0, 0.0
        else:
            ps, ph = flow.psi_at(t), flow.phi_at(t)
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = np.sum(x * ps, axis=(-2, -1))
        # <x, psi> >= 0 on the cone: a pairing past the float range is +inf
        out[i] = np.exp(-ph - np.where(np.isfinite(pairing), pairing, np.inf))
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
    lt = transient_laplace(flow, x, times)
    lp = np.exp(-law.exponents(us, tol))
    return np.max(np.abs(lt - lp) / norms, axis=1)


def dL_bound(cert: DecayCertificate, C_hat: float, x, t) -> np.ndarray:
    """Exponential upper bound ``C (1 + ||x||) e^{-delta t}`` on the
    Laplace metric at each time of ``t``, with ``C = 2 max(M, C_hat /
    delta)`` and ``C_hat`` the cost-decay constant ``||DF(0)|| M``
    (:attr:`InvariantLaw.c_hat`); both constants hold for all ``t``, as
    ``M`` is proven."""
    C = 2.0 * max(cert.M, C_hat / cert.delta)
    return C * (1.0 + frobenius(x)) * np.exp(-cert.delta * np.asarray(t, dtype=float))


# --- Wasserstein sandwich ------------------------------------------------


def w1_mean_gap_check(p: AffineParams, law: InvariantLaw, cert: DecayCertificate, x, t):
    """Mean-gap sandwich for the transport-distance bound (zero diffusion).

    Returns ``(gap, bound, ok)`` where ``gap`` is the first-moment gap
    (a lower bound on the Wasserstein-1 distance, since unit-norm linear
    functionals are 1-Lipschitz) and ``bound`` is
    ``sqrt(d) M e^{-delta t} (||x|| + sqrt(d) ||stationary mean||)``;
    the trace-norm bracket upper-bounds the stationary norm moment by
    ``sqrt(d)`` times the norm of the stationary mean.  For one time ``t``
    the three are a float, a float and a bool; for a vector of times they
    are arrays, one entry per time, from one :func:`transient_mean` call.
    """
    if frobenius(p.alpha) != 0.0:
        raise HypothesisViolatedError("mean-gap sandwich requires zero diffusion")
    d = p.dim
    t = np.asarray(t, dtype=float)
    diffs = transient_mean(p, x, t) - law.mean
    gap = np.array([frobenius(diff) for diff in diffs.reshape(-1, d, d)]).reshape(t.shape)
    bound = (
        np.sqrt(d)
        * cert.M
        * np.exp(-cert.delta * t)
        * (frobenius(x) + np.sqrt(d) * frobenius(law.mean))
    )
    ok = gap <= bound + 1e-9
    if t.ndim:
        return gap, bound, ok
    return float(gap), float(bound), bool(ok)


# --- hypothesis gate -----------------------------------------------------


@dataclass
class GateReport:
    """The jump log-moment, whether the diffusion vanishes, and the
    smallest inward constant ``K >= 0`` with ``K xi + B(xi) >= 0`` for
    every ``xi`` in the cone, or None when no finite ``K`` exists.

    ``K_sampled`` keeps its name but is proven, case by case:

    * congruence: ``B(xi) = beta xi beta.T >= 0``, so ``K = 0``;
    * lyapunov with ``beta = cI``: ``K xi + B(xi) = (K + 2c) xi``, so
      ``K = max(0, -2c)``;
    * any other lyapunov ``beta``: some ``v`` has ``beta v = a v + w`` with
      ``0 != w`` orthogonal to ``v``.  On ``xi = v v.T`` the form
      ``K xi + B(xi)`` restricted to ``span{v, w}`` has determinant
      ``-|v|^2 |w|^2 < 0`` for every ``K``, so no ``K`` exists.
    """

    log_moment: float
    alpha_is_zero: bool
    K_sampled: float | None


def log_moment_gate(p: AffineParams) -> GateReport:
    """Report the jump log-moment (always finite for atomic measures),
    whether the diffusion vanishes, and the inward constant ``K``, decided
    in closed form from ``p.drift``: 0 for congruence, ``max(0, -2c)`` for
    lyapunov ``beta = cI`` and None for any other lyapunov ``beta``, as
    proven on :class:`GateReport`."""
    beta = p.drift.beta
    if p.drift.kind == "congruence":
        K = 0.0
    elif np.array_equal(beta, beta[0, 0] * np.eye(p.dim)):
        K = max(0.0, -2.0 * float(beta[0, 0]))
    else:
        K = None
    return GateReport(
        log_moment=p.m.log_moment(),
        alpha_is_zero=frobenius(p.alpha) == 0.0,
        K_sampled=K,
    )
