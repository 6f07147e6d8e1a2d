"""Long-time behavior: certificates, moments, stationary law, bounds."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import affinecone.ergodicity as ergodicity
from affinecone import (
    AffineParams,
    HypothesisViolatedError,
    InvariantLaw,
    LinearDrift,
    NotSubcriticalError,
    ScalarJumpMeasure,
    SymOperator,
    WishartSpec,
    dL_bound,
    dL_table,
    decay_certificate,
    frobenius,
    invariant_mean,
    log_moment_gate,
    mat_exp,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    random_psd,
    riccati_DF,
    riccati_F,
    spectral_abscissa,
    solve_riccati,
    sqrt_psd,
    standard_u_grid,
    symmetrize,
    transient_laplace,
    transient_mean,
    w1_mean_gap_check,
)
from affinecone.params import ConfigError
from conftest import random_wishart, zero_diffusion_params
from test_acceptance import _random_subcritical


# --- decay certificate ---------------------------------------------------


def test_certificate_for_scaled_identity_drift():
    p = zero_diffusion_params(rate=0.7)
    cert = decay_certificate(p)
    # drift x -> -0.7(x I + I x) has the single operator eigenvalue -1.4
    assert cert.abscissa == pytest.approx(-1.4, abs=1e-12)
    assert cert.delta == pytest.approx(1.4 - 1e-3 * 1.4, abs=1e-9)
    assert 1.0 < cert.M <= 1.1
    assert cert.lyapunov_v is not None
    assert np.linalg.eigvalsh(cert.lyapunov_v)[0] > 0


def test_certificate_bounds_semigroup_norm(rng):
    spec = random_wishart(3, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    op = p.effective_drift()
    for t in np.linspace(0.0, cert.grid_T, 37):
        norm = np.linalg.norm(mat_exp(t * op.matrix), 2)
        assert norm <= cert.M * np.exp(-cert.delta * t) * (1 + 1e-9)


def test_certificate_M_bounds_dense_sample(rng):
    # the models of acceptance criteria 3, 6, 7 and 8, two d = 3 Wisharts;
    # on random_wishart(3, default_rng(5)) the function peaks near 85
    rng303 = np.random.default_rng(303)
    models = [random_wishart(2, rng303).to_params() for _ in range(3)]
    models += [_random_subcritical(rng303) for _ in range(3)]
    models += [random_wishart(2, np.random.default_rng(seed)).to_params()
               for seed in (606, 707)]
    models += [zero_diffusion_params(rate=0.7), zero_diffusion_params(rate=0.9),
               random_wishart(3, rng).to_params(),
               random_wishart(3, np.random.default_rng(5)).to_params()]
    for p in models:
        cert = decay_certificate(p)
        op = p.effective_drift()
        # ||e^{tB}|| e^{delta t} as ||e^{t(B + delta I)}||, which does not overflow
        a = op.matrix + cert.delta * np.eye(len(op.matrix))
        ts = np.union1d(np.linspace(0.0, 2.0 * cert.grid_T, 4001),
                        np.linspace(0.0, 60.0 / abs(cert.abscissa), 2001))
        norms = np.linalg.norm(scipy.linalg.expm(ts[:, None, None] * a), 2, axis=(-2, -1))
        sampled = np.max(norms)
        assert sampled <= cert.M <= 1.05 * sampled
    assert cert.M > 80.0


def test_certificate_of_strongly_non_normal_drift():
    # ||e^{t(B + delta I)}|| peaks near t = 1000 at 1.2e8, and e^{h mu} of
    # the first grid overflows: an infinite growth passes no interval, with
    # no numpy warning
    p = dataclasses.replace(zero_diffusion_params(rate=1.0), m=ScalarJumpMeasure(),
                            drift=LinearDrift.lyapunov(np.array([[-1.0, 30.0], [0.0, -1.0]])))
    cert = decay_certificate(p)
    a = p.effective_drift().matrix + cert.delta * np.eye(3)
    ts = np.linspace(0.0, 2560.0, 2561)
    sampled = np.max(np.linalg.norm(scipy.linalg.expm(ts[:, None, None] * a), 2, axis=(-2, -1)))
    assert sampled <= cert.M <= 1.05 * sampled
    assert cert.M == pytest.approx(1.23e8, rel=1e-2)


def test_random_wishart_refuses_an_unstable_draw():
    # -(0.5 + U) I + 0.3 N has an eigenvalue with real part 0.085 on this draw
    with pytest.raises(ValueError, match="unstable beta"):
        random_wishart(2, np.random.default_rng(53))


def test_not_subcritical_raises():
    d = 2
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.1 * np.eye(d),
        drift=LinearDrift.lyapunov(np.zeros((d, d))),
    )
    with pytest.raises(NotSubcriticalError):
        decay_certificate(p)


def test_spectral_abscissa_matches_eigenvalues(rng):
    p = zero_diffusion_params()
    op = p.effective_drift()
    assert spectral_abscissa(op) == pytest.approx(
        max(np.real(np.linalg.eigvals(op.matrix)))
    )


# --- first moments -------------------------------------------------------


def test_transient_mean_matches_ode_integration(rng):
    # independent route: integrate the first-moment ODE directly
    spec = random_wishart(2, rng, with_jumps=True)
    p = spec.to_params()
    x = random_psd(2, rng)
    op = p.effective_drift()
    src = p.b + p.m.first_moment(2)

    from affinecone import unvectorize, vectorize

    sol = scipy.integrate.solve_ivp(
        lambda t, y: op.matrix @ y + vectorize(src),
        (0.0, 1.5),
        vectorize(x),
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    for t in (0.3, 0.9, 1.5):
        got = transient_mean(p, x, t)
        ref = unvectorize(sol.sol(t))
        assert frobenius(got - ref) < 1e-9


def test_transient_mean_at_zero_and_monotone_approach(rng):
    p = zero_diffusion_params()
    x = np.diag([2.0, 0.5])
    assert np.allclose(transient_mean(p, x, 0.0), x)
    cert = decay_certificate(p)
    mean = invariant_mean(p, cert)
    gaps = [frobenius(transient_mean(p, x, t) - mean) for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_transient_mean_of_a_time_vector_matches_each_time(rng):
    spec = random_wishart(3, rng, with_jumps=True)
    p = spec.to_params()
    x = random_psd(3, rng)
    times = np.array([0.0, 0.3, 1.0, 2.5, 0.3, 40.0])
    stack = transient_mean(p, x, times)
    assert stack.shape == (len(times), 3, 3)
    for t, got in zip(times, stack):
        want = transient_mean(p, x, float(t))
        assert frobenius(got - want) <= 1e-14 * frobenius(want)
    # t = 0 is exactly the start point, in a vector as alone
    assert np.array_equal(stack[0], symmetrize(x))
    assert np.array_equal(transient_mean(p, x, 0.0), symmetrize(x))
    assert transient_mean(p, x, times[:0]).shape == (0, 3, 3)


@pytest.mark.parametrize("times", [[0.5, -1.0], [0.5, float("nan")], -0.1, float("nan"),
                                   [[0.5]]])
def test_transient_mean_refuses_negative_or_nan_times(times):
    p = zero_diffusion_params()
    with pytest.raises(ValueError):
        transient_mean(p, np.eye(2), times)


def test_mean_gap_identity(rng):
    # transient minus invariant mean equals the semigroup applied to the
    # initial gap
    spec = random_wishart(2, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    mean = invariant_mean(p, cert)
    op = p.effective_drift()
    x = random_psd(2, rng)
    for t in (0.5, 1.5):
        lhs = transient_mean(p, x, t) - mean
        rhs = SymOperator(2, mat_exp(t * op.matrix)).apply(x - mean)
        assert frobenius(lhs - rhs) < 1e-11


def test_invariant_mean_is_fixed_point(rng):
    spec = random_wishart(3, rng, with_jumps=True)
    p = spec.to_params()
    cert = decay_certificate(p)
    mean = invariant_mean(p, cert)
    residual = p.effective_drift().apply(mean) + p.b + p.m.first_moment(3)
    assert frobenius(residual) < 1e-11
    assert np.linalg.eigvalsh(mean)[0] >= -1e-12


# --- stationary Laplace transform ---------------------------------------


def _wishart_invariant_laplace(spec, u):
    """Independent closed form: determinant of the stationary covariance."""
    sig_inf = scipy.linalg.solve_lyapunov(spec.beta, -2.0 * spec.alpha)
    r = sqrt_psd(symmetrize(u))
    val = np.linalg.slogdet(np.eye(spec.dim) + r @ sig_inf @ r)[1]
    return np.exp(-spec.k * val)


def test_invariant_laplace_matches_wishart_determinant(rng):
    spec = random_wishart(2, rng)
    p = spec.to_params()
    law = InvariantLaw(p, decay_certificate(p))
    for _ in range(4):
        u = random_psd(2, rng)
        got = law.laplace(u, tol=1e-9)
        assert got == pytest.approx(_wishart_invariant_laplace(spec, u), abs=1e-7)


def test_invariant_laplace_at_zero_is_one(rng):
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    assert law.laplace(np.zeros((2, 2))) == 1.0


def test_invariant_laplace_horizon_stability(rng):
    # tightening the tolerance (hence extending the horizon) must not move
    # the value by more than the coarser tolerance
    spec = random_wishart(2, rng)
    p = spec.to_params()
    u = random_psd(2, rng)
    law1 = InvariantLaw(p, decay_certificate(p))
    law2 = InvariantLaw(p, decay_certificate(p))
    a = law1.exponent(u, tol=1e-6)
    b = law2.exponent(u, tol=1e-9)
    assert abs(a - b) < 1e-6


def test_invariant_laplace_monotone_in_u(rng):
    # Laplace transforms of cone-supported laws decrease along the cone order
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    u = np.diag([0.5, 0.2])
    assert law.laplace(2 * u) < law.laplace(u) <= 1.0


def test_exponents_match_per_probe_exponent(rng):
    spec = random_wishart(2, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    grid = standard_u_grid(2)
    tol = 1e-8
    batched = InvariantLaw(p, cert).exponents(grid, tol)
    lone = InvariantLaw(p, cert)
    per_probe = [lone.exponent(u, tol) for u in grid]
    assert np.max(np.abs(batched - per_probe)) <= tol


def test_exponents_fill_the_cache_and_skip_zero():
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    us = [np.diag([0.5, 0.2]), np.zeros((2, 2)), np.diag([0.5, 0.2])]
    vals = law.exponents(us)
    assert vals[1] == 0.0 and vals[0] == vals[2]
    assert len(law._cache) == 1
    assert law.exponent(us[0]) == vals[0]


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1.0])
def test_exponent_refuses_a_tol_outside_the_solver_range(tol):
    # a NaN tolerance used to give the tol = 1 value; now every exponent
    # tolerance is checked where the flow is set up
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    with pytest.raises(ConfigError, match="tol"):
        law.exponent(np.eye(2), tol=tol)
    assert not law._cache


def test_cache_key_does_not_overflow():
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = law._key(1e7 * np.eye(2), 1e-8)
        b = law._key(2e7 * np.eye(2), 1e-8)
    assert a != b


def test_c_hat_is_closed_form_and_query_independent():
    p = zero_diffusion_params(rate=0.7)
    cert = decay_certificate(p)
    expect = frobenius(riccati_DF(p, np.zeros((2, 2)))) * cert.M
    small, large = np.diag([0.05, 0.02]), np.diag([80.0, 30.0])
    forward, backward = InvariantLaw(p, cert), InvariantLaw(p, cert)
    assert forward.c_hat == expect
    forward.exponent(small)
    forward.exponent(large)
    backward.exponent(large)
    backward.exponent(small)
    assert forward.c_hat == backward.c_hat == expect


def test_exponents_make_one_solve_that_meets_tol(monkeypatch):
    p = zero_diffusion_params(rate=0.7)
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    horizons = []

    def spy(params, u0, T, **kwargs):
        horizons.append(T)
        return solve_riccati(params, u0, T, **kwargs)

    monkeypatch.setattr(ergodicity, "solve_riccati", spy)
    grid = standard_u_grid(2)
    tol = 1e-8
    law.exponents(grid, tol)
    assert len(horizons) == 1
    norms = np.linalg.norm(grid, axis=(1, 2))
    tail = law.c_hat * norms * np.exp(-cert.delta * horizons[0]) / cert.delta
    # the largest probe sets the horizon, so its tail meets tol up to roundoff
    assert np.all(tail <= tol * (1.0 + 1e-12))


def _criterion_3_models():
    # the models of acceptance criterion 3, drawn in the same order
    rng = np.random.default_rng(303)
    models = []
    for build in (lambda: random_wishart(2, rng).to_params(),
                  lambda: _random_subcritical(rng)):
        for _ in range(3):
            models.append(build())
            random_psd(2, rng)
            random_psd(2, rng, 5.0)
    return models + [zero_diffusion_params(rate=0.7)]


@pytest.mark.parametrize("p", _criterion_3_models())
def test_flow_is_dominated_by_the_linearized_flow(p):
    # psi(t, u) <= e^{t B_eff*} u in the cone order, hence
    # F(psi(t, u)) <= c_hat ||u|| e^{-delta t}
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    rng = np.random.default_rng(11)
    dirs = [np.eye(2) / np.sqrt(2), np.diag([1.0, 0.0])]
    for _ in range(2):
        v = rng.standard_normal(2)
        dirs.append(np.outer(v, v) / (v @ v))
    us = np.array([r * v for r in (0.1, 1.0, 10.0, 100.0) for v in dirs])
    times = np.linspace(0.0, 6.0 / cert.delta, 13)[1:]
    traj = solve_riccati(p, us, float(times[-1]), tol=1e-10, t_eval=times)
    adj = p.effective_drift().adjoint()
    norms = np.linalg.norm(us, axis=(1, 2))
    for t, psi in zip(times, traj.psi):
        linear = SymOperator(2, mat_exp(t * adj.matrix)).apply(us)
        floor = np.linalg.eigvalsh(linear - psi)[:, 0]
        assert np.all(floor >= -1e-9 * np.maximum(1.0, norms))
        cost = riccati_F(p, psi)
        assert np.all(cost <= law.c_hat * norms * np.exp(-cert.delta * t))


# --- metric diagnostics --------------------------------------------------


def test_standard_u_grid_shape_and_determinism():
    grid1 = standard_u_grid(3)
    grid2 = standard_u_grid(3)
    assert len(grid1) == 9 * (1 + 3 + 3)
    for a, b in zip(grid1, grid2):
        assert np.array_equal(a, b)
        assert np.linalg.eigvalsh(a)[0] >= -1e-12


def test_transient_laplace_values(rng):
    spec = random_wishart(2, rng, with_jumps=True)
    p = spec.to_params()
    x = random_psd(2, rng)
    u = random_psd(2, rng)
    times = [0.0, 0.5, 1.0]
    vals = transient_laplace(solve_riccati(p, u, 1.0, tol=1e-10, t_eval=times[1:]), x, times)
    assert vals[0] == pytest.approx(np.exp(-float(np.sum(x * u))), rel=1e-12)
    for t, val in zip(times[1:], vals[1:]):
        closed = phi_closed_form_mbajd(spec, u, t) + np.sum(x * psi_closed_form_wishart(spec, u, t))
        assert val == pytest.approx(np.exp(-closed), rel=1e-8)
    # a stack of probes gives one column per probe, within the solver tolerance
    stack = np.array([u, 2.0 * u, random_psd(2, rng)])
    flow = solve_riccati(p, stack, 1.0, tol=1e-10, t_eval=times[1:])
    cols = transient_laplace(flow, x, times)
    assert cols.shape == (3, 3)
    assert np.allclose(cols[:, 0], vals, rtol=0.0, atol=1e-9)
    assert np.array_equal(cols[0], np.exp(-np.sum(x * flow.u0, axis=(1, 2))))


def test_transient_laplace_of_an_overflowing_pairing_is_zero():
    # <x, psi> >= 0 on the cone, so a pairing past the float range reads
    # +inf and the transform 0, never NaN, with no numpy warning
    p = zero_diffusion_params()
    flow = solve_riccati(p, 20.0 * np.eye(2), 1.0, tol=1e-10, t_eval=[0.5, 1.0])
    vals = transient_laplace(flow, 1e307 * np.eye(2), [0.0, 0.5, 1.0])
    assert np.array_equal(vals, np.zeros(3))


def test_dL_below_bound_and_decaying(rng):
    spec = random_wishart(2, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    x = random_psd(2, rng)
    times = np.array([0.0, 1.0, 2.0, 4.0]) / cert.delta
    dl = dL_table(p, law, x, times)
    bounds = dL_bound(cert, law.c_hat, x, times)
    assert np.all(dl <= bounds)
    assert dl[1] > dl[3]


def test_dL_table_solves_its_grid_once(monkeypatch):
    p = zero_diffusion_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return solve_riccati(*args, **kwargs)

    monkeypatch.setattr(ergodicity, "solve_riccati", spy)
    dL_table(p, law, np.diag([3.0, 1.0]), np.array([0.0, 1.0, 3.0]) / cert.delta)
    assert len(calls) == 1


@pytest.mark.parametrize("late", [0.5, 2.0])
def test_flow_stops_at_times_and_ends_at_the_later_horizon(late):
    p = zero_diffusion_params()
    law = InvariantLaw(p, decay_certificate(p))
    grid = standard_u_grid(2)
    horizon = law.flow(grid).times[-1]
    times = np.array([0.0, 0.1, late]) * horizon
    traj = law.flow(grid, 1e-8, times)
    assert np.all(np.isin(times[times > 0], traj.times))
    assert traj.times[-1] == max(horizon, times[-1])
    assert traj.psi.shape == (len(traj.times), len(grid), 2, 2)


def test_exponents_after_a_verify_flow_match_a_fresh_law(rng):
    p = random_wishart(2, rng, with_jumps=True).to_params()
    cert = decay_certificate(p)
    grid = standard_u_grid(2)
    tol = 1e-8
    law = InvariantLaw(p, cert)
    law.flow(grid, tol, np.arange(0.0, 6.01, 0.5) / cert.delta)
    read = law.exponents(grid, tol)
    fresh = InvariantLaw(p, cert).exponents(grid, tol)
    assert np.max(np.abs(read - fresh)) <= tol


def test_w1_sandwich_zero_diffusion():
    p = zero_diffusion_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    x = np.diag([3.0, 1.0])
    for t in (0.0, 0.5, 2.0):
        gap, bound, ok = w1_mean_gap_check(p, law, cert, x, t)
        assert ok
        assert gap >= 0 and bound > 0


def test_w1_sandwich_of_a_time_vector_matches_each_time():
    p = zero_diffusion_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    x = np.diag([3.0, 1.0])
    times = np.arange(0.0, 6.01, 0.5) / cert.delta
    gap, bound, ok = w1_mean_gap_check(p, law, cert, x, times)
    for row in zip(times.tolist(), gap.tolist(), bound.tolist(), ok.tolist()):
        want = w1_mean_gap_check(p, law, cert, x, row[0])
        assert row[1:] == pytest.approx(want, rel=1e-14, abs=0.0)
        assert isinstance(want[0], float) and isinstance(want[2], bool)


def test_w1_sandwich_rejects_diffusion(rng):
    spec = random_wishart(2, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    with pytest.raises(HypothesisViolatedError):
        w1_mean_gap_check(p, law, cert, np.eye(2), 1.0)


# --- hypothesis gate -----------------------------------------------------


def test_log_moment_gate_values():
    d = 2
    big = np.diag([3.0, 4.0])  # norm 5
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.1 * np.eye(d),
        drift=LinearDrift.lyapunov(-0.6 * np.eye(d)),
        m=ScalarJumpMeasure([(big, 0.5), (np.diag([0.2, 0.0]), 1.0)]),
    )
    gate = log_moment_gate(p)
    assert gate.log_moment == pytest.approx(0.5 * np.log(5.0))
    assert gate.alpha_is_zero
    # K xi + B(xi) = (K - 1.2) xi is PSD exactly when K >= 1.2
    assert gate.K_sampled == 1.2


def _drift_only(drift: LinearDrift) -> AffineParams:
    d = len(drift.beta)
    return AffineParams(dim=d, alpha=np.zeros((d, d)), b=0.1 * np.eye(d), drift=drift)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_log_moment_gate_scalar_drift_in_every_dimension(d):
    # K xi + B(xi) = (K - 1.4) xi is PSD for K >= 1.4 in every direction
    p = _drift_only(LinearDrift.lyapunov(-0.7 * np.eye(d)))
    assert log_moment_gate(p).K_sampled == 1.4


@pytest.mark.parametrize("beta", [-0.7, -2.5, 0.0, 0.3, 1e-300])
def test_log_moment_gate_one_dimension(beta):
    # every 1 x 1 beta is scalar: K xi + B(xi) = (K + 2 beta) xi
    p = _drift_only(LinearDrift.lyapunov([[beta]]))
    assert log_moment_gate(p).K_sampled == max(0.0, -2.0 * beta)


@pytest.mark.parametrize("kind, d", [("congruence", 2), ("congruence", 4), ("lyapunov", 3)])
def test_log_moment_gate_zero_constant(kind, d, rng):
    # a congruence drift keeps the cone for any beta, and so does a
    # lyapunov cI with c > 0
    if kind == "congruence":
        drift = LinearDrift.congruence(rng.standard_normal((d, d)))
    else:
        drift = LinearDrift.lyapunov(0.3 * np.eye(d))
    assert log_moment_gate(_drift_only(drift)).K_sampled == 0.0


def test_log_moment_gate_unbounded_direction():
    # a generic non-normal lyapunov drift rotates rank-one directions out
    # of their own span, so no finite K works along them
    d = 2
    beta = np.array([[-1.0, 1.0], [0.0, -1.0]])
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.1 * np.eye(d),
        drift=LinearDrift.lyapunov(beta),
    )
    gate = log_moment_gate(p)
    assert gate.K_sampled is None


@pytest.mark.parametrize("beta", [
    pytest.param(np.diag([-0.5, -0.9]), id="diagonal"),
    pytest.param(np.diag([-0.7, -0.7, -0.2]), id="diagonal-d3"),
    # on xi = e2 e2.T, K xi + B(xi) has determinant -1e-12 for every K
    pytest.param(-0.7 * np.eye(2) + 1e-6 * np.outer([1.0, 0.0], [0.0, 1.0]), id="near-scalar"),
])
def test_log_moment_gate_no_finite_constant(beta):
    assert log_moment_gate(_drift_only(LinearDrift.lyapunov(beta))).K_sampled is None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_log_moment_gate_constant_is_valid_and_smallest(d, rng):
    drifts = [
        LinearDrift.congruence(rng.standard_normal((d, d))),
        LinearDrift.lyapunov(-0.9 * np.eye(d)),
        LinearDrift.lyapunov(0.2 * np.eye(d)),
    ]
    for drift in drifts:
        K = log_moment_gate(_drift_only(drift)).K_sampled
        for _ in range(20):
            xi = random_psd(d, rng)
            y = K * xi + drift.apply(xi)
            assert np.linalg.eigvalsh(y)[0] >= -1e-12 * frobenius(y)
        if K > 0.0:
            below = (K - 1e-6) * np.eye(d) + drift.apply(np.eye(d))
            assert np.linalg.eigvalsh(below)[0] < 0.0
