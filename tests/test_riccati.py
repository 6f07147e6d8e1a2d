"""Riccati flows: vector fields, derivatives, solver, closed forms."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from affinecone import (
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SolverFailureError,
    WishartSpec,
    congruence_integral,
    frobenius,
    inner,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    random_psd,
    riccati,
    riccati_DF,
    riccati_DR,
    riccati_F,
    riccati_R,
    semiflow_check,
    solve_riccati,
    symmetrize,
)
from affinecone.symcone import sym_dim, vectorize
from conftest import random_wishart, scalar_phi, scalar_psi, zero_diffusion_params


def _jump_params(rng, d=2):
    alpha = random_psd(d, rng)
    p = AffineParams(
        dim=d,
        alpha=alpha,
        b=(d - 1) * alpha + random_psd(d, rng),
        drift=LinearDrift.lyapunov(-np.eye(d) + 0.2 * rng.standard_normal((d, d))),
        m=ScalarJumpMeasure([(random_psd(d, rng) + 0.05 * np.eye(d), 0.7)]),
        mu=MatrixJumpMeasure([(random_psd(d, rng) + 0.05 * np.eye(d), 0.1 * random_psd(d, rng))]),
    )
    return p


# --- vector fields and derivatives --------------------------------------


def test_vector_fields_vanish_at_zero(rng):
    p = _jump_params(rng)
    z = np.zeros((p.dim, p.dim))
    assert riccati_F(p, z) == 0.0
    assert frobenius(riccati_R(p, z)) == 0.0


def test_R_derivative_at_zero_is_adjoint_effective_drift(rng):
    p = _jump_params(rng)
    expect = p.effective_drift().adjoint().matrix
    assert np.allclose(riccati_DR(p, np.zeros((2, 2))).matrix, expect, atol=1e-12)


def test_DR_matches_finite_differences(rng):
    p = _jump_params(rng)
    u = random_psd(2, rng)
    dr = riccati_DR(p, u)
    eps = 1e-6
    for _ in range(5):
        h = symmetrize(rng.standard_normal((2, 2)))
        fd = (riccati_R(p, u + eps * h) - riccati_R(p, u - eps * h)) / (2 * eps)
        assert np.allclose(dr.apply(h), fd, atol=1e-7)


def test_DF_matches_finite_differences(rng):
    p = _jump_params(rng)
    u = random_psd(2, rng)
    g = riccati_DF(p, u)
    eps = 1e-6
    for _ in range(5):
        h = symmetrize(rng.standard_normal((2, 2)))
        fd = (riccati_F(p, u + eps * h) - riccati_F(p, u - eps * h)) / (2 * eps)
        assert inner(g, h) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_F_constant_part(rng):
    # at u = 0 the gradient is b plus the full jump first moment
    p = _jump_params(rng)
    expect = p.b + p.m.first_moment(p.dim)
    assert np.allclose(riccati_DF(p, np.zeros((2, 2))), expect, atol=1e-12)


def _field_model(rng, d, drift, jumps):
    """A model with the given drift kind and jump atoms; the field does
    not need admissibility, so the drift is drawn freely."""
    beta = rng.standard_normal((d, d))
    m = [(random_psd(d, rng) + 0.05 * np.eye(d), 0.3 + rng.random()) for _ in range(2)]
    mu = [(random_psd(d, rng) + 0.05 * np.eye(d), random_psd(d, rng)) for _ in range(2)]
    return AffineParams(
        dim=d,
        alpha=random_psd(d, rng),
        b=random_psd(d, rng),
        drift=LinearDrift(drift, beta=beta),
        m=ScalarJumpMeasure(m if "m" in jumps else []),
        mu=MatrixJumpMeasure(mu if "mu" in jumps else []),
    )


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("drift", ["lyapunov", "congruence"])
@pytest.mark.parametrize("jumps", [(), ("m",), ("mu",), ("m", "mu")],
                         ids=["no-atoms", "m", "mu", "m-and-mu"])
def test_coordinate_field_matches_matrix_form(rng, d, drift, jumps):
    # relative to the largest entry of a stack of probes of one scale: a
    # single row of R or F can cancel to far below the size of its terms
    p = _field_model(rng, d, drift, jumps)
    field = riccati._coordinate_field(p)
    for scale in (0.01, 0.1, 1.0, 10.0):
        us = np.array([random_psd(d, rng, scale=scale) for _ in range(10)])
        got = field(vectorize(us))
        assert got.shape == (len(us), sym_dim(d) + 1)
        for part, ref in ((got[:, :-1], vectorize(riccati_R(p, us))),
                          (got[:, -1], riccati_F(p, us))):
            assert np.abs(part - ref).max() <= 1e-14 * np.abs(ref).max()
        # row k of the Jacobian is the central difference of the field along v_k
        eps = 1e-6 * scale
        steps = eps * np.eye(sym_dim(d))
        fd = np.stack([field(vectorize(us) + h) - field(vectorize(us) - h) for h in steps],
                      axis=1) / (2 * eps)
        jac = field.jacobian(vectorize(us))
        assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max()


@pytest.mark.parametrize("alpha, beta", [
    pytest.param(np.eye(2), [[-1.0, 1e308], [0.0, -1.0]], id="huge-beta"),
    pytest.param(8e307 * np.eye(2), -np.eye(2), id="huge-alpha"),
])
def test_coordinate_field_refuses_coefficients_past_the_float_range(alpha, beta):
    p = AffineParams(dim=2, alpha=alpha, b=np.eye(2), drift=LinearDrift.lyapunov(beta))
    with pytest.raises(OverflowError):
        riccati._coordinate_field(p)


def test_solve_refuses_a_start_where_the_field_is_not_finite(rng, monkeypatch):
    # v_i v_j overflows at 1e200 I: the integrator, which would take a NaN
    # first step and retry it without end, is never called
    def never(*args, **kwargs):
        raise AssertionError("the integrator was called")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", never)
    with pytest.raises(OverflowError, match="not finite at the start"):
        solve_riccati(_jump_params(rng), 1e200 * np.eye(2), 1.0)


def test_solve_evaluates_the_matrix_form_only_to_build_the_field(rng, monkeypatch):
    # riccati_R is called once per solve, to build the coordinate field,
    # however many steps the solve takes
    p = _jump_params(rng)
    calls = []
    real = riccati.riccati_R

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(riccati, "riccati_R", counted)
    probes = np.array([random_psd(2, rng, scale=s) for s in (0.5, 1.0, 3.0)])
    for T in (0.5, 20.0):
        calls.clear()
        traj = solve_riccati(p, probes, T, tol=1e-10)
        assert traj.times.size > 10
        assert len(calls) == 1


# --- solver vs independent scalar oracle --------------------------------


def test_solver_matches_decoupled_scalar_flow(rng):
    # diagonal data decouple into scalar logistic equations
    a = np.array([0.6, 1.1])
    beta = np.array([-0.9, -0.4])
    k = 0.8
    spec = WishartSpec(alpha=np.diag(a), beta=np.diag(beta), k=k)
    p = spec.to_params()
    u = np.diag([2.0, 0.5])
    times = np.linspace(0.25, 3.0, 12)
    traj = solve_riccati(p, u, 3.0, tol=1e-11, t_eval=times)
    for i, t in enumerate(traj.times):
        expect = np.diag([scalar_psi(a[j], beta[j], u[j, j], t) for j in range(2)])
        assert frobenius(traj.psi[i] - expect) < 1e-9
        phi_expect = sum(scalar_phi(a[j], beta[j], k, u[j, j], t) for j in range(2))
        assert traj.phi[i] == pytest.approx(phi_expect, abs=1e-9)


def test_closed_form_matches_scalar_flow():
    a = np.array([0.6, 1.1])
    beta = np.array([-0.9, -0.4])
    spec = WishartSpec(alpha=np.diag(a), beta=np.diag(beta), k=0.8)
    u = np.diag([2.0, 0.5])
    for t in (0.1, 0.7, 2.5):
        expect = np.diag([scalar_psi(a[j], beta[j], u[j, j], t) for j in range(2)])
        assert frobenius(psi_closed_form_wishart(spec, u, t) - expect) < 1e-12
        phi_expect = sum(scalar_phi(a[j], beta[j], 0.8, u[j, j], t) for j in range(2))
        assert phi_closed_form_mbajd(spec, u, t) == pytest.approx(phi_expect, abs=1e-11)


def test_solver_matches_closed_form_generic(rng):
    spec = random_wishart(3, rng)
    p = spec.to_params()
    u = random_psd(3, rng)
    times = np.linspace(0.2, 4.0, 8)
    traj = solve_riccati(p, u, 4.0, tol=1e-11, t_eval=times)
    for i, t in enumerate(traj.times):
        assert frobenius(traj.psi[i] - psi_closed_form_wishart(spec, u, t)) < 1e-8


def test_phi_quadrature_cross_check(rng):
    # jump contribution to phi: quadrature of F along the solver output
    # must agree with the independent closed-form route
    spec = random_wishart(2, rng, with_jumps=True)
    p = spec.to_params()
    u = random_psd(2, rng)
    T = 2.0
    grid = np.linspace(0.0, T, 4001)
    traj = solve_riccati(p, u, T, tol=1e-11, t_eval=grid[1:])
    vals = np.concatenate([[riccati_F(p, u)], [riccati_F(p, ps) for ps in traj.psi]])
    phi_quad = float(scipy.integrate.simpson(vals, x=grid))
    assert phi_quad == pytest.approx(traj.phi[-1], abs=5e-9)
    assert phi_closed_form_mbajd(spec, u, T) == pytest.approx(traj.phi[-1], abs=1e-8)


def test_congruence_integral_scalar_and_quad(rng):
    beta = np.diag([-0.5, -1.2])
    x = np.diag([1.0, 2.0])
    t = 1.7
    got = congruence_integral(beta, x, t)
    expect = np.diag(
        [2.0 * x[j, j] * (np.exp(2 * beta[j, j] * t) - 1) / (2 * beta[j, j]) for j in range(2)]
    )
    assert np.allclose(got, expect, atol=1e-12)
    # generic case against direct quadrature
    b2 = rng.standard_normal((2, 2))
    x2 = random_psd(2, rng)
    ref = 2.0 * np.array(
        [
            [
                scipy.integrate.quad(
                    lambda s: (scipy.linalg.expm(b2 * s) @ x2 @ scipy.linalg.expm(b2 * s).T)[i, j],
                    0.0,
                    t,
                    epsabs=1e-12,
                )[0]
                for j in range(2)
            ]
            for i in range(2)
        ]
    )
    assert np.allclose(congruence_integral(b2, x2, t), ref, atol=1e-9)


@pytest.mark.parametrize("beta", [
    pytest.param(np.array([[-1.0, 0.05], [-0.03, -0.8]]), id="nearly-normal"),
    pytest.param(np.array([[-0.9, 0.3], [-0.2, -0.6]]), id="complex-eigenvalues"),
    pytest.param(-400.0 * np.eye(2), id="fast-mean-reversion"),
])
def test_congruence_integral_matches_lyapunov_form(beta):
    # for a stable beta the integral is S - e^{t beta} S e^{t beta.T}, with
    # beta S + S beta.T = -2x; nothing in the computation may overflow,
    # though e^{-t beta} does for beta = -400 I at t >= 1.8
    x = np.array([[0.7, 0.2], [0.2, 0.4]])
    sig = scipy.linalg.solve_continuous_lyapunov(beta, -2.0 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5, 2.0, 30.0):
            e = scipy.linalg.expm(t * beta)
            ref = sig - e @ sig @ e.T
            got = congruence_integral(beta, x, t)
            assert np.linalg.norm(got - ref, 2) <= 1e-14 * np.linalg.norm(ref, 2)


def test_wishart_closed_form_at_fast_mean_reversion():
    # at t = 2 the closed forms no longer overflow: S_2 = alpha / 400, so
    # psi = e^{-800} (...) = 0 and phi = k log det(I + u / 400)
    w = WishartSpec(alpha=0.3 * np.eye(2), beta=-400.0 * np.eye(2), k=1.0)
    u = np.diag([2.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(psi_closed_form_wishart(w, u, 2.0), np.zeros((2, 2)))
        phi = phi_closed_form_mbajd(w, u, 2.0)
    assert phi == pytest.approx(np.log((1.0 + 0.6 / 400.0) * (1.0 + 1.5 / 400.0)), rel=1e-14)


# --- flow structure ------------------------------------------------------


def test_semiflow_property(rng):
    p = _jump_params(rng)
    u = random_psd(2, rng)
    assert semiflow_check(p, u, 0.8, 0.5, tol=1e-11) < 1e-8
    assert semiflow_check(p, u, 0.0, 1.0) == 0.0
    assert semiflow_check(p, u, 1.0, 0.0) == 0.0


def test_trajectory_stays_in_cone(rng):
    p = _jump_params(rng)
    u = random_psd(2, rng, scale=5.0)
    traj = solve_riccati(p, u, 10.0, tol=1e-9)
    for ps in traj.psi:
        assert np.linalg.eigvalsh(ps)[0] > -1e-7


# psi reaches 0 up to the integrator's noise floor at tol 1e-10: the
# solver's error norm is the RMS over the D + 1 state entries against
# atol = tol 1e-2 near 0, so one accepted step may leave an error of
# Euclidean (Frobenius) size sqrt(D + 1) atol, which the flow does not resolve
_NOISE_FLOOR = np.sqrt(sym_dim(2) + 1) * 1e-10 * 1e-2


def test_long_horizon_reaches_fixed_point(rng):
    spec = random_wishart(2, rng)
    p = spec.to_params()
    traj = solve_riccati(p, np.eye(2), 2000.0, tol=1e-10)
    assert frobenius(traj.psi[-1]) < _NOISE_FLOOR
    assert traj.times[-1] == pytest.approx(2000.0)
    # phi reaches its exact limit, not merely a plateau between two steps
    assert traj.phi[-1] == pytest.approx(phi_closed_form_mbajd(spec, np.eye(2), 2000.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_long_horizon_noise_floor_holds_for_other_draws(seed):
    # two of these draws end at 1.0e-12 and 1.4e-12, above atol itself
    p = random_wishart(2, np.random.default_rng(seed)).to_params()
    traj = solve_riccati(p, np.eye(2), 2000.0, tol=1e-10)
    assert frobenius(traj.psi[-1]) < _NOISE_FLOOR


def test_long_horizon_at_the_finest_tol_runs_to_T(rng):
    # at tol 1e-12 the flow falls below 1e-14 long before T; it is still
    # integrated to T, and phi stays at its limit
    p = random_wishart(2, rng).to_params()
    long = solve_riccati(p, np.eye(2), 2000.0, tol=1e-12)
    short = solve_riccati(p, np.eye(2), 50.0, tol=1e-12)
    assert long.times[-1] == pytest.approx(2000.0)
    assert frobenius(long.psi[-1]) < 1e-12
    assert long.phi[-1] == pytest.approx(short.phi[-1], abs=1e-12)


def _failing_solver(monkeypatch):
    """Make ``solve_ivp`` report step-size underflow at t = 0.25 for every
    method; returns the list of methods it was called with."""
    methods = []

    def solve_ivp(fun, t_span, y0, method="RK45", **kwargs):
        methods.append(method)
        return SimpleNamespace(status=-1, t=np.array([0.0, 0.25]),
                               message="Required step size is less than spacing between numbers.")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", solve_ivp)
    return methods


def test_double_failure_raises_with_last_good_time(rng, monkeypatch):
    # one failed DOP853 integration raises at once, with no implicit retry
    p = _jump_params(rng)
    methods = _failing_solver(monkeypatch)
    with pytest.raises(SolverFailureError, match="integration failed") as info:
        solve_riccati(p, np.eye(2), 2.0)
    assert methods == ["DOP853"]
    assert info.value.last_t == 0.25


def test_solver_argument_validation(rng):
    p = _jump_params(rng)
    with pytest.raises(ValueError):
        solve_riccati(p, np.eye(2), 0.0)
    with pytest.raises(ValueError):
        solve_riccati(p, np.eye(2), 1.0, tol=1e-2)


@pytest.mark.parametrize("t_eval", [
    pytest.param([], id="empty"),
    pytest.param([0.5, float("nan")], id="nan"),
    pytest.param([0.5, float("inf")], id="inf"),
    pytest.param([-0.5, 0.5], id="negative"),
    pytest.param([0.5, 1.5], id="past-T"),
])
def test_solver_rejects_bad_t_eval(rng, t_eval):
    with pytest.raises(ValueError, match="t_eval"):
        solve_riccati(_jump_params(rng), np.eye(2), 1.0, t_eval=t_eval)


def test_trajectory_lookup_and_csv(tmp_path, rng):
    p = _jump_params(rng)
    traj = solve_riccati(p, np.eye(2), 1.0, tol=1e-9, t_eval=[0.25, 0.5, 1.0])
    assert traj.phi_at(0.5) == traj.phi[1]
    with pytest.raises(KeyError):
        traj.psi_at(0.3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (3, 2 + 3)
    assert np.allclose(data[:, 0], traj.times)
    assert np.allclose(data[:, 1], traj.phi)
    assert np.allclose(data[:, 2], traj.psi[:, 0, 0])


def test_wishart_spec_rejects_inadmissible():
    with pytest.raises(ValueError):
        # k below the (d-1)/2 threshold breaks b >= (d-1) alpha
        WishartSpec(alpha=np.eye(3), beta=-np.eye(3), k=0.5)


# --- stacked probes ------------------------------------------------------


def _wishart_d3(rng):
    spec = random_wishart(3, rng)
    return spec, spec.to_params(), [random_psd(3, rng, scale=s) for s in (0.1, 1.0, 5.0)]


def _zero_diffusion_m(rng):
    return None, zero_diffusion_params(), [np.eye(2), np.diag([2.0, 0.5]), random_psd(2, rng)]


def _mu_atoms(rng):
    return None, _jump_params(rng), [random_psd(2, rng, scale=s) for s in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("build", [_wishart_d3, _zero_diffusion_m, _mu_atoms])
def test_stacked_solve_matches_per_probe_solves(rng, build):
    spec, p, probes = build(rng)
    tol = 1e-10
    times = np.linspace(0.25, 4.0, 16)
    flow = solve_riccati(p, np.array(probes), 4.0, tol=tol, t_eval=times)
    n, d = len(probes), p.dim
    assert flow.psi.shape == (times.size, n, d, d)
    assert flow.phi.shape == (times.size, n)
    assert flow.phi_at(1.0).shape == (n,)
    for i, u in enumerate(probes):
        lone = solve_riccati(p, u, 4.0, tol=tol, t_eval=times)
        assert np.max(np.abs(flow.psi[:, i] - lone.psi)) <= 10 * tol
        assert np.max(np.abs(flow.phi[:, i] - lone.phi)) <= 10 * tol
        if spec is not None:
            for k, t in enumerate(times):
                assert frobenius(flow.psi[k, i] - psi_closed_form_wishart(spec, u, t)) <= 100 * tol
                assert abs(flow.phi[k, i] - phi_closed_form_mbajd(spec, u, t)) <= 100 * tol


def test_batch_of_one_takes_the_single_matrix_steps(rng):
    p = _jump_params(rng)
    u = random_psd(2, rng)
    lone = solve_riccati(p, u, 3.0, tol=1e-10)
    batch = solve_riccati(p, u[None], 3.0, tol=1e-10)
    assert np.array_equal(batch.times, lone.times)
    assert np.array_equal(batch.psi[:, 0], lone.psi)
    assert np.array_equal(batch.phi[:, 0], lone.phi)
    assert lone.psi.shape == (lone.times.size, 2, 2)
    with pytest.raises(ValueError):
        batch.to_csv("unused.csv")


def test_stacked_vector_fields_match_per_matrix(rng):
    p = _jump_params(rng)
    us = np.array([random_psd(2, rng) for _ in range(4)])
    assert np.allclose(riccati_R(p, us), [riccati_R(p, u) for u in us], atol=1e-14)
    assert np.allclose(riccati_F(p, us), [riccati_F(p, u) for u in us], atol=1e-14)


def test_solver_rejects_misshapen_stacks(rng):
    p = _jump_params(rng)
    with pytest.raises(ValueError):
        solve_riccati(p, np.zeros((0, 2, 2)), 1.0)
    with pytest.raises(ValueError):
        solve_riccati(p, np.zeros((2, 3, 3)), 1.0)
