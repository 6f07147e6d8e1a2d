"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test covers one numbered criterion and prints a single pass line;
a failed assertion reports the criterion in its message.  All suites
run at desk scale (d in {2, 3, 5}) in a few minutes.
"""

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    InvariantLaw,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SimConfig,
    SymOperator,
    WishartSpec,
    dL_bound,
    dL_table,
    decay_certificate,
    frobenius,
    inner,
    invariant_mean,
    log_moment_gate,
    mc_mean,
    mc_vs_formula,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    random_psd,
    riccati_DF,
    riccati_DR,
    riccati_F,
    riccati_R,
    semiflow_check,
    simulate,
    solve_riccati,
    sqrt_psd,
    standard_u_grid,
    sym_basis,
    sym_dim,
    symmetrize,
    trace_norm_bracket,
    transient_mean,
    unvectorize,
    vectorize,
    w1_mean_gap_check,
)
from conftest import criterion5_config, random_wishart, zero_diffusion_params


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n:2d} [PASS] {detail}")


def _random_subcritical(rng, with_mu=True):
    """A random admissible jump-diffusion with a certified negative abscissa."""
    d = 2
    alpha = random_psd(d, rng)
    b = (d - 1) * alpha + random_psd(d, rng) + 0.05 * np.eye(d)
    drift = LinearDrift.lyapunov(
        -(1.0 + rng.random()) * np.eye(d) + 0.2 * rng.standard_normal((d, d))
    )
    m = ScalarJumpMeasure([(random_psd(d, rng) + 0.05 * np.eye(d), 0.3 + 0.5 * rng.random())])
    mu = MatrixJumpMeasure()
    if with_mu:
        mu = MatrixJumpMeasure(
            [(random_psd(d, rng) + 0.05 * np.eye(d), 0.1 * random_psd(d, rng))]
        )
    p = AffineParams(dim=d, alpha=alpha, b=b, drift=drift, m=m, mu=mu)
    assert p.validate().passed
    decay_certificate(p)  # raises if not subcritical
    return p


# --- 1: Riccati solver vs closed forms ----------------------------------


def test_criterion_1_riccati_vs_closed_form():
    rng = np.random.default_rng(101)
    worst_psi = 0.0
    worst_phi = 0.0
    times = np.linspace(0.25, 5.0, 20)
    for trial in range(20):
        d = 2 + (trial % 2)
        spec = random_wishart(d, rng)
        p = spec.to_params()
        u = random_psd(d, rng)
        traj = solve_riccati(p, u, 5.0, tol=1e-10, t_eval=times)
        for i, t in enumerate(traj.times):
            worst_psi = max(
                worst_psi, frobenius(traj.psi[i] - psi_closed_form_wishart(spec, u, t))
            )
            worst_phi = max(
                worst_phi, abs(traj.phi[i] - phi_closed_form_mbajd(spec, u, t))
            )
    assert worst_psi <= 1e-7, f"criterion 1: psi deviation {worst_psi:.3e}"
    assert worst_phi <= 1e-6, f"criterion 1: phi deviation {worst_phi:.3e}"
    _passed(1, f"20 specs, max psi dev {worst_psi:.2e}, max phi dev {worst_phi:.2e}")


# --- 2: semiflow property ------------------------------------------------


def test_criterion_2_semiflow_defect():
    rng = np.random.default_rng(202)
    tol = 1e-9
    worst = 0.0
    for _ in range(10):
        p = _random_subcritical(rng, with_mu=True)
        u = random_psd(2, rng)
        for t in (0.5, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                worst = max(worst, semiflow_check(p, u, t, s, tol=tol))
    assert worst <= 10 * tol, f"criterion 2: semiflow defect {worst:.3e}"
    _passed(2, f"10 models, max defect {worst:.2e} <= {10 * tol:.0e}")


# --- 3: psi decay envelope and lower bound ------------------------------


def test_criterion_3_psi_decay_bounds():
    rng = np.random.default_rng(303)
    worst_ratio = 0.0
    for build in (lambda: random_wishart(2, rng).to_params(),
                  lambda: _random_subcritical(rng)):
        for _ in range(3):
            p = build()
            cert = decay_certificate(p)
            times = np.linspace(0.0, 6.0 / cert.delta, 13)
            for u in (np.eye(p.dim), random_psd(p.dim, rng), random_psd(p.dim, rng, 5.0)):
                traj = solve_riccati(p, u, float(times[-1]), tol=1e-10, t_eval=times[1:])
                for t, ps in zip(times, [u] + list(traj.psi)):
                    env = cert.M * frobenius(u) * np.exp(-cert.delta * t) * (1 + 1e-6)
                    worst_ratio = max(worst_ratio, frobenius(ps) / env)
    assert worst_ratio <= 1.0, f"criterion 3: envelope ratio {worst_ratio:.6f}"

    # lower bound for the zero-diffusion family with the sampled constant
    p0 = zero_diffusion_params(rate=0.7)
    gate = log_moment_gate(p0)
    assert gate.K_sampled is not None
    dirs = [np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    rng0 = np.random.default_rng(7)
    v = rng0.standard_normal(2)
    dirs.append(np.outer(v, v))
    worst_gap = 0.0
    for u in (np.eye(2), np.diag([2.0, 0.5])):
        traj = solve_riccati(p0, u, 3.0, tol=1e-11, t_eval=np.linspace(0.3, 3.0, 10))
        for t, ps in zip(traj.times, traj.psi):
            for xi in dirs:
                lower = np.exp(-gate.K_sampled * t) * inner(xi, u)
                worst_gap = min(worst_gap, inner(xi, ps) - lower * (1 - 1e-9))
    assert worst_gap >= -1e-10, f"criterion 3: lower bound defect {worst_gap:.3e}"
    _passed(3, f"envelope ratio {worst_ratio:.4f} <= 1, lower bound holds (K sampled)")


# --- 4: deterministic first moments -------------------------------------


def test_criterion_4_first_moment_deterministic():
    rng = np.random.default_rng(404)
    d = 2
    # exact start value at t = 0
    p = _random_subcritical(rng)
    x = random_psd(d, rng)
    assert np.array_equal(transient_mean(p, x, 0.0), symmetrize(x)), "criterion 4: t=0"

    # beta = -I/2, b = I: mean from zero is (1 - e^{-t}) I
    q = AffineParams(
        dim=d, alpha=np.zeros((d, d)), b=np.eye(d),
        drift=LinearDrift.lyapunov(-0.5 * np.eye(d)),
    )
    for t in (0.3, 1.0, 2.5):
        got = transient_mean(q, np.zeros((d, d)), t)
        ref = (1.0 - np.exp(-t)) * np.eye(d)
        assert frobenius(got - ref) <= 1e-10, f"criterion 4: OU mean at t={t}"

    # stationary mean solves the fixed-point equation and is PSD
    cert = decay_certificate(p)
    mean = invariant_mean(p, cert)
    residual = p.effective_drift().apply(mean) + p.b + p.m.first_moment(d)
    assert frobenius(residual) <= 1e-10, "criterion 4: stationary residual"
    assert np.linalg.eigvalsh(mean)[0] >= -1e-12, "criterion 4: stationary mean PSD"
    _passed(4, f"exact t=0, OU formula to 1e-10, stationary residual {frobenius(residual):.1e}")


# --- 5: statistical first moments ---------------------------------------


def test_criterion_5_first_moment_statistical():
    p = criterion5_config().params
    snapshots = [0.5, 1.0, 2.0]

    def run(dt, seed):
        config = criterion5_config(dt=dt, n_paths=10_000, seed=seed)
        return simulate(config, snapshots, threads=4)

    ens = run(1e-3, 2024)
    worst_z = 0.0
    for t in snapshots:
        z = mc_vs_formula(ens, p, t)
        worst_z = max(worst_z, float(np.max(np.abs(z))))
    assert worst_z <= 4.0, f"criterion 5: |z| = {worst_z:.2f}"

    # halving the step must not move the estimate beyond the noise level
    fine = run(5e-4, 2024)
    worst_shift = 0.0
    for t in snapshots:
        coarse_mean, stderr = mc_mean(ens, t)
        fine_mean, _ = mc_mean(fine, t)
        ok = stderr > 0
        shift = np.max(np.abs(coarse_mean - fine_mean)[ok] / stderr[ok])
        worst_shift = max(worst_shift, float(shift))
    assert worst_shift < 2.0, f"criterion 5: dt-halving shift {worst_shift:.2f} stderr"
    _passed(5, f"10^4 paths, max |z| {worst_z:.2f} <= 4, dt/2 shift {worst_shift:.2f} < 2 stderr")


# --- 6: invariant Laplace transform -------------------------------------


def test_criterion_6_invariant_laplace():
    import scipy.linalg

    rng = np.random.default_rng(606)
    spec = random_wishart(2, rng)
    p = spec.to_params()
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    sig_inf = scipy.linalg.solve_lyapunov(spec.beta, -2.0 * spec.alpha)

    assert law.laplace(np.zeros((2, 2))) == 1.0, "criterion 6: L(0) = 1"

    tol = 1e-8
    worst = 0.0
    horizons = {}
    for u in standard_u_grid(2):
        got = law.exponent(u, tol=tol)
        r = sqrt_psd(u)
        ref = spec.k * np.linalg.slogdet(np.eye(2) + r @ sig_inf @ r)[1]
        worst = max(worst, abs(got - ref))
        # record the tail-bound horizon for the doubling check below
        nrm = frobenius(u)
        horizons[id(u)] = (u, got, nrm)
    assert worst <= 1e-6, f"criterion 6: determinant-formula gap {worst:.3e}"

    # doubling the truncation horizon moves no value by more than tol
    delta = cert.delta
    worst_shift = 0.0
    for u, got, nrm in list(horizons.values())[::7]:
        T = max(1.0, 5.0 / delta, np.log(max(law.c_hat * nrm / (delta * tol), 2.0)) / delta)
        phi2 = solve_riccati(p, u, 2.0 * T, tol=1e-11).phi[-1]
        worst_shift = max(worst_shift, abs(phi2 - got))
    assert worst_shift < tol, f"criterion 6: horizon doubling moved {worst_shift:.3e}"
    _passed(6, f"max |integral - closed form| {worst:.2e} <= 1e-6, doubling shift {worst_shift:.1e}")


# --- 7: Laplace-metric decay --------------------------------------------


def test_criterion_7_dL_decay():
    rng = np.random.default_rng(707)
    slopes = []
    for p in (random_wishart(2, rng).to_params(), zero_diffusion_params(rate=0.9)):
        cert = decay_certificate(p)
        law = InvariantLaw(p, cert)
        x = random_psd(2, rng) + 0.2 * np.eye(2)
        delta = cert.delta
        times = np.arange(0.0, 6.01, 0.5) / delta
        dl = dL_table(p, law, x, times, tol=1e-9)
        bounds = dL_bound(cert, law.c_hat, x, times)
        assert np.all(dl <= bounds), (
            f"criterion 7: dL exceeded bound, max ratio {np.max(dl / bounds):.3f}"
        )
        sel = times >= 1.0 / delta - 1e-12
        slope = np.polyfit(times[sel], np.log(dl[sel]), 1)[0]
        assert abs(slope + delta) <= 0.1 * delta, (
            f"criterion 7: slope {slope:.4f} vs -delta {-delta:.4f}"
        )
        slopes.append(slope)
    _passed(7, f"dL <= bound on both families, slopes {slopes[0]:.3f}/{slopes[1]:.3f}")


# --- 8: Wasserstein sandwich --------------------------------------------


def test_criterion_8_w1_sandwich():
    p = zero_diffusion_params(rate=0.7)
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    x = np.diag([3.0, 1.0])
    times = np.arange(0.0, 6.01, 0.5) / cert.delta
    for t in times:
        gap, bound, ok = w1_mean_gap_check(p, law, cert, x, float(t))
        assert ok, f"criterion 8: sandwich failed at t={t:.3f} ({gap:.3e} > {bound:.3e})"

    # self-test: an overstated decay rate must break the bound somewhere
    from affinecone import DecayCertificate

    inflated = DecayCertificate(
        abscissa=cert.abscissa, delta=1.5 * cert.delta, M=cert.M,
        grid_T=cert.grid_T, lyapunov_v=cert.lyapunov_v,
    )
    broke = False
    for t in times:
        gap, bound, ok = w1_mean_gap_check(p, law, inflated, x, float(t))
        if not ok:
            broke = True
            break
    assert broke, "criterion 8: inflated rate was not detected"
    _passed(8, "sandwich holds on the grid; inflated delta detected as designed")


# --- 9: foundation properties -------------------------------------------


def test_criterion_9_foundations():
    rng = np.random.default_rng(909)

    # trace/norm bracket on 1000 random PSD matrices per dimension
    for d in (2, 3, 5):
        for _ in range(1000):
            x = random_psd(d, rng, scale=10.0 ** rng.uniform(-2, 2))
            lo, hi = trace_norm_bracket(x)
            assert lo and hi, f"criterion 9: bracket failed in d={d}"

    # derivative checks by central differences
    p = _random_subcritical(rng)
    u = random_psd(2, rng)
    dr = riccati_DR(p, u)
    df = riccati_DF(p, u)
    eps = 1e-6
    for _ in range(10):
        h = symmetrize(rng.standard_normal((2, 2)))
        fd_r = (riccati_R(p, u + eps * h) - riccati_R(p, u - eps * h)) / (2 * eps)
        assert frobenius(dr.apply(h) - fd_r) <= 1e-6, "criterion 9: DR slope"
        fd_f = (riccati_F(p, u + eps * h) - riccati_F(p, u - eps * h)) / (2 * eps)
        assert abs(inner(df, h) - fd_f) <= 1e-6, "criterion 9: DF slope"

    # vectorization isometry and operator adjoint identity
    for d in (2, 3, 5):
        for _ in range(20):
            x = symmetrize(rng.standard_normal((d, d)))
            y = symmetrize(rng.standard_normal((d, d)))
            assert abs(float(vectorize(x) @ vectorize(y)) - inner(x, y)) <= 1e-11
        op = SymOperator(d, rng.standard_normal((sym_dim(d), sym_dim(d))))
        for _ in range(10):
            x = symmetrize(rng.standard_normal((d, d)))
            y = symmetrize(rng.standard_normal((d, d)))
            gap = inner(op.apply(x), y) - inner(x, op.adjoint().apply(y))
            assert abs(gap) <= 1e-10, "criterion 9: adjoint identity"

    # spectrum of the lyapunov-kind drift operator is the pair-sum set
    d = 3
    beta = rng.standard_normal((d, d))
    q = AffineParams(
        dim=d, alpha=np.zeros((d, d)), b=np.zeros((d, d)),
        drift=LinearDrift.lyapunov(beta),
    )
    lam = np.linalg.eigvals(beta)
    expect = np.array([lam[i] + lam[j] for i in range(d) for j in range(i, d)])
    got = q.effective_drift().eigenvalues()
    # match as multisets: ordering of near-degenerate eigenvalues is unstable
    dist = np.abs(expect[:, None] - got[None, :])
    assert np.all(dist.min(axis=1) <= 1e-9), "criterion 9: eigenvalue pair sums"
    assert np.all(dist.min(axis=0) <= 1e-9), "criterion 9: eigenvalue pair sums"
    _passed(9, "bracket x1000/dim, derivative slopes, isometry, adjoint, pair-sum spectrum")


# --- 10: reproducibility -------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    rng = np.random.default_rng(1010)
    d = 2
    sigma = np.array([[0.5, 0.1], [0.0, 0.4]])
    spec = WishartSpec(
        alpha=sigma.T @ sigma, beta=-0.8 * np.eye(d), k=1.2,
        m=ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)]),
    )
    config = SimConfig(
        params=spec.to_params(), sigma=sigma, x0=0.5 * np.eye(d),
        horizon=1.0, dt=0.01, n_paths=1500, seed=42,
    )
    outputs = []
    for threads in (1, 4, 1, 4):
        ens = simulate(config, [0.5, 1.0], threads=threads)
        path = tmp_path / f"run_{len(outputs)}.csv"
        ens.snapshots_to_csv(path)
        outputs.append(path.read_bytes())
    assert all(o == outputs[0] for o in outputs), "criterion 10: ensemble CSVs differ"
    _passed(10, "bit-identical ensemble CSVs across reruns and threads in {1, 4}")
