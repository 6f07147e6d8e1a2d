"""Stationary analysis: decay certificate, invariant law, convergence bounds.

Certifies subcriticality of a diffusion model and of a pure-jump model,
evaluates the stationary Laplace transform (against the exact
determinant formula where one exists), and tabulates the
Laplace-transform metric against its certified exponential bound.
"""

import numpy as np
import scipy.linalg

from affinecone import (
    AffineParams,
    InvariantLaw,
    LinearDrift,
    ScalarJumpMeasure,
    WishartSpec,
    dL_bound,
    dL_table,
    decay_certificate,
    frobenius,
    invariant_mean,
    log_moment_gate,
    sqrt_psd,
    transient_mean,
    w1_mean_gap_check,
)


def diffusion_model():
    print("== matrix diffusion ==")
    spec = WishartSpec(alpha=np.diag([0.3, 0.2]), beta=-0.8 * np.eye(2), k=1.5)
    p = spec.to_params()
    cert = decay_certificate(p)
    print(f"spectral abscissa {cert.abscissa:.4f}, certified (M, delta) = "
          f"({cert.M:.3f}, {cert.delta:.4f})")
    law = InvariantLaw(p, cert)
    print(f"stationary mean:\n{law.mean}")

    sig_inf = scipy.linalg.solve_lyapunov(spec.beta, -2.0 * spec.alpha)
    u = np.diag([1.0, 0.5])
    r = sqrt_psd(u)
    exact = np.exp(-spec.k * np.linalg.slogdet(np.eye(2) + r @ sig_inf @ r)[1])
    got = law.laplace(u, tol=1e-9)
    print(f"stationary Laplace transform at diag(1, 0.5): {got:.10f} "
          f"(closed form {exact:.10f})")

    x = np.diag([2.0, 1.0])
    times = np.arange(0.0, 6.01, 1.0) / cert.delta
    dl = dL_table(p, law, x, times)
    bounds = dL_bound(cert, law.c_hat, x, times)
    print("t        dL           bound")
    for t, a, b in zip(times, dl, bounds):
        print(f"{t:6.3f}  {a:10.4e}  {b:10.4e}")


def jump_model():
    print("\n== pure-jump model (zero diffusion) ==")
    d = 2
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(-0.7 * np.eye(d)),
        m=ScalarJumpMeasure([(np.diag([0.5, 0.25]), 0.8)]),
    )
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    gate = log_moment_gate(p)
    print(f"jump log-moment {gate.log_moment:.4f}, inward constant "
          f"K = {gate.K_sampled}")
    x = np.diag([3.0, 1.0])
    print("t        mean gap     transport bound")
    for t in np.arange(0.0, 6.01, 1.0) / cert.delta:
        gap, bound, ok = w1_mean_gap_check(p, law, cert, x, float(t))
        assert ok
        print(f"{t:6.3f}  {gap:10.4e}  {bound:10.4e}")
    print(f"mean gap at t=10: "
          f"{frobenius(transient_mean(p, x, 10.0) - invariant_mean(p, cert)):.2e}")


if __name__ == "__main__":
    diffusion_model()
    jump_model()
