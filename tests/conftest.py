"""Shared fixtures and independent scalar oracles.

For a diagonal model (``alpha``, ``beta``, and the start value all
diagonal, ``beta = diag(beta_i)``) the matrix Riccati flow decouples
into scalar logistic equations with an elementary solution; the scalar
formulas below are the independent route the solver is tested against.
"""

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SimConfig,
    WishartSpec,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


def scalar_psi(a: float, beta: float, u: float, t: float) -> float:
    """Solution of ``psi' = -2 a psi^2 + 2 beta psi, psi(0) = u``."""
    if u == 0.0:
        return 0.0
    if beta == 0.0:
        return u / (1.0 + 2.0 * a * u * t)
    e = np.exp(2.0 * beta * t)
    return beta * u * e / (beta + a * u * (e - 1.0))


def scalar_phi(a: float, beta: float, k: float, u: float, t: float) -> float:
    """Integral of ``2 k a psi(s)`` for the scalar flow: ``k log(1 + u s_t)``
    with ``s_t = a (e^{2 beta t} - 1) / beta`` (``2 a t`` when beta = 0)."""
    if beta == 0.0:
        s_t = 2.0 * a * t
    else:
        s_t = a * (np.exp(2.0 * beta * t) - 1.0) / beta
    return k * np.log1p(u * s_t)


def random_wishart(d: int, rng: np.random.Generator, with_jumps: bool = False) -> WishartSpec:
    """A random admissible pure-diffusion spec with a stable drift; a draw
    whose ``beta`` has an eigenvalue with real part >= 0 is refused with
    ``ValueError``."""
    g = rng.standard_normal((d, d))
    alpha = g @ g.T / d + 0.05 * np.eye(d)
    beta = -(0.5 + rng.random()) * np.eye(d) + 0.3 * rng.standard_normal((d, d))
    if np.max(np.linalg.eigvals(beta).real) >= 0.0:
        raise ValueError(f"random_wishart drew an unstable beta: {beta.tolist()}")
    k = (d - 1) / 2.0 + 0.5 + rng.random()
    m = ScalarJumpMeasure()
    if with_jumps:
        v = rng.standard_normal(d)
        m = ScalarJumpMeasure([(np.outer(v, v) * 0.2, 0.4 + rng.random())])
    return WishartSpec(alpha=alpha, beta=beta, k=k, m=m)


def zero_diffusion_params(d: int = 2, rate: float = 0.7) -> AffineParams:
    """A jump-only model with a scaled-identity stable drift."""
    site = np.zeros((d, d))
    site[0, 0] = 0.5
    site[-1, -1] = 0.25
    return AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(-rate * np.eye(d)),
        m=ScalarJumpMeasure([(site, 0.8)]),
    )


def euler_d2_config(n_paths=512, dt=0.01, seed=11, horizon=1.0, with_mu=False, with_m=True):
    """A d = 2 jump-diffusion on the projected Euler scheme, with an ``m``
    atom and, ``with_mu``, a ``mu`` atom, whose matrices the projection
    factors by Cholesky or, where that is refused, by eigh."""
    d = 2
    sigma = np.array([[0.5, 0.1], [0.0, 0.4]])
    alpha = sigma.T @ sigma
    m = ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)] if with_m else [])
    mu = MatrixJumpMeasure()
    if with_mu:
        mu = MatrixJumpMeasure([(np.diag([0.4, 0.4]), 0.3 * np.eye(d))])
    p = AffineParams(
        dim=d,
        alpha=alpha,
        b=(d - 1) * alpha + 0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(-0.8 * np.eye(d)),
        m=m,
        mu=mu,
    )
    return SimConfig(params=p, sigma=sigma, x0=0.5 * np.eye(d), horizon=horizon, dt=dt,
                     n_paths=n_paths, seed=seed)


def criterion5_config(dt=0.01, n_paths=2000, seed=1):
    """The d = 2 jump-diffusion of acceptance criterion 5, whose ``beta``
    has an off-diagonal entry, on the projected Euler scheme."""
    sigma = np.array([[0.45, 0.1], [0.0, 0.35]])
    spec = WishartSpec(
        alpha=sigma.T @ sigma,
        beta=-0.9 * np.eye(2) + np.array([[0.0, 0.15], [0.0, 0.0]]),
        k=1.1,
        m=ScalarJumpMeasure([(np.diag([0.25, 0.1]), 0.6)]),
    )
    return SimConfig(params=spec.to_params(), sigma=sigma, x0=0.4 * np.eye(2), horizon=2.0,
                     dt=dt, n_paths=n_paths, seed=seed)


def config_dict(config: SimConfig) -> dict:
    """The CLI config of a simulation: its model and its ``sim`` section."""
    return {**config.params.to_dict(), "sim": {
        "sigma": config.sigma.tolist(), "x0": config.x0.tolist(), "horizon": config.horizon,
        "dt": config.dt, "n_paths": config.n_paths, "seed": config.seed,
        "scheme": config.scheme}}
