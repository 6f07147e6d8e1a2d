"""Shared fixtures and independent scalar oracles.

For a diagonal model (``alpha``, ``beta``, and the start value all
diagonal, ``beta = diag(beta_i)``) the matrix Riccati flow decouples
into scalar logistic equations with an elementary solution; the scalar
formulas below are the independent route the solver is tested against.
"""

import numpy as np
import pytest

from affinecone import AffineParams, LinearDrift, ScalarJumpMeasure, WishartSpec


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
