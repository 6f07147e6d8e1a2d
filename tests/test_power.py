"""Oracle power: planted defects that an oracle must reject.

Each entry names a defect, built as a wrong model, and the oracle that
must reject it.  The defect's ensemble is simulated from the wrong model
and scored against the true one; its clean run, the true model's
ensemble scored the same way, must pass.  Seeds, path counts and
defects are fixed up front at desk scale and are not tuned until a
defect is caught: a defect an oracle misses is reported, not hidden.

The first oracle here is the mean z-test, :func:`mc_vs_formula` with
the acceptance limit ``|z| <= 4`` at snapshots 0.5, 1 and 2.  The inflated
decay rate is planted by acceptance criterion 8 and by ``verify
--inflate-delta`` already, and is not repeated here.  The mean does not
depend on ``alpha``, so it cannot see the factor ``F`` of the Euler step;
the second oracle, the covariance of one Euler increment, can, and its
defect is a wrong factor planted in the scheme itself.  The third, the
empirical Laplace transform against the Riccati transform, sees the whole
law at each snapshot; its defects keep the mean, so the mean z-test passes
them.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    InvariantLaw,
    LinearDrift,
    ScalarJumpMeasure,
    SimConfig,
    decay_certificate,
    mc_vs_formula,
    simulate,
    standard_u_grid,
    transient_laplace,
)
from affinecone.symcone import sym_index
from conftest import criterion5_config

simulate_module = importlib.import_module("affinecone.simulate")

Z_LIMIT = 4.0
TIMES = [0.5, 1.0, 2.0]


def _exact_config():
    """The zero-diffusion model of the ``verify-jumps-d2`` workload, two
    jump atoms, on the exact scheme."""
    w = np.array([0.4, 0.3])
    p = AffineParams(
        dim=2,
        alpha=np.zeros((2, 2)),
        b=np.array([[0.3, 0.02], [0.02, 0.2]]),
        drift=LinearDrift.lyapunov(np.array([[-1.0, 0.05], [-0.03, -0.8]])),
        m=ScalarJumpMeasure([(np.diag([0.5, 0.2]), 0.8), (np.outer(w, w), 0.5)]),
    )
    return SimConfig(params=p, sigma=np.zeros((2, 2)), x0=np.array([[3.0, 0.1], [0.1, 1.0]]),
                     horizon=2.0, dt=0.01, n_paths=2000, seed=1, scheme="ou_exact")


def _b_halved(p: AffineParams) -> AffineParams:
    # the jump-free part of an exact path reads b through the shared flow
    return dataclasses.replace(p, b=0.5 * p.b)


def _beta_off_diagonal_negated(p: AffineParams) -> AffineParams:
    beta = p.drift.beta * np.where(np.eye(p.dim) == 1.0, 1.0, -1.0)
    return dataclasses.replace(p, drift=LinearDrift.lyapunov(beta))


def _m_site_halved(p: AffineParams) -> AffineParams:
    # the Euler scheme reads m through the shared compound Poisson sampler
    return dataclasses.replace(p, m=ScalarJumpMeasure([(0.5 * s, w) for s, w in p.m.atoms]))


ENTRIES = [
    pytest.param(_exact_config, _b_halved, id="ou-exact-b-halved"),
    pytest.param(criterion5_config, _beta_off_diagonal_negated,
                 id="euler-beta-off-diagonal-negated"),
    pytest.param(criterion5_config, _m_site_halved, id="euler-m-site-halved"),
]


def _max_abs_z(config: SimConfig, truth: AffineParams) -> float:
    """The largest ``|z|`` of ``config``'s ensemble scored against ``truth``."""
    return float(np.max(np.abs(mc_vs_formula(simulate(config, TIMES), truth, TIMES))))


@pytest.mark.parametrize("make, defect", ENTRIES)
def test_clean_run_passes(make, defect):
    config = make()
    assert _max_abs_z(config, config.params) <= Z_LIMIT


@pytest.mark.parametrize("make, defect", ENTRIES)
def test_planted_defect_is_rejected(make, defect):
    config = make()
    wrong = dataclasses.replace(config, params=defect(config.params))
    assert _max_abs_z(wrong, config.params) > Z_LIMIT


# --- the covariance of one Euler increment ----------------------------------


def _one_step_config():
    """A ``d = 3`` diffusion without jumps, for one Euler step of a small
    ``dt`` from a non-diagonal ``x0`` with distinct eigenvalues (about 0.31,
    0.68 and 1.21), far inside the cone for that step."""
    sigma = np.array([[0.4, 0.02, -0.03], [0.0, 0.35, 0.01], [0.0, 0.0, 0.3]])
    alpha = sigma.T @ sigma
    p = AffineParams(dim=3, alpha=alpha, b=2.5 * alpha,
                     drift=LinearDrift.lyapunov(-0.8 * np.eye(3)))
    x0 = np.array([[1.0, 0.3, -0.2], [0.3, 0.7, 0.1], [-0.2, 0.1, 0.5]])
    return SimConfig(params=p, sigma=sigma, x0=x0, horizon=1e-3, dt=1e-3, n_paths=20000, seed=1)


def _increment_max_abs_z(config: SimConfig) -> float:
    """The largest ``|z|`` of the sample covariance of the upper-triangle
    entries of one Euler increment against its law.

    Started at ``x`` the increment is Gaussian with ``Cov(dX_ij, dX_kl) =
    dt (x_ik alpha_jl + x_il alpha_jk + x_jk alpha_il + x_jl alpha_ik)``; a
    sample covariance of ``n`` Gaussian draws has the standard error
    ``sqrt((S_aa S_bb + S_ab^2) / n)``.  No path may leave the cone's
    interior in the step, so the projection changes none of them.
    """
    x, a, dt, n = config.x0, config.params.alpha, config.dt, config.n_paths
    states = simulate(config, [0.0, dt]).states
    assert np.linalg.eigvalsh(states[1])[:, 0].min() > 0.0
    rows, cols, _ = sym_index(config.params.dim)
    i, j, k, l = rows[:, None], cols[:, None], rows[None], cols[None]
    exact = dt * (x[i, k] * a[j, l] + x[i, l] * a[j, k] + x[j, k] * a[i, l] + x[j, l] * a[i, k])
    sample = np.cov((states[1] - states[0])[:, rows, cols], rowvar=False)
    stderr = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n)
    return float(np.max(np.abs(sample - exact) / stderr))


def test_one_step_covariance_clean_run_passes():
    assert _increment_max_abs_z(_one_step_config()) <= Z_LIMIT


def test_transposed_factor_is_rejected(monkeypatch):
    # F^T in place of F: F^T F is not X for a non-diagonal X
    project = simulate_module.project_factor_psd

    def transposed(y):
        x, f = project(y)
        d = int(np.sqrt(len(f)))
        return x, f.reshape(d, d, -1).swapaxes(0, 1).reshape(d * d, -1)

    monkeypatch.setattr(simulate_module, "project_factor_psd", transposed)
    assert _increment_max_abs_z(_one_step_config()) > Z_LIMIT


# --- the empirical Laplace transform ----------------------------------------

# the chance that a correct sampler fails some test of one run
FAMILY_LEVEL = 1e-3


def _sigma_halved(config: SimConfig) -> SimConfig:
    # the diffusion alpha / 4 with the same b: the mean does not move
    p = dataclasses.replace(config.params, alpha=config.params.alpha / 4.0)
    return dataclasses.replace(config, params=p, sigma=0.5 * config.sigma)


def _m_sites_spread(config: SimConfig) -> SimConfig:
    # each m atom at 4 x its site with a quarter of its mass: int xi m(dxi)
    # and so the mean do not move
    m = ScalarJumpMeasure([(4.0 * s, w / 4.0) for s, w in config.params.m.atoms])
    return dataclasses.replace(config, params=dataclasses.replace(config.params, m=m))


LAPLACE_ENTRIES = [
    pytest.param(criterion5_config, _sigma_halved, id="euler-sigma-halved"),
    pytest.param(_exact_config, _m_sites_spread, id="ou-exact-m-sites-spread"),
]


def _laplace_gap_ratio(config: SimConfig, truth: SimConfig) -> float:
    """The largest gap between the empirical Laplace transform of
    ``config``'s ensemble and ``truth``'s transform, in units of its
    two-sided empirical-Bernstein half-width, over the probes
    ``standard_u_grid`` and the snapshots ``TIMES``.

    For ``u`` and ``X_t`` in the cone each summand ``e^{-<u, X_t>}`` lies in
    ``[0, 1]``, so with probability at least ``1 - delta`` the sample mean
    of ``n`` of them is within ``sqrt(2 V ln(4 / delta) / n) + 7 ln(4 /
    delta) / (3 (n - 1))`` of the exact ``exp(-phi(t,u) - <x, psi(t,u)>)``,
    ``V`` the sample variance (Maurer & Pontil 2009, Theorem 4, on each
    side at ``delta / 2``).  Bonferroni over the tests: ``delta`` is
    ``FAMILY_LEVEL`` over their number.
    """
    law = InvariantLaw(truth.params, decay_certificate(truth.params))
    us = np.array(standard_u_grid(truth.params.dim))
    exact = transient_laplace(law.flow(us, 1e-8, TIMES), truth.x0, TIMES)
    states = simulate(config, TIMES).states
    summands = np.exp(-np.einsum("tnij,uij->tun", states, us))
    n = config.n_paths
    log_term = np.log(4.0 * exact.size / FAMILY_LEVEL)
    half_width = (np.sqrt(2.0 * summands.var(axis=-1, ddof=1) * log_term / n)
                  + 7.0 * log_term / (3.0 * (n - 1)))
    return float(np.max(np.abs(summands.mean(axis=-1) - exact) / half_width))


@pytest.mark.parametrize("make, defect", LAPLACE_ENTRIES)
def test_laplace_clean_run_passes(make, defect):
    config = make()
    assert _laplace_gap_ratio(config, config) <= 1.0


@pytest.mark.parametrize("make, defect", LAPLACE_ENTRIES)
def test_laplace_planted_defect_is_rejected(make, defect):
    config = make()
    assert _laplace_gap_ratio(defect(config), config) > 1.0


@pytest.mark.parametrize("make, defect", LAPLACE_ENTRIES)
def test_laplace_defect_keeps_the_mean(make, defect):
    # the mean z-test cannot tell the defect from the true model
    config = make()
    assert _max_abs_z(defect(config), config.params) <= Z_LIMIT
