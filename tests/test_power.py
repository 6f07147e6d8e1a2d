"""Oracle power: planted defects that an oracle must reject.

Each entry names a defect, built as a wrong model, and the oracle that
must reject it.  The defect's ensemble is simulated from the wrong model
and scored against the true one; its clean run, the true model's
ensemble scored the same way, must pass.  Seeds, path counts and
defects are fixed up front at desk scale and are not tuned until a
defect is caught: a defect an oracle misses is reported, not hidden.

The oracle here is the mean z-test, :func:`mc_vs_formula` with the
acceptance limit ``|z| <= 4`` at snapshots 0.5, 1 and 2.  The inflated
decay rate is planted by acceptance criterion 8 and by ``verify
--inflate-delta`` already, and is not repeated here.
"""

import dataclasses

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    LinearDrift,
    ScalarJumpMeasure,
    SimConfig,
    WishartSpec,
    mc_vs_formula,
    simulate,
)

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


def _euler_config():
    """The jump-diffusion model of acceptance criterion 5, whose ``beta``
    has an off-diagonal entry, on the projected Euler scheme."""
    sigma = np.array([[0.45, 0.1], [0.0, 0.35]])
    spec = WishartSpec(
        alpha=sigma.T @ sigma,
        beta=-0.9 * np.eye(2) + np.array([[0.0, 0.15], [0.0, 0.0]]),
        k=1.1,
        m=ScalarJumpMeasure([(np.diag([0.25, 0.1]), 0.6)]),
    )
    return SimConfig(params=spec.to_params(), sigma=sigma, x0=0.4 * np.eye(2), horizon=2.0,
                     dt=0.01, n_paths=2000, seed=1)


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
    pytest.param(_euler_config, _beta_off_diagonal_negated, id="euler-beta-off-diagonal-negated"),
    pytest.param(_euler_config, _m_site_halved, id="euler-m-site-halved"),
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
